//! Shared invariant assertions for schedules and traces.
//!
//! Test suites across the workspace (the engine, collective and
//! dynamic-event property tests, the determinism and timing suites)
//! re-check the same structural facts about every schedule they
//! produce. Centralising the checks here keeps them consistent and
//! lets a new suite opt in with one call instead of re-deriving the
//! list.

use std::collections::BTreeSet;

use crate::engine::Schedule;
use crate::graph::TaskGraph;
use crate::time::SimTime;
use crate::trace::{Trace, TraceEvent};

/// Asserts the structural invariants of a [`Trace`]: events are
/// ordered by start instant, and no event ends before it starts
/// (durations are non-negative and representable without underflow).
///
/// # Panics
///
/// Panics with a descriptive message when an invariant is violated.
pub fn assert_trace_invariants(trace: &Trace) {
    let mut prev: Option<TraceEvent<'_>> = None;
    for (i, e) in trace.events().iter().enumerate() {
        assert!(
            e.end >= e.start,
            "trace event {i} ({}) ends at {} before its start {}",
            e.label,
            e.end,
            e.start
        );
        if let Some(prev) = prev {
            assert!(
                prev.start <= e.start,
                "trace not time-sorted: event {i} ({}) at {} follows {} ({})",
                e.label,
                e.start,
                prev.start,
                prev.label
            );
        }
        prev = Some(e);
    }
}

/// Asserts the structural invariants of a [`Schedule`] against the
/// graph it executed: everything [`assert_trace_invariants`] checks on
/// the whole-run trace, plus exactly one trace event per task, each
/// event carrying its task's label and category, every event's
/// resource naming a resource the graph defines, per-task
/// `finish >= start`, the makespan equalling the last finish instant,
/// and every `blocked_by` edge pointing at a task that finished no
/// later than the blocked task started.
///
/// # Panics
///
/// Panics with a descriptive message when an invariant is violated.
pub fn assert_schedule_invariants(graph: &TaskGraph, schedule: &Schedule) {
    let trace = schedule.trace(graph, ..);
    assert_trace_invariants(&trace);
    assert_eq!(
        trace.len(),
        graph.task_count(),
        "trace must hold exactly one event per task"
    );
    let names: BTreeSet<&str> = graph.resources().map(|(_, r)| r.name.as_str()).collect();
    let mut seen = vec![false; graph.task_count()];
    for e in trace.events() {
        let i = e.task.index();
        assert!(
            i < graph.task_count() && !std::mem::replace(&mut seen[i], true),
            "trace event {} names task {:?} outside the graph or twice",
            e.label,
            e.task
        );
        assert_eq!(e.label, graph.label(e.task), "trace label of {:?}", e.task);
        assert_eq!(
            e.category,
            graph.category(e.task),
            "trace category of {}",
            e.label
        );
        if let Some(res) = e.resource {
            assert!(
                names.contains(res),
                "trace event {} ran on unknown resource {res}",
                e.label
            );
        }
    }
    let mut last = SimTime::ZERO;
    for (id, _) in graph.tasks() {
        let s = schedule.start_time(id);
        let f = schedule.finish_time(id);
        let label = graph.label(id);
        assert!(f >= s, "task {label} finishes at {f} before its start {s}");
        last = last.max(f);
        if let Some(p) = schedule.blocked_by(id) {
            assert!(
                p.index() < graph.task_count(),
                "task {label} blocked by {p:?} outside the graph"
            );
            assert!(
                schedule.finish_time(p) <= s,
                "task {label} blocked by {}, which finished after it started",
                graph.label(p)
            );
        }
    }
    assert_eq!(
        schedule.makespan(),
        last - SimTime::ZERO,
        "makespan must equal the last finish instant"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::graph::TaskId;
    use crate::time::SimSpan;

    #[test]
    fn engine_schedules_satisfy_the_invariants() {
        let mut g = TaskGraph::new();
        let r = g.add_resource("r", 1);
        let a = g.task("a").on(r).lasting(SimSpan::from_nanos(5)).build();
        let b = g.task("b").on(r).lasting(SimSpan::from_nanos(3)).build();
        let _ = g.task("join").after(a).after(b).build();
        let s = Engine::new().run(&g).unwrap();
        assert_schedule_invariants(&g, &s);
    }

    #[test]
    #[should_panic(expected = "not time-sorted")]
    fn unsorted_trace_is_rejected() {
        let ev = |start: u64| TraceEvent {
            task: TaskId::from_index(0),
            label: "t",
            category: "",
            resource: None,
            start: SimTime::from_nanos(start),
            end: SimTime::from_nanos(start + 1),
        };
        assert_trace_invariants(&[ev(5), ev(2)].into_iter().collect());
    }

    #[test]
    #[should_panic(expected = "unknown resource")]
    fn foreign_resource_is_rejected() {
        let mut g = TaskGraph::new();
        let r = g.add_resource("r", 1);
        g.task("a").on(r).lasting(SimSpan::from_nanos(5)).build();
        let s = Engine::new().run(&g).unwrap();
        let trace = s.trace(&g, ..);
        let forged: Trace = trace
            .events()
            .iter()
            .map(|e| TraceEvent {
                resource: Some("not-a-resource"),
                ..e
            })
            .collect();
        // Rebuild a schedule-shaped check through the trace path.
        let names: BTreeSet<&str> = g.resources().map(|(_, res)| res.name.as_str()).collect();
        for e in forged.events() {
            if let Some(res) = e.resource {
                assert!(names.contains(res), "unknown resource {res}");
            }
        }
    }
}

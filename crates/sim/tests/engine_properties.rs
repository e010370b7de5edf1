//! Property-based tests of the discrete-event engine on randomly
//! generated task graphs: the scheduling invariants every valid
//! schedule must satisfy, regardless of graph shape.

use proptest::prelude::*;
use voltascope_sim::check::assert_schedule_invariants;
use voltascope_sim::{Engine, SimSpan, SimTime, TaskGraph, TaskId};

/// A random DAG recipe: per task, (duration_ns, resource_choice,
/// up-to-two dependency back-offsets).
fn arb_graph() -> impl Strategy<Value = (u32, Vec<(u64, u8, u8, u8)>)> {
    (
        1u32..4, // resource count
        proptest::collection::vec((0u64..1_000, 0u8..8, 0u8..6, 0u8..6), 1..60),
    )
}

fn build(resources: u32, spec: &[(u64, u8, u8, u8)]) -> TaskGraph {
    let mut g = TaskGraph::new();
    let res: Vec<_> = (0..resources)
        .map(|i| g.add_resource(format!("r{i}"), 1 + i % 2))
        .collect();
    let mut ids: Vec<TaskId> = Vec::new();
    for (i, &(dur, rsel, d1, d2)) in spec.iter().enumerate() {
        let mut b = g
            .task(format!("t{i}"))
            .lasting(SimSpan::from_nanos(dur))
            .category(if i % 2 == 0 { "even" } else { "odd" });
        // Some tasks get no resource (barriers).
        if rsel as u32 % (resources + 1) != resources {
            b = b.on(res[(rsel as u32 % resources) as usize]);
        }
        for d in [d1, d2] {
            if d > 0 && (d as usize) <= ids.len() {
                b = b.after(ids[ids.len() - d as usize]);
            }
        }
        ids.push(b.build());
    }
    g
}

proptest! {
    /// Dependencies are honoured: no task starts before all of its
    /// dependencies finished.
    #[test]
    fn starts_respect_dependencies((resources, spec) in arb_graph()) {
        let g = build(resources, &spec);
        let s = Engine::new().run(&g).unwrap();
        for (id, task) in g.tasks() {
            for &dep in &task.deps {
                prop_assert!(
                    s.start_time(id) >= s.finish_time(dep),
                    "task {id:?} started before dep {dep:?} finished"
                );
            }
            prop_assert_eq!(
                s.finish_time(id),
                s.start_time(id) + task.duration
            );
        }
    }

    /// Resources never exceed their capacity: at any task's start
    /// instant, the number of concurrently-running tasks on the same
    /// resource stays within bounds.
    #[test]
    fn capacity_is_never_exceeded((resources, spec) in arb_graph()) {
        let g = build(resources, &spec);
        let s = Engine::new().run(&g).unwrap();
        for (rid, res) in g.resources() {
            let intervals: Vec<(SimTime, SimTime)> = g
                .tasks()
                .filter(|(_, t)| t.resource == Some(rid) && !t.duration.is_zero())
                .map(|(id, _)| (s.start_time(id), s.finish_time(id)))
                .collect();
            for &(start, _) in &intervals {
                let live = intervals
                    .iter()
                    .filter(|&&(a, b)| a <= start && start < b)
                    .count();
                prop_assert!(
                    live <= res.capacity as usize,
                    "{} ran {live} tasks concurrently (capacity {})",
                    res.name,
                    res.capacity
                );
            }
        }
    }

    /// Makespan bounds: at least the longest dependency chain, at least
    /// any single resource's work divided by its capacity, and at most
    /// the sum of all durations (plus releases, which we don't use).
    #[test]
    fn makespan_bounds((resources, spec) in arb_graph()) {
        let g = build(resources, &spec);
        let s = Engine::new().run(&g).unwrap();
        prop_assert!(s.makespan() <= g.total_work());
        // Per-resource lower bound.
        for (rid, res) in g.resources() {
            let busy: SimSpan = g
                .tasks()
                .filter(|(_, t)| t.resource == Some(rid))
                .map(|(_, t)| t.duration)
                .sum();
            prop_assert!(
                s.makespan() >= busy / res.capacity as u64,
                "makespan below resource lower bound"
            );
        }
        // Chain lower bound via longest path of durations.
        let mut longest = vec![SimSpan::ZERO; g.task_count()];
        for (id, task) in g.tasks() {
            let base = task
                .deps
                .iter()
                .map(|d| longest[d.index()])
                .max()
                .unwrap_or(SimSpan::ZERO);
            longest[id.index()] = base + task.duration;
        }
        let chain = longest.into_iter().max().unwrap_or(SimSpan::ZERO);
        prop_assert!(s.makespan() >= chain);
    }

    /// The critical chain is contiguous in time and ends at the
    /// makespan.
    #[test]
    fn critical_chain_is_contiguous((resources, spec) in arb_graph()) {
        let g = build(resources, &spec);
        let s = Engine::new().run(&g).unwrap();
        let chain = s.critical_chain();
        prop_assert!(!chain.is_empty());
        let last = *chain.last().unwrap();
        prop_assert_eq!(
            s.finish_time(last).elapsed_since(SimTime::ZERO),
            s.makespan()
        );
        for pair in chain.windows(2) {
            prop_assert_eq!(s.start_time(pair[1]), s.finish_time(pair[0]));
        }
    }

    /// The trace holds exactly one event per task, sorted by start, and
    /// category totals equal the per-task sums — plus the full shared
    /// structural invariants from `voltascope_sim::check`.
    #[test]
    fn trace_is_complete_and_consistent((resources, spec) in arb_graph()) {
        let g = build(resources, &spec);
        let s = Engine::new().run(&g).unwrap();
        assert_schedule_invariants(&g, &s);
        let trace = s.trace(&g, ..);
        prop_assert_eq!(trace.len(), g.task_count());
        let mut prev = SimTime::ZERO;
        for e in trace.events() {
            prop_assert!(e.start >= prev);
            prev = e.start;
        }
        let even_total: SimSpan = g
            .tasks()
            .filter(|&(id, _)| g.category(id) == "even")
            .map(|(_, t)| t.duration)
            .sum();
        prop_assert_eq!(trace.total_of("even"), even_total);
        // Any window of ids is the matching slice of the whole trace.
        let (lo, hi) = (g.task_count() / 3, 2 * g.task_count() / 3);
        let window = s.trace(&g, lo..hi);
        let expected: Vec<_> = trace
            .events()
            .iter()
            .filter(|e| (lo..hi).contains(&e.task.index()))
            .collect();
        prop_assert_eq!(window.events().iter().collect::<Vec<_>>(), expected);
    }

    /// Bit-determinism across runs for arbitrary graphs.
    #[test]
    fn deterministic_for_random_graphs((resources, spec) in arb_graph()) {
        let g = build(resources, &spec);
        let a = Engine::new().run(&g).unwrap();
        let b = Engine::new().run(&g).unwrap();
        for (id, _) in g.tasks() {
            prop_assert_eq!(a.start_time(id), b.start_time(id));
        }
    }
}

//! Differential and metamorphic properties of the dynamic-event engine
//! path on randomly generated task graphs.
//!
//! The dynamic plumbing ([`Engine::run_with_events`]) must be invisible
//! when unused and equivalent to static graph surgery at the temporal
//! extremes:
//!
//! - **Differential**: an empty event list reproduces the plain
//!   [`Engine::run`] schedule bit-for-bit — the pre-event engine's
//!   behaviour is the event path's zero case, so every existing golden
//!   stays frozen by construction.
//! - **Metamorphic (t = 0)**: a `Fail` or `Scale` applied before any
//!   task activity is indistinguishable from building the graph with
//!   the re-bound resources and re-priced durations.
//! - **Metamorphic (t >= makespan)**: an event scheduled at or past the
//!   healthy makespan leaves the schedule untouched (every task has
//!   finished; generators keep durations >= 1 ns so nothing is still
//!   pending at the final instant).
//!
//! Mid-run events have no static twin, so for arbitrary fault instants
//! the properties fall back to determinism and the shared structural
//! invariants from [`voltascope_sim::check`].

use proptest::prelude::*;
use voltascope_sim::check::assert_schedule_invariants;
use voltascope_sim::{
    DynamicEvent, DynamicEventKind, Engine, ResourceId, Schedule, SimSpan, SimTime, TaskGraph,
    TaskId,
};

/// A random DAG recipe: per task, (duration_ns, resource_choice,
/// up-to-two dependency back-offsets). Durations stay >= 1 ns so the
/// "event at the makespan is inert" property holds exactly (a task of
/// zero length could otherwise still be pending at the final instant).
fn arb_graph() -> impl Strategy<Value = (u32, Vec<(u64, u8, u8, u8)>)> {
    (
        2u32..4, // resource count: >= 2 so a fault always has a fallback
        proptest::collection::vec((1u64..=1_000, 0u8..8, 0u8..6, 0u8..6), 1..60),
    )
}

/// How the builder pre-applies an event at construction time, to serve
/// as the static twin of a dynamic event at `t = 0`.
#[derive(Clone, Copy)]
enum Twin {
    /// The graph exactly as rolled.
    Plain,
    /// Tasks bound to resource index `dead` re-bind to `fallback` with
    /// durations re-priced by `factor` — the static image of
    /// [`DynamicEventKind::Fail`] striking before anything ran.
    Failed {
        dead: usize,
        fallback: usize,
        factor: f64,
    },
    /// Tasks bound to resource index `slowed` keep their binding with
    /// durations re-priced — the static image of
    /// [`DynamicEventKind::Scale`] at `t = 0`.
    Scaled { slowed: usize, factor: f64 },
}

/// Builds the rolled graph (optionally with a [`Twin`] pre-applied) and
/// returns it with its resource ids. Mirrors the `engine_properties`
/// recipe: alternating capacities, occasional barrier tasks without a
/// resource, and up-to-two backward dependencies.
fn build(resources: u32, spec: &[(u64, u8, u8, u8)], twin: Twin) -> (TaskGraph, Vec<ResourceId>) {
    let mut g = TaskGraph::new();
    let res: Vec<_> = (0..resources)
        .map(|i| g.add_resource(format!("r{i}"), 1 + i % 2))
        .collect();
    let mut ids: Vec<TaskId> = Vec::new();
    for (i, &(dur, rsel, d1, d2)) in spec.iter().enumerate() {
        let mut duration = SimSpan::from_nanos(dur);
        // Some tasks get no resource (barriers).
        let mut bound = if rsel as u32 % (resources + 1) != resources {
            Some((rsel as u32 % resources) as usize)
        } else {
            None
        };
        match twin {
            Twin::Plain => {}
            Twin::Failed {
                dead,
                fallback,
                factor,
            } => {
                if bound == Some(dead) {
                    bound = Some(fallback);
                    duration = duration.mul_f64(factor);
                }
            }
            Twin::Scaled { slowed, factor } => {
                if bound == Some(slowed) {
                    duration = duration.mul_f64(factor);
                }
            }
        }
        let mut b = g
            .task(format!("t{i}"))
            .lasting(duration)
            .category(if i % 2 == 0 { "even" } else { "odd" });
        if let Some(r) = bound {
            b = b.on(res[r]);
        }
        for d in [d1, d2] {
            if d > 0 && (d as usize) <= ids.len() {
                b = b.after(ids[ids.len() - d as usize]);
            }
        }
        ids.push(b.build());
    }
    (g, res)
}

/// Asserts `a` and `b` are the same schedule, bit for bit: per-task
/// start/finish instants and blocking attribution, the makespan, and
/// the trace event-for-event (labels, categories, final resources,
/// intervals). Twin graphs share `g`'s labels, categories and resource
/// names, so both traces are read against `g`.
fn assert_identical(g: &TaskGraph, a: &Schedule, b: &Schedule) {
    for (id, _) in g.tasks() {
        let label = g.label(id);
        assert_eq!(
            a.start_time(id),
            b.start_time(id),
            "task {label} starts diverge"
        );
        assert_eq!(
            a.finish_time(id),
            b.finish_time(id),
            "task {label} finishes diverge"
        );
        assert_eq!(
            a.blocked_by(id),
            b.blocked_by(id),
            "task {label} blocking attribution diverges"
        );
    }
    assert_eq!(a.makespan(), b.makespan(), "makespans diverge");
    assert_eq!(
        a.trace(g, ..).events(),
        b.trace(g, ..).events(),
        "traces diverge event-for-event"
    );
}

fn fail(at: SimTime, resource: ResourceId, fallback: ResourceId, factor: f64) -> DynamicEvent {
    DynamicEvent {
        at,
        kind: DynamicEventKind::Fail {
            resource,
            fallback: Some(fallback),
            duration_factor: factor,
        },
    }
}

fn scale(at: SimTime, resource: ResourceId, factor: f64) -> DynamicEvent {
    DynamicEvent {
        at,
        kind: DynamicEventKind::Scale { resource, factor },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Differential: the dynamic path with no events is the plain path,
    /// bit for bit, for arbitrary graphs — and both satisfy the shared
    /// structural invariants.
    #[test]
    fn an_empty_event_list_is_differentially_inert((resources, spec) in arb_graph()) {
        let (g, _) = build(resources, &spec, Twin::Plain);
        let plain = Engine::new().run(&g).unwrap();
        let dynamic = Engine::new().run_with_events(&g, &[]).unwrap();
        assert_schedule_invariants(&g, &plain);
        assert_identical(&g, &plain, &dynamic);
    }

    /// Metamorphic: a `Fail` at `t = 0` equals building the graph with
    /// the affected tasks pre-bound to the fallback and their full
    /// durations re-priced.
    #[test]
    fn a_fault_at_zero_equals_a_construction_time_fault(
        (resources, spec) in arb_graph(),
        factor in 0.25f64..4.0,
    ) {
        let (g, res) = build(resources, &spec, Twin::Plain);
        let faulted = Engine::new()
            .run_with_events(&g, &[fail(SimTime::ZERO, res[0], res[1], factor)])
            .unwrap();
        let (twin_graph, _) = build(resources, &spec, Twin::Failed { dead: 0, fallback: 1, factor });
        let twin = Engine::new().run(&twin_graph).unwrap();
        assert_identical(&g, &faulted, &twin);
    }

    /// Metamorphic: a `Scale` at `t = 0` equals pre-scaling the bound
    /// tasks' durations at construction time.
    #[test]
    fn a_scale_at_zero_equals_prescaled_durations(
        (resources, spec) in arb_graph(),
        factor in 0.25f64..4.0,
    ) {
        let (g, res) = build(resources, &spec, Twin::Plain);
        let scaled = Engine::new()
            .run_with_events(&g, &[scale(SimTime::ZERO, res[0], factor)])
            .unwrap();
        let (twin_graph, _) = build(resources, &spec, Twin::Scaled { slowed: 0, factor });
        let twin = Engine::new().run(&twin_graph).unwrap();
        assert_identical(&g, &scaled, &twin);
    }

    /// Metamorphic: events scheduled at or past the healthy makespan
    /// are inert — every task has already finished (durations are
    /// >= 1 ns), and a task finishing exactly at the event instant
    /// still completes normally.
    #[test]
    fn events_at_or_past_the_makespan_are_inert(
        (resources, spec) in arb_graph(),
        factor in 0.25f64..4.0,
        past_ns in 0u64..1_000,
    ) {
        let (g, res) = build(resources, &spec, Twin::Plain);
        let healthy = Engine::new().run(&g).unwrap();
        let at = SimTime::ZERO + healthy.makespan() + SimSpan::from_nanos(past_ns);
        let events = [fail(at, res[0], res[1], factor), scale(at, res[1], factor)];
        let late = Engine::new().run_with_events(&g, &events).unwrap();
        assert_identical(&g, &healthy, &late);
    }

    /// Mid-run events have no static twin, so the property degrades to
    /// determinism plus the shared structural invariants: a fault at an
    /// arbitrary fraction of the makespan yields the same schedule on
    /// every run, and that schedule is well-formed.
    #[test]
    fn mid_run_events_are_deterministic_and_well_formed(
        (resources, spec) in arb_graph(),
        factor in 0.25f64..4.0,
        percent in 0u64..=100,
    ) {
        let (g, res) = build(resources, &spec, Twin::Plain);
        let healthy = Engine::new().run(&g).unwrap();
        let at = SimTime::ZERO + healthy.makespan().mul_f64(percent as f64 / 100.0);
        let events = [fail(at, res[0], res[1], factor)];
        let a = Engine::new().run_with_events(&g, &events).unwrap();
        let b = Engine::new().run_with_events(&g, &events).unwrap();
        assert_schedule_invariants(&g, &a);
        assert_identical(&g, &a, &b);
    }
}

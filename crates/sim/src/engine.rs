//! The discrete-event engine that executes a [`TaskGraph`].

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::ops::{Bound, RangeBounds};

use crate::error::SimError;
use crate::graph::{ResourceId, TaskGraph, TaskId};
use crate::time::{SimSpan, SimTime};
use crate::trace::Trace;

/// Executes task graphs. `Engine` is stateless between runs; it exists
/// as a type so future scheduling policies can hang configuration off
/// it without breaking the call sites.
///
/// # Example
///
/// ```
/// use voltascope_sim::{Engine, SimSpan, TaskGraph};
///
/// let mut graph = TaskGraph::new();
/// let r = graph.add_resource("gpu", 1);
/// let a = graph.task("a").on(r).lasting(SimSpan::from_nanos(10)).build();
/// let b = graph.task("b").on(r).lasting(SimSpan::from_nanos(10)).build();
/// let schedule = Engine::new().run(&graph)?;
/// // Exclusive resource: b waits for a.
/// assert_eq!(schedule.start_time(b), schedule.finish_time(a));
/// # Ok::<(), voltascope_sim::SimError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Engine {
    _private: (),
}

/// Occupancy statistics for one resource over a finished run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceStats {
    /// Resource name copied from the graph.
    pub name: String,
    /// Sum of service time over all tasks the resource served.
    pub busy: SimSpan,
    /// Number of tasks served.
    pub served: u64,
    /// Total time tasks spent waiting in this resource's queue.
    pub queue_wait: SimSpan,
}

impl ResourceStats {
    /// Fraction of the makespan this resource was busy, accounting for
    /// capacity (a capacity-2 resource busy on both slots the whole run
    /// reports 1.0). A zero makespan or zero capacity reports 0.0
    /// rather than dividing into inf/NaN — `TaskGraph::add_resource`
    /// rejects capacity-0 resources, but callers can pass an arbitrary
    /// divisor here.
    pub fn utilization(&self, makespan: SimSpan, capacity: u32) -> f64 {
        if makespan.is_zero() || capacity == 0 {
            0.0
        } else {
            self.busy.ratio(makespan) / capacity as f64
        }
    }
}

/// The result of executing a [`TaskGraph`]: start/finish instants,
/// the blocking task and the final resource binding of every task, plus
/// per-resource statistics. A [`Trace`] of any range of task ids is
/// built on request with [`Schedule::trace`].
#[derive(Debug, Clone)]
pub struct Schedule {
    start: Vec<SimTime>,
    finish: Vec<SimTime>,
    blocked_by: Vec<Option<TaskId>>,
    bound: Vec<Option<ResourceId>>,
    resource_stats: Vec<ResourceStats>,
    makespan: SimSpan,
}

impl Schedule {
    /// When the task started executing.
    pub fn start_time(&self, task: TaskId) -> SimTime {
        self.start[task.index()]
    }

    /// When the task finished executing.
    pub fn finish_time(&self, task: TaskId) -> SimTime {
        self.finish[task.index()]
    }

    /// Finish instant of the last task; the total simulated run time.
    pub fn makespan(&self) -> SimSpan {
        self.makespan
    }

    /// Per-resource statistics, indexed by [`ResourceId`].
    pub fn resource_stats(&self, resource: ResourceId) -> &ResourceStats {
        &self.resource_stats[resource.index()]
    }

    /// Iterates over all resource statistics in id order.
    pub fn all_resource_stats(&self) -> impl Iterator<Item = (ResourceId, &ResourceStats)> {
        self.resource_stats
            .iter()
            .enumerate()
            .map(|(i, s)| (ResourceId(i as u32), s))
    }

    /// The trace of the tasks whose ids fall in `ids`, ordered by
    /// `(start, task id)`, with each task's label and category from
    /// `graph` and its final resource. Pass `..` for the whole run.
    ///
    /// # Panics
    ///
    /// Panics if `graph` is not the graph this schedule ran (its task
    /// count differs) or `ids` reaches past its tasks.
    ///
    /// # Example
    ///
    /// ```
    /// use voltascope_sim::{Engine, SimSpan, TaskGraph};
    ///
    /// let mut g = TaskGraph::new();
    /// let r = g.add_resource("gpu", 1);
    /// g.task("late").on(r).lasting(SimSpan::from_nanos(5)).build();
    /// g.task("b").lasting(SimSpan::from_nanos(1)).build();
    /// let schedule = Engine::new().run(&g)?;
    /// let all = schedule.trace(&g, ..);
    /// assert_eq!(all.len(), 2);
    /// let second = schedule.trace(&g, 1..);
    /// assert_eq!(second.events().get(0).unwrap().label, "b");
    /// # Ok::<(), voltascope_sim::SimError>(())
    /// ```
    pub fn trace(&self, graph: &TaskGraph, ids: impl RangeBounds<usize>) -> Trace {
        let n = self.start.len();
        assert_eq!(
            graph.task_count(),
            n,
            "trace of a schedule against another graph"
        );
        let lo = match ids.start_bound() {
            Bound::Included(&i) => i,
            Bound::Excluded(&i) => i + 1,
            Bound::Unbounded => 0,
        };
        let hi = match ids.end_bound() {
            Bound::Included(&i) => i + 1,
            Bound::Excluded(&i) => i,
            Bound::Unbounded => n,
        };
        assert!(
            lo <= hi && hi <= n,
            "task range {lo}..{hi} outside a schedule of {n} tasks"
        );
        let mut order: Vec<TaskId> = (lo..hi).map(|i| TaskId(i as u32)).collect();
        order.sort_unstable_by_key(|&t| (self.start[t.index()], t));
        Trace::of_run(graph, &order, &self.start, &self.finish, &self.bound)
    }

    /// The task (dependency or resource predecessor) that determined
    /// this task's start instant, if any. Walking this chain from the
    /// last-finishing task yields the schedule's critical chain.
    pub fn blocked_by(&self, task: TaskId) -> Option<TaskId> {
        self.blocked_by[task.index()]
    }

    /// The critical chain: the sequence of tasks, earliest first, whose
    /// back-to-back execution determined the makespan.
    ///
    /// # Example
    ///
    /// ```
    /// use voltascope_sim::{Engine, SimSpan, TaskGraph};
    ///
    /// let mut g = TaskGraph::new();
    /// let a = g.task("a").lasting(SimSpan::from_nanos(10)).build();
    /// let b = g.task("b").lasting(SimSpan::from_nanos(20)).after(a).build();
    /// let schedule = Engine::new().run(&g)?;
    /// assert_eq!(schedule.critical_chain(), vec![a, b]);
    /// # Ok::<(), voltascope_sim::SimError>(())
    /// ```
    pub fn critical_chain(&self) -> Vec<TaskId> {
        let Some(last) = (0..self.finish.len())
            .map(|i| TaskId(i as u32))
            .max_by_key(|t| (self.finish[t.index()], Reverse(t.index())))
        else {
            return Vec::new();
        };
        let mut chain = vec![last];
        let mut cur = last;
        while let Some(prev) = self.blocked_by[cur.index()] {
            chain.push(prev);
            cur = prev;
        }
        chain.reverse();
        chain
    }
}

/// A scheduled mutation of the executing system, applied at a simulated
/// instant while a run is in flight: the dynamic-topology analogue of a
/// link dying or a GPU throttling *mid-epoch* rather than at topology
/// construction time.
///
/// Events are inert unless passed to [`Engine::run_with_events`]; the
/// plain [`Engine::run`] path never constructs one, so schedules of
/// event-free runs are bit-identical to the pre-event engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicEvent {
    /// Simulated instant at which the event applies. At equal instants,
    /// dynamic events apply *before* any task activity: a fault at `t`
    /// affects every task that has not finished by `t` (a task
    /// finishing exactly at `t` still completes normally).
    pub at: SimTime,
    /// What changes.
    pub kind: DynamicEventKind,
}

/// The kinds of mid-run mutation [`Engine::run_with_events`] applies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DynamicEventKind {
    /// The resource dies. In-flight tasks are preempted (the dead
    /// resource keeps the service time already rendered) and their
    /// *remaining* work, re-priced by `duration_factor`, re-queues on
    /// `fallback` ahead of the dead resource's queued tasks, which
    /// follow in FIFO order; tasks bound to the resource that have not
    /// yet become ready re-bind to `fallback` with their full duration
    /// re-priced. With `fallback: None` the affected tasks become
    /// permanently unservable and the run reports
    /// [`SimError::Deadlock`].
    Fail {
        /// The resource that stops serving.
        resource: ResourceId,
        /// Where displaced work goes, if anywhere.
        fallback: Option<ResourceId>,
        /// Multiplier applied to displaced tasks' (remaining)
        /// durations — the relative slowdown of the fallback route.
        duration_factor: f64,
    },
    /// The resource slows (or speeds up): in-flight tasks' *remaining*
    /// durations and queued/unstarted bound tasks' full durations are
    /// multiplied by `factor`.
    Scale {
        /// The resource whose tasks re-price.
        resource: ResourceId,
        /// Multiplier on remaining durations (`> 1` slows).
        factor: f64,
    },
}

/// Internal event kinds, ordered by (time, seq) for determinism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// A task's release time arrived and its dependencies are met.
    Ready(TaskId),
    /// A task finished service.
    Finish(TaskId),
    /// A [`DynamicEvent`] (index into the caller's slice) applies.
    Dynamic(u32),
}

/// Marker for an invalidated pending finish: a preempted task's old
/// `Finish` event must not complete it when popped.
const STALE: SimTime = SimTime::from_nanos(u64::MAX);

impl Engine {
    /// Creates an engine with the default (FIFO, deterministic) policy.
    pub fn new() -> Self {
        Engine::default()
    }

    /// Executes `graph` and returns the resulting [`Schedule`].
    ///
    /// Equivalent to [`Engine::run_with_events`] with no events — the
    /// two produce bit-identical schedules.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] if the graph contains a dependency
    /// cycle (some tasks never become ready), and [`SimError::Overflow`]
    /// if simulated time leaves the `u64` nanosecond range.
    pub fn run(&self, graph: &TaskGraph) -> Result<Schedule, SimError> {
        self.run_with_events(graph, &[])
    }

    /// Executes `graph` under scheduled [`DynamicEvent`]s that mutate
    /// resource bindings and remaining durations mid-run (see
    /// [`DynamicEventKind`] for the per-kind semantics).
    ///
    /// Events apply in `(at, index)` order. At equal instants a dynamic
    /// event applies before any task activity at that instant, so a
    /// fault at `t = 0` is indistinguishable from building the graph
    /// with the re-bound resources and re-priced durations, and a fault
    /// at `t >=` the healthy makespan leaves the schedule untouched. A
    /// preempted task keeps its original start instant; its single
    /// trace event spans the preemption gap and reports the *final*
    /// resource it ran on.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] if the graph contains a dependency
    /// cycle, or if a [`DynamicEventKind::Fail`] without a fallback
    /// leaves tasks permanently unservable; [`SimError::Overflow`] if a
    /// finish instant or a resource's busy or queue-wait total leaves
    /// the `u64` nanosecond range.
    ///
    /// # Panics
    ///
    /// Panics if an event names a resource `graph` does not define, a
    /// `Fail` names its own resource as fallback, or a duration factor
    /// is non-finite or not positive.
    pub fn run_with_events(
        &self,
        graph: &TaskGraph,
        dynamic: &[DynamicEvent],
    ) -> Result<Schedule, SimError> {
        for ev in dynamic {
            let (resource, factor) = match ev.kind {
                DynamicEventKind::Fail {
                    resource,
                    fallback,
                    duration_factor,
                } => {
                    if let Some(fb) = fallback {
                        assert!(
                            fb.index() < graph.resources.len(),
                            "unknown fallback resource {fb:?}"
                        );
                        assert!(
                            fb != resource,
                            "fallback must differ from the failing resource {resource:?}"
                        );
                    }
                    (resource, duration_factor)
                }
                DynamicEventKind::Scale { resource, factor } => (resource, factor),
            };
            assert!(
                resource.index() < graph.resources.len(),
                "unknown resource {resource:?}"
            );
            assert!(
                factor.is_finite() && factor > 0.0,
                "duration factor {factor} must be finite and positive"
            );
        }
        // Stable (at, index) application order.
        let mut order: Vec<usize> = (0..dynamic.len()).collect();
        order.sort_by_key(|&i| (dynamic[i].at, i));

        let n = graph.tasks.len();
        let mut indegree = vec![0u32; n];
        // Reverse edges in one flat array: task `d`'s dependents are
        // `dependents[first_dependent[d]..first_dependent[d + 1]]`, in
        // ascending id order.
        let mut first_dependent = vec![0u32; n + 1];
        for (id, task) in graph.tasks() {
            indegree[id.index()] = task.deps.len() as u32;
            for &dep in &task.deps {
                first_dependent[dep.index() + 1] += 1;
            }
        }
        for i in 0..n {
            first_dependent[i + 1] += first_dependent[i];
        }
        let mut dependents = vec![TaskId(0); first_dependent[n] as usize];
        let mut fill: Vec<u32> = first_dependent[..n].to_vec();
        for (id, task) in graph.tasks() {
            for &dep in &task.deps {
                dependents[fill[dep.index()] as usize] = id;
                fill[dep.index()] += 1;
            }
        }
        // Checked time arithmetic: an overflow names the task at fault.
        let overflow = |t: usize| SimError::Overflow {
            task: graph.label(TaskId(t as u32)).to_string(),
        };
        let finish_of = |now: SimTime, span: SimSpan, t: usize| {
            now.checked_add(span).ok_or_else(|| overflow(t))
        };
        let accrue = |total: &mut SimSpan, span: SimSpan, t: usize| {
            *total = total.checked_add(span).ok_or_else(|| overflow(t))?;
            Ok::<(), SimError>(())
        };

        let mut start = vec![SimTime::ZERO; n];
        let mut finish = vec![SimTime::ZERO; n];
        let mut blocked_by: Vec<Option<TaskId>> = vec![None; n];
        // For tasks not yet started: the dep whose finish made them ready.
        let mut ready_cause: Vec<Option<TaskId>> = vec![None; n];
        let mut ready_at: Vec<SimTime> = vec![SimTime::ZERO; n];
        let mut completed = vec![false; n];
        let mut completed_count = 0usize;
        // Mutable per-task execution state: dynamic events re-price
        // pending durations and re-bind resources, so both live outside
        // the immutable graph. With no events they never diverge from
        // the graph's values.
        let mut dur: Vec<SimSpan> = graph.tasks.iter().map(|t| t.duration).collect();
        let mut bound: Vec<Option<ResourceId>> = graph.tasks.iter().map(|t| t.resource).collect();
        let mut started = vec![false; n];
        let mut in_service_task = vec![false; n];
        // Authoritative finish instant; a popped `Finish` is stale (and
        // ignored) unless it matches. Preemption and rescaling update
        // this and push a fresh `Finish` instead of surgery on the heap.
        let mut finish_at = vec![SimTime::ZERO; n];
        // When the current service segment began (= start, unless the
        // task was preempted and re-granted); busy time accrues per
        // segment so a preempting resource keeps what it served.
        let mut segment_start = vec![SimTime::ZERO; n];
        let mut alive = vec![true; graph.resources.len()];

        struct ResState {
            in_service: u32,
            queue: VecDeque<TaskId>,
            busy: SimSpan,
            served: u64,
            queue_wait: SimSpan,
        }
        let mut res: Vec<ResState> = graph
            .resources
            .iter()
            .map(|_| ResState {
                in_service: 0,
                queue: VecDeque::new(),
                busy: SimSpan::ZERO,
                served: 0,
                queue_wait: SimSpan::ZERO,
            })
            .collect();

        let mut seq = 0u64;
        let mut events: BinaryHeap<Reverse<(SimTime, u64, Event)>> = BinaryHeap::new();
        let push = |events: &mut BinaryHeap<_>, seq: &mut u64, at: SimTime, ev: Event| {
            events.push(Reverse((at, *seq, ev)));
            *seq += 1;
        };

        // Dynamic events enter the heap first: their sequence numbers
        // are the smallest, so at equal instants they pop before every
        // Ready/Finish — the "fault applies before task activity" rule.
        for &i in &order {
            push(
                &mut events,
                &mut seq,
                dynamic[i].at,
                Event::Dynamic(i as u32),
            );
        }
        for (id, task) in graph.tasks() {
            if task.deps.is_empty() {
                push(&mut events, &mut seq, task.release, Event::Ready(id));
            }
        }

        // Starts `task` at `now`; returns its finish event.
        let mut makespan = SimTime::ZERO;
        while let Some(Reverse((now, _, event))) = events.pop() {
            match event {
                Event::Ready(id) => {
                    ready_at[id.index()] = now;
                    match bound[id.index()] {
                        None => {
                            started[id.index()] = true;
                            start[id.index()] = now;
                            segment_start[id.index()] = now;
                            blocked_by[id.index()] = ready_cause[id.index()];
                            finish_at[id.index()] = finish_of(now, dur[id.index()], id.index())?;
                            push(
                                &mut events,
                                &mut seq,
                                finish_at[id.index()],
                                Event::Finish(id),
                            );
                        }
                        Some(rid) => {
                            let state = &mut res[rid.index()];
                            if alive[rid.index()]
                                && state.in_service < graph.resources[rid.index()].capacity
                            {
                                state.in_service += 1;
                                started[id.index()] = true;
                                in_service_task[id.index()] = true;
                                start[id.index()] = now;
                                segment_start[id.index()] = now;
                                blocked_by[id.index()] = ready_cause[id.index()];
                                finish_at[id.index()] =
                                    finish_of(now, dur[id.index()], id.index())?;
                                push(
                                    &mut events,
                                    &mut seq,
                                    finish_at[id.index()],
                                    Event::Finish(id),
                                );
                            } else {
                                state.queue.push_back(id);
                            }
                        }
                    }
                }
                Event::Finish(id) => {
                    // Superseded by a preemption or rescale event.
                    if completed[id.index()] || finish_at[id.index()] != now {
                        continue;
                    }
                    finish[id.index()] = now;
                    completed[id.index()] = true;
                    completed_count += 1;
                    makespan = makespan.max(now);
                    if let Some(rid) = bound[id.index()] {
                        let state = &mut res[rid.index()];
                        accrue(&mut state.busy, now - segment_start[id.index()], id.index())?;
                        state.served += 1;
                        state.in_service -= 1;
                        in_service_task[id.index()] = false;
                        if alive[rid.index()] {
                            if let Some(next) = state.queue.pop_front() {
                                state.in_service += 1;
                                accrue(
                                    &mut state.queue_wait,
                                    now - ready_at[next.index()],
                                    next.index(),
                                )?;
                                if !started[next.index()] {
                                    started[next.index()] = true;
                                    start[next.index()] = now;
                                    // Queue wait dominated: the slot-freeing task
                                    // is what unblocked `next` — unless the wait
                                    // was zero (queued and granted at the same
                                    // instant), where the readiness cause (the
                                    // last-finishing dependency, or the release
                                    // time) is what actually set the start.
                                    blocked_by[next.index()] = if ready_at[next.index()] == now {
                                        ready_cause[next.index()]
                                    } else {
                                        Some(id)
                                    };
                                }
                                in_service_task[next.index()] = true;
                                segment_start[next.index()] = now;
                                finish_at[next.index()] =
                                    finish_of(now, dur[next.index()], next.index())?;
                                push(
                                    &mut events,
                                    &mut seq,
                                    finish_at[next.index()],
                                    Event::Finish(next),
                                );
                            }
                        }
                    }
                    let (lo, hi) = (
                        first_dependent[id.index()] as usize,
                        first_dependent[id.index() + 1] as usize,
                    );
                    for &dep_id in &dependents[lo..hi] {
                        let d = dep_id.index();
                        indegree[d] -= 1;
                        if indegree[d] == 0 {
                            // `id` finished last among deps, so it is the
                            // readiness cause unless the release time or
                            // resource queueing dominates later.
                            ready_cause[d] = Some(id);
                            let at = graph.tasks[d].release.max(now);
                            if at > now {
                                ready_cause[d] = None; // release-gated
                            }
                            push(&mut events, &mut seq, at, Event::Ready(dep_id));
                        }
                    }
                }
                Event::Dynamic(i) => match dynamic[i as usize].kind {
                    DynamicEventKind::Scale { resource, factor } => {
                        for t in 0..n {
                            if completed[t] || bound[t] != Some(resource) {
                                continue;
                            }
                            if in_service_task[t] {
                                // Rescale the *remaining* service only;
                                // a task finishing this instant is left
                                // to complete normally.
                                if finish_at[t] > now {
                                    let remaining = finish_at[t] - now;
                                    finish_at[t] = finish_of(now, remaining.mul_f64(factor), t)?;
                                    push(
                                        &mut events,
                                        &mut seq,
                                        finish_at[t],
                                        Event::Finish(TaskId(t as u32)),
                                    );
                                }
                            } else {
                                dur[t] = dur[t].mul_f64(factor);
                            }
                        }
                    }
                    DynamicEventKind::Fail {
                        resource,
                        fallback,
                        duration_factor,
                    } => {
                        let rix = resource.index();
                        alive[rix] = false;
                        let waiting: Vec<TaskId> = res[rix].queue.drain(..).collect();
                        let mut queued = vec![false; n];
                        for &t in &waiting {
                            queued[t.index()] = true;
                        }
                        // Preempted continuations first (ascending task
                        // id), then the dead queue in FIFO order.
                        let mut displaced: Vec<TaskId> = Vec::new();
                        for t in 0..n {
                            if completed[t] || bound[t] != Some(resource) {
                                continue;
                            }
                            if in_service_task[t] {
                                if finish_at[t] == now {
                                    continue; // finishing this instant
                                }
                                accrue(&mut res[rix].busy, now - segment_start[t], t)?;
                                res[rix].in_service -= 1;
                                in_service_task[t] = false;
                                dur[t] = (finish_at[t] - now).mul_f64(duration_factor);
                                finish_at[t] = STALE;
                                ready_at[t] = now;
                                displaced.push(TaskId(t as u32));
                            } else if !queued[t] {
                                // Not yet ready: re-bind in place; the
                                // normal Ready path grants it later.
                                dur[t] = dur[t].mul_f64(duration_factor);
                                if fallback.is_some() {
                                    bound[t] = fallback;
                                }
                            }
                        }
                        for &t in &waiting {
                            accrue(
                                &mut res[rix].queue_wait,
                                now - ready_at[t.index()],
                                t.index(),
                            )?;
                            ready_at[t.index()] = now;
                            dur[t.index()] = dur[t.index()].mul_f64(duration_factor);
                            displaced.push(t);
                        }
                        match fallback {
                            Some(fb) => {
                                for &t in &displaced {
                                    bound[t.index()] = Some(fb);
                                    let state = &mut res[fb.index()];
                                    if alive[fb.index()]
                                        && state.in_service < graph.resources[fb.index()].capacity
                                    {
                                        state.in_service += 1;
                                        if !started[t.index()] {
                                            started[t.index()] = true;
                                            start[t.index()] = now;
                                            blocked_by[t.index()] = if ready_at[t.index()] == now {
                                                ready_cause[t.index()]
                                            } else {
                                                None
                                            };
                                        }
                                        in_service_task[t.index()] = true;
                                        segment_start[t.index()] = now;
                                        finish_at[t.index()] =
                                            finish_of(now, dur[t.index()], t.index())?;
                                        push(
                                            &mut events,
                                            &mut seq,
                                            finish_at[t.index()],
                                            Event::Finish(t),
                                        );
                                    } else {
                                        state.queue.push_back(t);
                                    }
                                }
                            }
                            None => {
                                // Nowhere to go: park on the dead queue,
                                // which never grants — reported as
                                // deadlocked at the end of the run.
                                for &t in &displaced {
                                    res[rix].queue.push_back(t);
                                }
                            }
                        }
                    }
                },
            }
        }

        if completed_count != n {
            let stuck = (0..n)
                .filter(|&i| !completed[i])
                .map(|i| graph.label(TaskId(i as u32)).to_string())
                .collect();
            return Err(SimError::Deadlock { stuck });
        }

        let resource_stats = graph
            .resources
            .iter()
            .zip(&res)
            .map(|(r, s)| ResourceStats {
                name: r.name.clone(),
                busy: s.busy,
                served: s.served,
                queue_wait: s.queue_wait,
            })
            .collect();

        Ok(Schedule {
            start,
            finish,
            blocked_by,
            bound,
            resource_stats,
            makespan: makespan - SimTime::ZERO,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TaskGraph;

    fn span(ns: u64) -> SimSpan {
        SimSpan::from_nanos(ns)
    }

    #[test]
    fn empty_graph_runs() {
        let schedule = Engine::new().run(&TaskGraph::new()).unwrap();
        assert_eq!(schedule.makespan(), SimSpan::ZERO);
        assert!(schedule.critical_chain().is_empty());
    }

    #[test]
    fn independent_tasks_overlap_on_distinct_resources() {
        let mut g = TaskGraph::new();
        let r0 = g.add_resource("r0", 1);
        let r1 = g.add_resource("r1", 1);
        let a = g.task("a").on(r0).lasting(span(10)).build();
        let b = g.task("b").on(r1).lasting(span(8)).build();
        let s = Engine::new().run(&g).unwrap();
        assert_eq!(s.start_time(a), SimTime::ZERO);
        assert_eq!(s.start_time(b), SimTime::ZERO);
        assert_eq!(s.makespan(), span(10));
    }

    #[test]
    fn exclusive_resource_serialises_fifo() {
        let mut g = TaskGraph::new();
        let r = g.add_resource("r", 1);
        let a = g.task("a").on(r).lasting(span(5)).build();
        let b = g.task("b").on(r).lasting(span(5)).build();
        let c = g.task("c").on(r).lasting(span(5)).build();
        let s = Engine::new().run(&g).unwrap();
        assert_eq!(s.finish_time(a).as_nanos(), 5);
        assert_eq!(s.finish_time(b).as_nanos(), 10);
        assert_eq!(s.finish_time(c).as_nanos(), 15);
        assert_eq!(s.resource_stats(r).served, 3);
        assert_eq!(s.resource_stats(r).busy, span(15));
        assert_eq!(s.resource_stats(r).queue_wait, span(5 + 10));
    }

    #[test]
    fn capacity_two_runs_pairs() {
        let mut g = TaskGraph::new();
        let r = g.add_resource("r", 2);
        for i in 0..4 {
            g.task(format!("t{i}")).on(r).lasting(span(10)).build();
        }
        let s = Engine::new().run(&g).unwrap();
        assert_eq!(s.makespan(), span(20));
        assert!((s.resource_stats(r).utilization(span(20), 2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn utilization_degenerate_divisors_are_zero_not_nan() {
        let mut g = TaskGraph::new();
        let r = g.add_resource("r", 1);
        g.task("t").on(r).lasting(span(10)).build();
        let s = Engine::new().run(&g).unwrap();
        let stats = s.resource_stats(r);
        assert_eq!(stats.utilization(SimSpan::ZERO, 1), 0.0);
        assert_eq!(stats.utilization(span(10), 0), 0.0);
        assert!(stats.utilization(span(10), 0).is_finite());
    }

    #[test]
    fn dependencies_are_honoured() {
        let mut g = TaskGraph::new();
        let a = g.task("a").lasting(span(10)).build();
        let b = g.task("b").lasting(span(1)).after(a).build();
        let s = Engine::new().run(&g).unwrap();
        assert_eq!(s.start_time(b), s.finish_time(a));
    }

    #[test]
    fn diamond_joins_on_slowest_branch() {
        let mut g = TaskGraph::new();
        let a = g.task("a").lasting(span(1)).build();
        let b = g.task("b").lasting(span(10)).after(a).build();
        let c = g.task("c").lasting(span(3)).after(a).build();
        let d = g.task("d").lasting(span(1)).after(b).after(c).build();
        let s = Engine::new().run(&g).unwrap();
        assert_eq!(s.start_time(d).as_nanos(), 11);
        assert_eq!(s.critical_chain(), vec![a, b, d]);
    }

    #[test]
    fn release_time_gates_start() {
        let mut g = TaskGraph::new();
        let a = g
            .task("a")
            .lasting(span(1))
            .not_before(SimTime::from_nanos(100))
            .build();
        let s = Engine::new().run(&g).unwrap();
        assert_eq!(s.start_time(a), SimTime::from_nanos(100));
        assert_eq!(s.makespan(), span(101));
    }

    #[test]
    fn release_time_applies_after_deps() {
        let mut g = TaskGraph::new();
        let a = g.task("a").lasting(span(5)).build();
        let b = g
            .task("b")
            .lasting(span(1))
            .after(a)
            .not_before(SimTime::from_nanos(50))
            .build();
        let s = Engine::new().run(&g).unwrap();
        assert_eq!(s.start_time(b), SimTime::from_nanos(50));
    }

    #[test]
    fn cycle_is_reported_as_deadlock() {
        let mut g = TaskGraph::new();
        let a = g.task("a").lasting(span(1)).build();
        let b = g.task("b").lasting(span(1)).after(a).build();
        g.add_dep(b, a); // creates the cycle a -> b -> a
        let err = Engine::new().run(&g).unwrap_err();
        assert_eq!(
            err,
            SimError::Deadlock {
                stuck: vec!["a".to_string(), "b".to_string()]
            }
        );
    }

    #[test]
    fn zero_duration_tasks_act_as_barriers() {
        let mut g = TaskGraph::new();
        let a = g.task("a").lasting(span(4)).build();
        let b = g.task("b").lasting(span(6)).build();
        let barrier = g.task("join").after(a).after(b).build();
        let c = g.task("c").lasting(span(1)).after(barrier).build();
        let s = Engine::new().run(&g).unwrap();
        assert_eq!(s.start_time(c).as_nanos(), 6);
    }

    #[test]
    fn fifo_tie_break_is_insertion_order() {
        // Both become ready at t=0; the first-inserted must start first.
        let mut g = TaskGraph::new();
        let r = g.add_resource("r", 1);
        let a = g.task("a").on(r).lasting(span(3)).build();
        let b = g.task("b").on(r).lasting(span(3)).build();
        let s = Engine::new().run(&g).unwrap();
        assert!(s.start_time(a) < s.start_time(b));
    }

    #[test]
    fn schedule_is_deterministic() {
        let build = || {
            let mut g = TaskGraph::new();
            let r = g.add_resource("r", 2);
            let mut prev = None;
            for i in 0..50 {
                let mut builder = g.task(format!("t{i}")).on(r).lasting(span(1 + i % 7));
                if let Some(p) = prev {
                    if i % 3 == 0 {
                        builder = builder.after(p);
                    }
                }
                prev = Some(builder.build());
            }
            g
        };
        let s1 = Engine::new().run(&build()).unwrap();
        let s2 = Engine::new().run(&build()).unwrap();
        for i in 0..50 {
            let id = TaskId(i as u32);
            assert_eq!(s1.start_time(id), s2.start_time(id));
            assert_eq!(s1.finish_time(id), s2.finish_time(id));
        }
    }

    #[test]
    fn blocked_by_tracks_resource_predecessor() {
        let mut g = TaskGraph::new();
        let r = g.add_resource("r", 1);
        let a = g.task("a").on(r).lasting(span(10)).build();
        let b = g.task("b").on(r).lasting(span(10)).build();
        let s = Engine::new().run(&g).unwrap();
        assert_eq!(s.blocked_by(b), Some(a));
        assert_eq!(s.blocked_by(a), None);
        assert_eq!(s.critical_chain(), vec![a, b]);
    }

    #[test]
    fn zero_wait_handoff_is_not_blocked_by_slot_freer() {
        // x and a serialise on `r`; b's release time arrives at the
        // exact instant a's slot frees. b is queued and granted within
        // the same event round (zero queue wait), so its start instant
        // was determined by its release, not by a — attributing the
        // slot-freeing task would fabricate an x -> a -> b critical
        // chain when b's start is independent of both.
        let mut g = TaskGraph::new();
        let r = g.add_resource("r", 1);
        let x = g.task("x").on(r).lasting(span(5)).build();
        let a = g.task("a").on(r).lasting(span(5)).build();
        let b = g
            .task("b")
            .on(r)
            .lasting(span(5))
            .not_before(SimTime::from_nanos(10))
            .build();
        let s = Engine::new().run(&g).unwrap();
        // a genuinely waited for x's slot.
        assert_eq!(s.blocked_by(a), Some(x));
        assert_eq!(s.start_time(b), SimTime::from_nanos(10));
        // b's wait was zero: only a's 5 ns in-queue time is recorded.
        assert_eq!(s.resource_stats(r).queue_wait, span(5));
        assert_eq!(s.blocked_by(b), None);
        assert_eq!(s.critical_chain(), vec![b]);
    }

    #[test]
    fn positive_wait_handoff_still_blames_slot_freer() {
        // The complementary case: b was ready strictly before the slot
        // freed, so the slot-freeing task really did set its start.
        let mut g = TaskGraph::new();
        let r = g.add_resource("r", 1);
        let a = g.task("a").on(r).lasting(span(5)).build();
        let b = g
            .task("b")
            .on(r)
            .lasting(span(5))
            .not_before(SimTime::from_nanos(3))
            .build();
        let s = Engine::new().run(&g).unwrap();
        assert_eq!(s.start_time(b), SimTime::from_nanos(5));
        assert_eq!(s.blocked_by(b), Some(a));
        assert_eq!(s.critical_chain(), vec![a, b]);
    }

    #[test]
    fn trace_is_sorted_by_start() {
        let mut g = TaskGraph::new();
        let r = g.add_resource("r", 1);
        g.task("late")
            .on(r)
            .lasting(span(5))
            .not_before(SimTime::from_nanos(10))
            .build();
        g.task("early").on(r).lasting(span(5)).build();
        let s = Engine::new().run(&g).unwrap();
        let trace = s.trace(&g, ..);
        let starts: Vec<_> = trace.events().iter().map(|e| e.start).collect();
        let mut sorted = starts.clone();
        sorted.sort();
        assert_eq!(starts, sorted);
        assert_eq!(trace.events().get(0).unwrap().label, "early");
    }

    #[test]
    fn traces_of_id_ranges_keep_start_order_and_final_bindings() {
        let mut g = TaskGraph::new();
        let r = g.add_resource("r", 1);
        let fb = g.add_resource("fb", 1);
        g.task("a").on(r).lasting(span(10)).category("x").build();
        let b = g.task("b").on(r).lasting(span(4)).category("y").build();
        g.task("c").lasting(span(1)).category("x").after(b).build();
        let s = Engine::new()
            .run_with_events(&g, &[fail(5, r, fb, 1.0)])
            .unwrap();
        fn labels(t: &Trace) -> Vec<(&str, Option<&str>)> {
            t.events().iter().map(|e| (e.label, e.resource)).collect()
        }
        assert_eq!(
            labels(&s.trace(&g, ..)),
            [("a", Some("fb")), ("b", Some("fb")), ("c", None)]
        );
        // b was queued behind a; both moved to the fallback.
        let tail = s.trace(&g, b.index()..);
        assert_eq!(labels(&tail), [("b", Some("fb")), ("c", None)]);
        assert_eq!(tail.events().get(1).unwrap().category, "x");
        // Each category and resource name is stored once.
        assert_eq!(s.trace(&g, ..).table().len(), 3 + 2 + 1);
        assert!(s.trace(&g, 1..1).is_empty());
    }

    #[test]
    #[should_panic(expected = "outside a schedule")]
    fn trace_range_past_the_tasks_panics() {
        let mut g = TaskGraph::new();
        g.task("a").build();
        let s = Engine::new().run(&g).unwrap();
        let _ = s.trace(&g, 0..2);
    }

    #[test]
    fn overflowing_time_is_a_typed_error_naming_the_task() {
        let huge = SimSpan::from_nanos(u64::MAX / 2 + 1);
        // A finish instant past u64::MAX.
        let mut g = TaskGraph::new();
        let a = g.task("a").lasting(huge).build();
        g.task("b").lasting(huge).after(a).build();
        assert_eq!(
            Engine::new().run(&g).unwrap_err(),
            SimError::Overflow { task: "b".into() }
        );
        // A busy total past u64::MAX, on a capacity-2 resource whose
        // two tasks each fit the clock.
        let mut g = TaskGraph::new();
        let r = g.add_resource("r", 2);
        g.task("x").on(r).lasting(huge).build();
        g.task("y").on(r).lasting(huge).build();
        assert_eq!(
            Engine::new().run(&g).unwrap_err(),
            SimError::Overflow { task: "y".into() }
        );
        // A re-priced remainder saturates, then its finish overflows.
        let mut g = TaskGraph::new();
        let r = g.add_resource("r", 1);
        g.task("slow").on(r).lasting(span(100)).build();
        let err = Engine::new()
            .run_with_events(&g, &[scale(10, r, 1e30)])
            .unwrap_err();
        assert_eq!(
            err,
            SimError::Overflow {
                task: "slow".into()
            }
        );
    }

    // ---- Dynamic events. ----

    fn fail(at: u64, resource: ResourceId, fallback: ResourceId, f: f64) -> DynamicEvent {
        DynamicEvent {
            at: SimTime::from_nanos(at),
            kind: DynamicEventKind::Fail {
                resource,
                fallback: Some(fallback),
                duration_factor: f,
            },
        }
    }

    fn scale(at: u64, resource: ResourceId, factor: f64) -> DynamicEvent {
        DynamicEvent {
            at: SimTime::from_nanos(at),
            kind: DynamicEventKind::Scale { resource, factor },
        }
    }

    #[test]
    fn no_events_matches_run_event_for_event() {
        let mut g = TaskGraph::new();
        let r = g.add_resource("r", 2);
        let mut prev = None;
        for i in 0..20 {
            let mut b = g.task(format!("t{i}")).on(r).lasting(span(1 + i % 5));
            if let Some(p) = prev {
                b = b.after(p);
            }
            prev = Some(b.build());
        }
        let a = Engine::new().run(&g).unwrap();
        let b = Engine::new().run_with_events(&g, &[]).unwrap();
        assert_eq!(a.makespan(), b.makespan());
        assert_eq!(a.trace(&g, ..), b.trace(&g, ..));
    }

    #[test]
    fn scale_rescales_only_the_remaining_duration() {
        let mut g = TaskGraph::new();
        let r = g.add_resource("r", 1);
        let a = g.task("a").on(r).lasting(span(10)).build();
        let s = Engine::new()
            .run_with_events(&g, &[scale(4, r, 2.0)])
            .unwrap();
        // 4 ns done, remaining 6 ns doubles to 12: finish at 16.
        assert_eq!(s.finish_time(a).as_nanos(), 16);
        assert_eq!(s.resource_stats(r).busy, span(16));
    }

    #[test]
    fn scale_reprices_queued_and_unstarted_tasks_in_full() {
        let mut g = TaskGraph::new();
        let r = g.add_resource("r", 1);
        let a = g.task("a").on(r).lasting(span(10)).build();
        let b = g.task("b").on(r).lasting(span(10)).build();
        let s = Engine::new()
            .run_with_events(&g, &[scale(4, r, 2.0)])
            .unwrap();
        assert_eq!(s.finish_time(a).as_nanos(), 16);
        // b was queued: its whole 10 ns doubles.
        assert_eq!(s.start_time(b).as_nanos(), 16);
        assert_eq!(s.finish_time(b).as_nanos(), 36);
    }

    #[test]
    fn scale_below_one_speeds_the_remainder_up() {
        let mut g = TaskGraph::new();
        let r = g.add_resource("r", 1);
        let a = g.task("a").on(r).lasting(span(100)).build();
        let s = Engine::new()
            .run_with_events(&g, &[scale(20, r, 0.5)])
            .unwrap();
        assert_eq!(s.finish_time(a).as_nanos(), 60);
    }

    #[test]
    fn fail_preempts_in_flight_and_displaces_the_queue() {
        let mut g = TaskGraph::new();
        let r = g.add_resource("r", 1);
        let fb = g.add_resource("fb", 1);
        let a = g.task("a").on(r).lasting(span(10)).build();
        let b = g.task("b").on(r).lasting(span(10)).build();
        let s = Engine::new()
            .run_with_events(&g, &[fail(5, r, fb, 1.5)])
            .unwrap();
        // a ran 5 ns on r; its remaining 5 ns re-prices to 8 (7.5
        // rounded) and resumes on fb immediately.
        assert_eq!(s.start_time(a).as_nanos(), 0, "original start survives");
        assert_eq!(s.finish_time(a).as_nanos(), 13);
        // b's full 10 ns re-prices to 15, behind a on fb.
        assert_eq!(s.start_time(b).as_nanos(), 13);
        assert_eq!(s.finish_time(b).as_nanos(), 28);
        // The dead resource keeps the 5 ns it actually served; fb
        // accrues the rest. Completions count on the final resource.
        assert_eq!(s.resource_stats(r).busy, span(5));
        assert_eq!(s.resource_stats(r).served, 0);
        assert_eq!(s.resource_stats(fb).busy, span(8 + 15));
        assert_eq!(s.resource_stats(fb).served, 2);
        // Trace reports the final binding.
        for e in s.trace(&g, ..).events() {
            assert_eq!(e.resource, Some("fb"));
        }
    }

    #[test]
    fn preempted_work_requeues_ahead_of_displaced_queue_and_behind_fb_work() {
        let mut g = TaskGraph::new();
        let r = g.add_resource("r", 1);
        let fb = g.add_resource("fb", 1);
        let a = g.task("a").on(r).lasting(span(10)).build();
        let b = g.task("b").on(r).lasting(span(10)).build();
        let c = g.task("c").on(fb).lasting(span(20)).build();
        let s = Engine::new()
            .run_with_events(&g, &[fail(5, r, fb, 1.0)])
            .unwrap();
        assert_eq!(s.finish_time(c).as_nanos(), 20);
        // a's 5 ns remainder waits behind c, then b's full 10 ns.
        assert_eq!(s.finish_time(a).as_nanos(), 25);
        assert_eq!(s.start_time(b).as_nanos(), 25);
        assert_eq!(s.finish_time(b).as_nanos(), 35);
    }

    #[test]
    fn fail_rebinds_tasks_that_are_not_yet_ready() {
        let mut g = TaskGraph::new();
        let r = g.add_resource("r", 1);
        let fb = g.add_resource("fb", 1);
        let a = g.task("a").lasting(span(10)).build();
        let b = g.task("b").on(r).lasting(span(10)).after(a).build();
        let s = Engine::new()
            .run_with_events(&g, &[fail(5, r, fb, 2.0)])
            .unwrap();
        assert_eq!(s.start_time(b).as_nanos(), 10);
        assert_eq!(s.finish_time(b).as_nanos(), 30);
        assert_eq!(
            s.trace(&g, ..)
                .events()
                .iter()
                .find(|e| e.label == "b")
                .unwrap()
                .resource,
            Some("fb")
        );
    }

    #[test]
    fn fail_at_zero_equals_a_prebound_graph() {
        let build = |res_name: &str, factor: f64| {
            let mut g = TaskGraph::new();
            let r = g.add_resource("r", 1);
            let fb = g.add_resource("fb", 1);
            let pick = if res_name == "r" { r } else { fb };
            for i in 0..6 {
                g.task(format!("t{i}"))
                    .on(pick)
                    .lasting(span(7 + i).mul_f64(factor))
                    .build();
            }
            (g, r, fb)
        };
        let (g_dyn, r, fb) = build("r", 1.0);
        let dynamic = Engine::new()
            .run_with_events(&g_dyn, &[fail(0, r, fb, 2.0)])
            .unwrap();
        let (g_pre, _, _) = build("fb", 2.0);
        let prebound = Engine::new().run(&g_pre).unwrap();
        assert_eq!(dynamic.makespan(), prebound.makespan());
        assert_eq!(dynamic.trace(&g_dyn, ..), prebound.trace(&g_pre, ..));
    }

    #[test]
    fn events_at_or_after_the_makespan_change_nothing() {
        let mut g = TaskGraph::new();
        let r = g.add_resource("r", 1);
        let fb = g.add_resource("fb", 1);
        let a = g.task("a").on(r).lasting(span(10)).build();
        let b = g.task("b").on(r).lasting(span(10)).after(a).build();
        let healthy = Engine::new().run(&g).unwrap();
        for at in [20, 21, 1000] {
            let faulted = Engine::new()
                .run_with_events(&g, &[fail(at, r, fb, 3.0), scale(at, r, 5.0)])
                .unwrap();
            assert_eq!(healthy.makespan(), faulted.makespan(), "event at {at}");
            assert_eq!(healthy.trace(&g, ..), faulted.trace(&g, ..));
            assert_eq!(
                healthy.resource_stats(r).busy,
                faulted.resource_stats(r).busy
            );
        }
        let _ = b;
    }

    #[test]
    fn task_finishing_at_the_fault_instant_completes_on_the_dying_resource() {
        let mut g = TaskGraph::new();
        let r = g.add_resource("r", 1);
        let fb = g.add_resource("fb", 1);
        let a = g.task("a").on(r).lasting(span(10)).build();
        let b = g.task("b").on(r).lasting(span(4)).after(a).build();
        let s = Engine::new()
            .run_with_events(&g, &[fail(10, r, fb, 1.0)])
            .unwrap();
        // a finished exactly as the link died: it stays on r.
        assert_eq!(s.finish_time(a).as_nanos(), 10);
        let trace = s.trace(&g, ..);
        let ev_a = trace.events().iter().find(|e| e.label == "a").unwrap();
        assert_eq!(ev_a.resource, Some("r"));
        // b had not started: it runs on the fallback.
        assert_eq!(s.finish_time(b).as_nanos(), 14);
        let ev_b = trace.events().iter().find(|e| e.label == "b").unwrap();
        assert_eq!(ev_b.resource, Some("fb"));
    }

    #[test]
    fn fail_without_fallback_reports_deadlock() {
        let mut g = TaskGraph::new();
        let r = g.add_resource("r", 1);
        g.task("doomed").on(r).lasting(span(10)).build();
        let err = Engine::new()
            .run_with_events(
                &g,
                &[DynamicEvent {
                    at: SimTime::from_nanos(5),
                    kind: DynamicEventKind::Fail {
                        resource: r,
                        fallback: None,
                        duration_factor: 1.0,
                    },
                }],
            )
            .unwrap_err();
        assert_eq!(
            err,
            SimError::Deadlock {
                stuck: vec!["doomed".to_string()]
            }
        );
    }

    #[test]
    fn chained_failures_follow_the_current_binding() {
        let mut g = TaskGraph::new();
        let r1 = g.add_resource("r1", 1);
        let r2 = g.add_resource("r2", 1);
        let r3 = g.add_resource("r3", 1);
        let a = g.task("a").on(r1).lasting(span(100)).build();
        let s = Engine::new()
            .run_with_events(&g, &[fail(10, r1, r2, 1.0), fail(20, r2, r3, 1.0)])
            .unwrap();
        // 10 ns on r1, 10 on r2, the last 80 on r3.
        assert_eq!(s.finish_time(a).as_nanos(), 100);
        assert_eq!(s.resource_stats(r1).busy, span(10));
        assert_eq!(s.resource_stats(r2).busy, span(10));
        assert_eq!(s.resource_stats(r3).busy, span(80));
        let trace = s.trace(&g, ..);
        let ev = trace.events().iter().find(|e| e.label == "a").unwrap();
        assert_eq!(ev.resource, Some("r3"));
    }

    #[test]
    #[should_panic(expected = "must be finite and positive")]
    fn non_positive_factor_panics() {
        let mut g = TaskGraph::new();
        let r = g.add_resource("r", 1);
        g.task("a").on(r).lasting(span(10)).build();
        let _ = Engine::new().run_with_events(&g, &[scale(0, r, 0.0)]);
    }

    #[test]
    #[should_panic(expected = "unknown resource")]
    fn event_on_unknown_resource_panics() {
        let g = TaskGraph::new();
        let _ = Engine::new().run_with_events(&g, &[scale(0, ResourceId(7), 2.0)]);
    }

    #[test]
    fn makespan_matches_last_finish() {
        let mut g = TaskGraph::new();
        let r = g.add_resource("r", 1);
        let mut last = g.task("t0").on(r).lasting(span(2)).build();
        for i in 1..10 {
            last = g
                .task(format!("t{i}"))
                .on(r)
                .lasting(span(2))
                .after(last)
                .build();
        }
        let s = Engine::new().run(&g).unwrap();
        assert_eq!(s.makespan(), span(20));
        assert_eq!(s.finish_time(last).as_nanos(), 20);
    }
}

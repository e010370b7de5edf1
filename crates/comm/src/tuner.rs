//! Cost-based auto-tuning over the (algorithm, protocol, channels)
//! space, the way real NCCL's internal tuner works: predict the cost
//! of every candidate for the given message size and topology, pick
//! the cheapest.
//!
//! Prediction *is* simulation — each candidate's task graph is emitted
//! in isolation and run through the discrete-event engine, so the
//! predicted cost is exactly the cost the chosen selection will incur
//! in the real emission. (That makes "the chosen candidate is never
//! beaten by an unchosen one" true by construction; the offline
//! property suite pins it against regressions.) Degraded topologies
//! renegotiate naturally: the candidate graphs are built on the
//! faulted topology, over a [`Ring`] that already routed around dead
//! links, so a dead NVLink interface can flip the winner.
//!
//! A singleton tuning space ([`TuningSpace::paper`]) short-circuits
//! without simulating anything — the calibrated default adds zero
//! work and reproduces the pre-tuner graphs byte-for-byte. A space
//! with no candidate for the collective is a typed
//! [`CommError::EmptyTuningSpace`].
//!
//! ## Pricing each decision once
//!
//! Real NCCL prices (algorithm, protocol) once per communicator and
//! only looks the choice up per call. [`TunerMemo`] does the same for
//! a sweep: it maps the exact inputs of a decision — the topology's
//! wiring ([`Topology::same_wiring`]: every field but the display
//! name), the ring order, every [`NcclCosts`] field, the byte count
//! and the collective — to the chosen [`Selection`], so cells and
//! engine runs that ask the same question share one simulation. A
//! choice is a pure function of that key, so entries never need
//! invalidating; the memo is consulted only after the singleton
//! short-circuit, inserts only on success, and never holds its lock
//! while candidates simulate. Each sweep owner holds its own memo;
//! the free [`choose_all_reduce`] / [`choose_broadcast`] simulate
//! afresh on every call.
//!
//! [`TuningSpace::paper`]: crate::TuningSpace::paper

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use voltascope_sim::{Engine, SimError, SimSpan, TaskGraph};
use voltascope_topo::Topology;

use crate::collective::{self, NcclCosts, PerGpuDone};
use crate::network::LinkNetwork;
use crate::protocol::{Algorithm, CommError, Selection};
use crate::ring::Ring;

/// Which collective a prediction prices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Op {
    AllReduce,
    Broadcast,
}

/// Predicted makespan of one AllReduce candidate on `topo`, from a
/// cold start (all ranks ready at t = 0).
///
/// # Errors
///
/// Propagates [`CommError::ArithmeticOverflow`] from the emission.
pub fn predict_all_reduce(
    topo: &Topology,
    ring: &Ring,
    bytes: u64,
    costs: &NcclCosts,
    sel: &Selection,
) -> Result<SimSpan, CommError> {
    predict(topo, ring, bytes, costs, sel, Op::AllReduce)
}

/// Predicted makespan of one Broadcast candidate on `topo`.
///
/// # Errors
///
/// Propagates [`CommError::ArithmeticOverflow`] from the emission.
pub fn predict_broadcast(
    topo: &Topology,
    ring: &Ring,
    bytes: u64,
    costs: &NcclCosts,
    sel: &Selection,
) -> Result<SimSpan, CommError> {
    predict(topo, ring, bytes, costs, sel, Op::Broadcast)
}

fn predict(
    topo: &Topology,
    ring: &Ring,
    bytes: u64,
    costs: &NcclCosts,
    sel: &Selection,
    op: Op,
) -> Result<SimSpan, CommError> {
    let mut graph = TaskGraph::new();
    let net = LinkNetwork::register(&mut graph, topo);
    let mut compute = BTreeMap::new();
    let mut ready: PerGpuDone = BTreeMap::new();
    for &d in ring.devices() {
        compute.insert(d, graph.add_resource(format!("{d}.compute"), 1));
        ready.insert(d, graph.task(format_args!("ready@{d}")).build());
    }
    match op {
        Op::AllReduce => collective::all_reduce(
            &mut graph, &net, topo, ring, bytes, &ready, &compute, costs, sel, "tune",
        )?,
        Op::Broadcast => collective::broadcast(
            &mut graph, &net, topo, ring, bytes, &ready, &compute, costs, sel, "tune",
        )?,
    };
    match Engine::new().run(&graph) {
        Ok(schedule) => Ok(schedule.makespan()),
        // A link degraded far enough prices a candidate past the clock.
        Err(SimError::Overflow { .. }) => Err(CommError::ArithmeticOverflow {
            context: "simulated candidate time",
            bytes,
        }),
        Err(e) => panic!("tuner candidate graph must not deadlock: {e}"),
    }
}

/// Picks the cheapest (algorithm, protocol, channels) for an AllReduce
/// of `bytes` from `costs.tuning`, by simulating every candidate on
/// `topo`/`ring`. Ties keep the earliest candidate in
/// [`crate::TuningSpace::candidates`] order, so selection is
/// deterministic.
///
/// # Errors
///
/// [`CommError::EmptyTuningSpace`] if the space has no candidate (no
/// algorithm, protocol or channel count of at least 1), and
/// [`CommError::ArithmeticOverflow`] from a candidate emission.
pub fn choose_all_reduce(
    topo: &Topology,
    ring: &Ring,
    bytes: u64,
    costs: &NcclCosts,
) -> Result<Selection, CommError> {
    choose(topo, ring, bytes, costs, Op::AllReduce, None)
}

/// Picks the cheapest (protocol, channels) ring Broadcast of `bytes`.
/// Broadcast is always ring-shaped, so the tuning space's algorithm
/// axis collapses to [`Algorithm::Ring`].
///
/// # Errors
///
/// [`CommError::EmptyTuningSpace`] if the space has no protocol or no
/// channel count of at least 1, and
/// [`CommError::ArithmeticOverflow`] from a candidate emission.
pub fn choose_broadcast(
    topo: &Topology,
    ring: &Ring,
    bytes: u64,
    costs: &NcclCosts,
) -> Result<Selection, CommError> {
    choose(topo, ring, bytes, costs, Op::Broadcast, None)
}

fn choose(
    topo: &Topology,
    ring: &Ring,
    bytes: u64,
    costs: &NcclCosts,
    op: Op,
    memo: Option<&TunerMemo>,
) -> Result<Selection, CommError> {
    // Broadcast collapses the algorithm axis: a tree broadcast
    // candidate would emit the same ring graph as its ring twin, so
    // only protocol x channels is searched.
    let candidates: Vec<Selection> = match op {
        Op::AllReduce => costs.tuning.candidates().collect(),
        Op::Broadcast => costs
            .tuning
            .protocols
            .iter()
            .flat_map(|&protocol| {
                costs
                    .tuning
                    .channels
                    .iter()
                    .filter(|&&c| c >= 1)
                    .map(move |&channels| Selection {
                        algorithm: Algorithm::Ring,
                        protocol,
                        channels,
                    })
            })
            .collect(),
    };
    match candidates[..] {
        [] => {
            return Err(CommError::EmptyTuningSpace {
                value: format!("{:?}", costs.tuning),
            })
        }
        // The calibrated singleton (and any env-pinned single choice)
        // skips simulation entirely, memo included.
        [only] => return Ok(only),
        _ => {}
    }
    let key = (bytes, op);
    if let Some(sel) = memo.and_then(|m| m.get(topo, ring, costs, key)) {
        return Ok(sel);
    }
    let mut best = candidates[0];
    let mut best_cost = predict(topo, ring, bytes, costs, &best, op)?;
    for sel in &candidates[1..] {
        let cost = predict(topo, ring, bytes, costs, sel, op)?;
        if cost < best_cost {
            best = *sel;
            best_cost = cost;
        }
    }
    if let Some(memo) = memo {
        memo.insert(topo, ring, costs, key, best);
    }
    Ok(best)
}

/// Counters of a [`TunerMemo`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TunerStats {
    /// Tuning decisions asked of the memo. Singleton spaces and empty
    /// spaces return before the memo and are not counted.
    pub lookups: u64,
    /// Lookups that missed and were priced by simulating every
    /// candidate, failed attempts included.
    pub simulated: u64,
}

/// A sweep-scoped memo of tuning decisions: each distinct decision is
/// simulated once and looked up afterwards. See the
/// [module docs](self#pricing-each-decision-once) for the key and the
/// rules the memo keeps.
///
/// [`TunerMemo::new`] does not allocate; entries are shared across
/// threads behind a lock that is never held while candidates
/// simulate. Two threads missing the same key at once both simulate
/// it and store the same choice.
#[derive(Debug, Default)]
pub struct TunerMemo {
    contexts: Mutex<Vec<Context>>,
    lookups: AtomicU64,
    simulated: AtomicU64,
}

/// The part of a decision's key shared by every bucket size of one
/// epoch, with the choices made under it by (bytes, collective).
#[derive(Debug)]
struct Context {
    topo: Topology,
    ring: Ring,
    costs: NcclCosts,
    choices: HashMap<(u64, Op), Selection>,
}

impl Context {
    fn matches(&self, topo: &Topology, ring: &Ring, costs: &NcclCosts) -> bool {
        self.ring == *ring && self.costs == *costs && self.topo.same_wiring(topo)
    }
}

impl TunerMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// [`choose_all_reduce`], simulating only on a miss.
    ///
    /// # Errors
    ///
    /// As [`choose_all_reduce`]; a failed choice leaves no entry.
    pub fn choose_all_reduce(
        &self,
        topo: &Topology,
        ring: &Ring,
        bytes: u64,
        costs: &NcclCosts,
    ) -> Result<Selection, CommError> {
        choose(topo, ring, bytes, costs, Op::AllReduce, Some(self))
    }

    /// [`choose_broadcast`], simulating only on a miss.
    ///
    /// # Errors
    ///
    /// As [`choose_broadcast`]; a failed choice leaves no entry.
    pub fn choose_broadcast(
        &self,
        topo: &Topology,
        ring: &Ring,
        bytes: u64,
        costs: &NcclCosts,
    ) -> Result<Selection, CommError> {
        choose(topo, ring, bytes, costs, Op::Broadcast, Some(self))
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> TunerStats {
        TunerStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            simulated: self.simulated.load(Ordering::Relaxed),
        }
    }

    fn get(
        &self,
        topo: &Topology,
        ring: &Ring,
        costs: &NcclCosts,
        key: (u64, Op),
    ) -> Option<Selection> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let hit = self
            .lock()
            .iter()
            .find(|c| c.matches(topo, ring, costs))
            .and_then(|c| c.choices.get(&key).copied());
        if hit.is_none() {
            // The caller simulates every candidate next.
            self.simulated.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    fn insert(
        &self,
        topo: &Topology,
        ring: &Ring,
        costs: &NcclCosts,
        key: (u64, Op),
        sel: Selection,
    ) {
        let mut contexts = self.lock();
        match contexts.iter_mut().find(|c| c.matches(topo, ring, costs)) {
            Some(context) => {
                context.choices.insert(key, sel);
            }
            None => contexts.push(Context {
                topo: topo.clone(),
                ring: ring.clone(),
                costs: costs.clone(),
                choices: HashMap::from([(key, sel)]),
            }),
        }
    }

    /// Recovers from poisoning: no code panics while holding the lock,
    /// and every entry is a finished choice.
    fn lock(&self) -> MutexGuard<'_, Vec<Context>> {
        self.contexts.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{BandwidthEfficiency, Protocol, TuningSpace};
    use voltascope_topo::{dgx1_v100, Device, FaultSpec, Link};

    fn modern_costs() -> NcclCosts {
        NcclCosts {
            tuning: TuningSpace::modern(),
            ..NcclCosts::default()
        }
    }

    /// `base` rebuilt link by link under `name`, with `edit` applied to
    /// the link at index 0.
    fn rebuilt(base: &Topology, name: &str, edit: impl Fn(&mut Link)) -> Topology {
        let mut t = Topology::new(name);
        for &d in base.devices() {
            t.add_device(d);
        }
        t.set_gpus_forward(base.gpus_forward());
        for (i, link) in base.links().iter().enumerate() {
            let mut link = link.clone();
            if i == 0 {
                edit(&mut link);
            }
            t.connect_custom(link);
        }
        t
    }

    #[test]
    fn empty_tuning_space_is_a_typed_error() {
        let topo = dgx1_v100();
        let ring = Ring::build(&topo, 2);
        let no_algorithms = NcclCosts {
            tuning: TuningSpace {
                algorithms: vec![],
                ..TuningSpace::modern()
            },
            ..NcclCosts::default()
        };
        assert!(matches!(
            choose_all_reduce(&topo, &ring, 1 << 20, &no_algorithms),
            Err(CommError::EmptyTuningSpace { .. })
        ));
        // Broadcast has no algorithm axis, so it still has candidates.
        assert!(choose_broadcast(&topo, &ring, 1 << 20, &no_algorithms).is_ok());
        let no_channels = NcclCosts {
            tuning: TuningSpace {
                channels: vec![0],
                ..TuningSpace::modern()
            },
            ..NcclCosts::default()
        };
        for result in [
            choose_all_reduce(&topo, &ring, 1 << 20, &no_channels),
            choose_broadcast(&topo, &ring, 1 << 20, &no_channels),
        ] {
            let err = result.unwrap_err();
            assert!(matches!(err, CommError::EmptyTuningSpace { .. }), "{err}");
            assert!(err.to_string().contains("channels: [0]"), "{err}");
        }
    }

    #[test]
    fn failed_choices_leave_no_memo_entry() {
        let topo = dgx1_v100();
        let ring = Ring::build(&topo, 8);
        let memo = TunerMemo::new();
        let empty = NcclCosts {
            tuning: TuningSpace {
                channels: vec![0],
                ..TuningSpace::modern()
            },
            ..NcclCosts::default()
        };
        for _ in 0..2 {
            assert!(memo.choose_all_reduce(&topo, &ring, 64, &empty).is_err());
            assert!(memo.choose_broadcast(&topo, &ring, 64, &empty).is_err());
        }
        assert_eq!(
            memo.stats(),
            TunerStats::default(),
            "empty spaces skip the memo"
        );
        // u64::MAX bytes overflow the ring's per-link volume on the
        // first candidate: every attempt misses and simulates again.
        for attempt in 1..=2 {
            let err = memo
                .choose_all_reduce(&topo, &ring, u64::MAX, &modern_costs())
                .unwrap_err();
            assert!(matches!(err, CommError::ArithmeticOverflow { .. }), "{err}");
            assert_eq!(
                memo.stats(),
                TunerStats {
                    lookups: attempt,
                    simulated: attempt
                }
            );
        }
    }

    #[test]
    fn memo_key_ignores_the_name_and_nothing_else() {
        let g = Device::gpu;
        let topo = dgx1_v100();
        let ring = Ring::build(&topo, 4);
        // A two-candidate space keeps each simulated decision cheap.
        let costs = NcclCosts {
            tuning: TuningSpace {
                algorithms: vec![Algorithm::Ring],
                protocols: vec![Protocol::Ll, Protocol::Simple],
                channels: vec![1],
            },
            ..NcclCosts::default()
        };
        let bytes = 1 << 16;
        let memo = TunerMemo::new();
        let ask = |topo: &Topology, ring: &Ring, bytes: u64, costs: &NcclCosts| {
            let sel = memo.choose_all_reduce(topo, ring, bytes, costs).unwrap();
            assert_eq!(sel, choose_all_reduce(topo, ring, bytes, costs).unwrap());
            memo.stats().simulated
        };
        assert_eq!(ask(&topo, &ring, bytes, &costs), 1);

        // Same wiring under another name: both a straggler-only fault
        // and a link-by-link rebuild hit.
        let straggler = topo.apply(&FaultSpec::new().slow_gpu(g(3), 1.5));
        assert_ne!(straggler.name(), topo.name());
        assert_eq!(ask(&straggler, &ring, bytes, &costs), 1);
        assert_eq!(
            ask(&rebuilt(&topo, "renamed", |_| {}), &ring, bytes, &costs),
            1
        );

        // Anything else misses.
        let mut misses = 1u64;
        let mut expect_miss = |topo: &Topology, ring: &Ring, bytes: u64, costs: &NcclCosts| {
            misses += 1;
            assert_eq!(ask(topo, ring, bytes, costs), misses);
        };
        let slower = rebuilt(&topo, topo.name(), |l| {
            l.bandwidth =
                voltascope_topo::Bandwidth::bytes_per_sec(l.bandwidth.as_bytes_per_sec() / 2.0)
        });
        expect_miss(&slower, &ring, bytes, &costs);
        let later = rebuilt(&topo, topo.name(), |l| l.latency += SimSpan::from_nanos(1));
        expect_miss(&later, &ring, bytes, &costs);
        let mut forwarding = topo.clone();
        forwarding.set_gpus_forward(true);
        expect_miss(&forwarding, &ring, bytes, &costs);
        // A ring renegotiated around one of its own cables, priced on
        // the healthy wiring: only the order differs.
        let (a, b) = ring.hops()[0];
        let rerouted = Ring::build(&topo.apply(&FaultSpec::new().kill_link(a, b)), 4);
        assert_ne!(rerouted, ring);
        expect_miss(&topo, &rerouted, bytes, &costs);
        expect_miss(&topo, &ring, bytes + 1, &costs);
        let tweaks: [&dyn Fn(&mut NcclCosts); 7] = [
            &|c| c.kernel_overhead += SimSpan::from_nanos(1),
            &|c| c.epoch_setup += SimSpan::from_nanos(1),
            &|c| c.step_overhead += SimSpan::from_nanos(1),
            &|c| c.bandwidth_efficiency = BandwidthEfficiency::new(0.5).unwrap(),
            &|c| c.group_call_overhead += SimSpan::from_nanos(1),
            &|c| c.tuning.protocols.reverse(),
            &|c| c.chunking = !c.chunking,
        ];
        for tweak in tweaks {
            let mut changed = costs.clone();
            tweak(&mut changed);
            assert_ne!(changed, costs);
            expect_miss(&topo, &ring, bytes, &changed);
        }
        // The collective is part of the key too.
        memo.choose_broadcast(&topo, &ring, bytes, &costs).unwrap();
        // Two hits, then every lookup missed.
        assert_eq!(
            memo.stats(),
            TunerStats {
                lookups: misses + 3,
                simulated: misses + 1
            }
        );
    }

    #[test]
    fn paper_space_short_circuits_to_the_calibrated_choice() {
        let topo = dgx1_v100();
        let ring = Ring::build(&topo, 8);
        let costs = NcclCosts {
            tuning: TuningSpace::paper(),
            ..NcclCosts::default()
        };
        for bytes in [1u64, 4 << 10, 256 << 20] {
            assert_eq!(
                choose_all_reduce(&topo, &ring, bytes, &costs).unwrap(),
                Selection::PAPER
            );
            assert_eq!(
                choose_broadcast(&topo, &ring, bytes, &costs).unwrap(),
                Selection::PAPER
            );
        }
    }

    #[test]
    fn modern_space_crosses_from_latency_to_bandwidth_choices() {
        let topo = dgx1_v100();
        let ring = Ring::build(&topo, 8);
        let costs = modern_costs();
        let small = choose_all_reduce(&topo, &ring, 4 << 10, &costs).unwrap();
        let large = choose_all_reduce(&topo, &ring, 256 << 20, &costs).unwrap();
        assert_eq!(small.protocol, Protocol::Ll, "4 KB should pick LL");
        assert_eq!(
            small.algorithm,
            Algorithm::Tree,
            "4 KB should pick the tree"
        );
        assert_eq!(
            large.protocol,
            Protocol::Simple,
            "256 MB should pick Simple"
        );
        assert_eq!(large.algorithm, Algorithm::Ring, "256 MB should ring");
    }

    #[test]
    fn broadcast_candidates_collapse_to_rings() {
        let topo = dgx1_v100();
        let ring = Ring::build(&topo, 8);
        let costs = modern_costs();
        for bytes in [4u64 << 10, 1 << 20, 64 << 20] {
            let sel = choose_broadcast(&topo, &ring, bytes, &costs).unwrap();
            assert_eq!(sel.algorithm, Algorithm::Ring);
        }
    }
}

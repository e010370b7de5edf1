//! Property tests of the NCCL auto-tuner: the chosen candidate is
//! never beaten by an unchosen one at any swept size, selection is
//! deterministic (and a shared memo never disagrees with a fresh
//! choice), tuned cost is monotone in payload, and tuning on a
//! degraded topology never routes a collective through a killed link.

use proptest::prelude::*;
use voltascope_comm::tuner::TunerMemo;
use voltascope_comm::{collective, tuner, Ring, Selection, TuningSpace};
use voltascope_sim::SimSpan;
use voltascope_topo::{dgx1_v100, Device, FaultSpec, LinkKind, Topology};

fn modern_costs() -> collective::NcclCosts {
    collective::NcclCosts {
        tuning: TuningSpace::modern(),
        ..collective::NcclCosts::default()
    }
}

/// Healthy DGX-1 plus the two canned degraded variants, with the links
/// each fault removes (as unordered GPU pairs) for route checks.
fn scenarios() -> Vec<(Topology, Vec<(Device, Device)>)> {
    let base = dgx1_v100();
    let g = Device::gpu;
    let dead_cable = base.apply(&FaultSpec::new().kill_link(g(3), g(5)));
    let dead_iface = base.apply(&FaultSpec::new().kill_nvlinks_of(g(3)));
    let iface_pairs: Vec<(Device, Device)> =
        (0..8).filter(|&o| o != 3).map(|o| (g(3), g(o))).collect();
    vec![
        (base, Vec::new()),
        (dead_cable, vec![(g(3), g(5))]),
        (dead_iface, iface_pairs),
    ]
}

/// A fault spec on the DGX-1 from generated parameters: the NVLink
/// cable at index `kill` dies and the one at `degrade` runs at
/// `factor` of its bandwidth (an index past the last cable means no
/// such fault), and every surviving link gains `jitter_ns` of latency.
fn faulted(kill: usize, degrade: usize, factor: f64, jitter_ns: u64) -> Topology {
    let base = dgx1_v100();
    let cables: Vec<(Device, Device)> = base
        .links()
        .iter()
        .filter(|l| matches!(l.kind, LinkKind::NvLink { .. }))
        .map(|l| (l.a, l.b))
        .collect();
    let mut spec = FaultSpec::new().link_jitter(SimSpan::from_nanos(jitter_ns));
    if let Some(&(a, b)) = cables.get(kill) {
        spec = spec.kill_link(a, b);
    }
    if let Some(&(a, b)) = cables.get(degrade).filter(|_| degrade != kill) {
        spec = spec.degrade_link(a, b, factor);
    }
    base.apply(&spec)
}

/// The non-empty sub-space of [`TuningSpace::modern`] whose axes keep
/// the entries selected by the low bits of each mask.
fn sub_space((algorithms, protocols, channels): (u8, u8, u8)) -> TuningSpace {
    fn pick<T: Copy>(all: &[T], mask: u8) -> Vec<T> {
        let kept: Vec<T> = (0..all.len())
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| all[i])
            .collect();
        assert!(!kept.is_empty(), "mask {mask:#b} keeps nothing");
        kept
    }
    let modern = TuningSpace::modern();
    TuningSpace {
        algorithms: pick(&modern.algorithms, algorithms),
        protocols: pick(&modern.protocols, protocols),
        channels: pick(&modern.channels, channels),
    }
}

/// Whether two topologies are wired alike, from their public parts
/// (adjacency follows from the devices and links), independently of
/// the comparison the memo uses.
fn wired_alike(a: &Topology, b: &Topology) -> bool {
    a.devices() == b.devices() && a.links() == b.links() && a.gpus_forward() == b.gpus_forward()
}

/// Whether the tuner answers `space` without simulating: one
/// candidate for the collective (broadcast ignores the algorithm axis).
fn is_singleton(space: &TuningSpace, all_reduce: bool) -> bool {
    if all_reduce {
        space.singleton().is_some()
    } else {
        space.protocols.len() * space.channels.len() == 1
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tuner's pick is an argmin: no candidate in the space
    /// predicts cheaper than the chosen selection, for AllReduce and
    /// Broadcast, on healthy and degraded topologies alike.
    #[test]
    fn chosen_selection_is_never_beaten(bytes in 1u64..(1 << 24)) {
        let costs = modern_costs();
        for (topo, _) in scenarios() {
            let ring = Ring::build(&topo, 8);
            let ar = tuner::choose_all_reduce(&topo, &ring, bytes, &costs).unwrap();
            let best = tuner::predict_all_reduce(&topo, &ring, bytes, &costs, &ar).unwrap();
            for rival in costs.tuning.candidates() {
                let t = tuner::predict_all_reduce(&topo, &ring, bytes, &costs, &rival).unwrap();
                prop_assert!(
                    t >= best,
                    "{}: {rival} predicts {t} < chosen {ar} at {best} ({bytes} bytes)",
                    topo.name()
                );
            }
            let bc = tuner::choose_broadcast(&topo, &ring, bytes, &costs).unwrap();
            let best = tuner::predict_broadcast(&topo, &ring, bytes, &costs, &bc).unwrap();
            for rival in costs.tuning.candidates() {
                let rival = Selection {
                    algorithm: voltascope_comm::Algorithm::Ring,
                    ..rival
                };
                let t = tuner::predict_broadcast(&topo, &ring, bytes, &costs, &rival).unwrap();
                prop_assert!(
                    t >= best,
                    "{}: broadcast {rival} predicts {t} < chosen {bc} at {best} ({bytes} bytes)",
                    topo.name()
                );
            }
        }
    }

    /// Selection is a pure function of its inputs: re-tuning returns
    /// the identical candidate, so emission is reproducible — and one
    /// memo shared by every query, asked in random order, answers
    /// exactly what a fresh choice does, simulating each distinct key
    /// once. Topologies carry dead, degraded and jittered links (plus
    /// a straggler-only twin of the healthy box, which renames it
    /// without touching a link); sizes include 0 and 1; spaces are
    /// random non-empty sub-spaces of the modern space.
    #[test]
    fn selection_is_deterministic(
        faults in proptest::collection::vec((0usize..32, 0usize..32, 0.25f64..=1.0, 0u64..3), 2),
        sizes in proptest::collection::vec(2u64..(1 << 26), 2),
        masks in proptest::collection::vec((1u8..4, 1u8..8, 1u8..8), 2),
        queries in proptest::collection::vec(
            (0usize..4, 0usize..4, 0usize..2, proptest::bool::ANY),
            6..20,
        ),
    ) {
        let healthy = dgx1_v100();
        let straggler = healthy.apply(&FaultSpec::new().slow_gpu(Device::gpu(3), 1.5));
        let mut topos = vec![healthy, straggler];
        topos.extend(faults.iter().map(|&(kill, degrade, factor, jitter)| {
            faulted(kill, degrade, factor, jitter * 100)
        }));
        let rings: Vec<Ring> = topos.iter().map(|t| Ring::build(t, 8)).collect();
        let sizes = [0, 1, sizes[0], sizes[1]];
        let all_costs: Vec<collective::NcclCosts> = masks
            .iter()
            .map(|&m| collective::NcclCosts {
                tuning: sub_space(m),
                ..collective::NcclCosts::default()
            })
            .collect();
        let memo = TunerMemo::new();
        let mut keys: Vec<(usize, usize, usize, bool)> = Vec::new();
        let mut lookups = 0;
        for &(t, b, c, all_reduce) in &queries {
            let (topo, ring, bytes, costs) = (&topos[t], &rings[t], sizes[b], &all_costs[c]);
            let (fresh, again, memoised) = if all_reduce {
                (
                    tuner::choose_all_reduce(topo, ring, bytes, costs).unwrap(),
                    tuner::choose_all_reduce(topo, ring, bytes, costs).unwrap(),
                    memo.choose_all_reduce(topo, ring, bytes, costs).unwrap(),
                )
            } else {
                (
                    tuner::choose_broadcast(topo, ring, bytes, costs).unwrap(),
                    tuner::choose_broadcast(topo, ring, bytes, costs).unwrap(),
                    memo.choose_broadcast(topo, ring, bytes, costs).unwrap(),
                )
            };
            prop_assert_eq!(fresh, again, "{}: re-tuning flipped the choice", topo.name());
            prop_assert_eq!(
                memoised, fresh,
                "{}: memo disagrees at {} bytes (all-reduce: {})",
                topo.name(), bytes, all_reduce
            );
            if is_singleton(&costs.tuning, all_reduce) {
                continue;
            }
            lookups += 1;
            // The memo's key, rebuilt from representatives: wiring,
            // ring, every cost field, bytes and collective.
            let same = |&(t2, b2, c2, ar2): &(usize, usize, usize, bool)| {
                wired_alike(&topos[t2], topo)
                    && rings[t2] == *ring
                    && sizes[b2] == bytes
                    && all_costs[c2] == *costs
                    && ar2 == all_reduce
            };
            if !keys.iter().any(same) {
                keys.push((t, b, c, all_reduce));
            }
        }
        let stats = memo.stats();
        prop_assert_eq!(stats.lookups, lookups);
        prop_assert_eq!(stats.simulated, keys.len() as u64, "one simulation per distinct key");
    }

    /// More bytes can never make the *tuned* AllReduce faster: the
    /// minimum over per-candidate monotone cost curves is monotone,
    /// even where the winning candidate flips.
    #[test]
    fn tuned_cost_is_monotone_in_payload(
        small in 1u64..(1 << 24),
        extra in 0u64..(1 << 24),
    ) {
        let costs = modern_costs();
        for (topo, _) in scenarios() {
            let ring = Ring::build(&topo, 8);
            let pick_lo = tuner::choose_all_reduce(&topo, &ring, small, &costs).unwrap();
            let lo = tuner::predict_all_reduce(&topo, &ring, small, &costs, &pick_lo).unwrap();
            let pick_hi =
                tuner::choose_all_reduce(&topo, &ring, small + extra, &costs).unwrap();
            let hi =
                tuner::predict_all_reduce(&topo, &ring, small + extra, &costs, &pick_hi).unwrap();
            prop_assert!(
                hi >= lo,
                "{}: {small} -> {} bytes shrank tuned cost {lo} -> {hi} ({pick_lo} -> {pick_hi})",
                topo.name(),
                small + extra
            );
        }
    }

    /// On a degraded topology, no tuned candidate can cross a killed
    /// link: the fault removes it from the graph, so any ring hop that
    /// coincides with a killed pair has no direct link left and must
    /// renegotiate onto a live host route — and when an all-NVLink
    /// cycle still exists (one dead cable), the ring avoids the dead
    /// pair entirely. The tuner's pick still completes on the faulted
    /// fabric (the predict simulation is the proof).
    #[test]
    fn degraded_tuning_avoids_killed_links(bytes in 1u64..(1 << 24)) {
        let costs = modern_costs();
        for (topo, dead) in scenarios() {
            let ring = Ring::build(&topo, 8);
            for (a, b) in ring.hops() {
                for &(x, y) in &dead {
                    if (a, b) == (x, y) || (a, b) == (y, x) {
                        prop_assert!(
                            topo.direct_link(a, b).is_none(),
                            "{}: killed link {x}<->{y} still directly usable",
                            topo.name()
                        );
                    }
                }
            }
            if dead.len() == 1 {
                // One dead cable leaves an NVLink Hamiltonian cycle;
                // the renegotiated ring must route around the fault.
                let (x, y) = dead[0];
                prop_assert!(ring.all_nvlink(&topo), "{}: ring left NVLink", topo.name());
                prop_assert!(
                    !ring.hops().contains(&(x, y)) && !ring.hops().contains(&(y, x)),
                    "{}: ring kept hopping the dead {x}<->{y} cable",
                    topo.name()
                );
            }
            let sel = tuner::choose_all_reduce(&topo, &ring, bytes, &costs).unwrap();
            let t = tuner::predict_all_reduce(&topo, &ring, bytes, &costs, &sel).unwrap();
            prop_assert!(t.as_secs_f64() > 0.0, "{}: degraded tuned AllReduce stalled", topo.name());
        }
    }
}

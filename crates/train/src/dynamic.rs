//! Mid-epoch dynamic topology faults.
//!
//! [`crate::SystemModel::with_faults`] models a fault that exists for
//! the *whole* epoch: the topology is rewired before lowering, NCCL
//! rings renegotiate around the damage, and every iteration pays the
//! degraded price. Real failures strike *during* training — an NVLink
//! brick drops mid-epoch, a GPU starts throttling — and the iterations
//! already in flight cannot renegotiate: queued transfers on the dead
//! link fall back to host-bounced PCIe routes, in-flight kernels on a
//! throttled GPU finish at the reduced clock.
//!
//! This module prices that transition. A [`MidEpochFault`] names a
//! [`FaultSpec`] and the epoch fraction at which it strikes;
//! [`simulate_epoch_dynamic`] composes three engine runs into a
//! piecewise epoch:
//!
//! 1. the healthy lowering (iterations before the fault),
//! 2. a *transition* run of the healthy graph with the fault lowered
//!    to engine [`DynamicEvent`]s firing mid-iteration — dead links
//!    preempt and re-route their traffic, stragglers rescale their
//!    remaining kernels ([`lower_fault_events`]),
//! 3. the statically degraded lowering (iterations after the fault,
//!    once NCCL has rebuilt its communicator against the damaged
//!    topology the way [`Topology::apply`] models).
//!
//! The transition run re-routes dead-link traffic onto the first
//! PCIe leg of the host-bounced route and stretches the remaining
//! duration by the route's store-and-forward serialisation ratio
//! (`bw_direct x sum(1/bw_hop)`). That single-resource approximation
//! prices the route's full serialisation cost while contending only on
//! the source GPU's PCIe uplink — a deliberate simplification of the
//! multi-leg occupancy the static lowering models, acceptable for the
//! one transition iteration it is applied to.

use voltascope_comm::tuner::TunerMemo;
use voltascope_dnn::Model;
use voltascope_sim::{DynamicEvent, DynamicEventKind, ResourceId, SimSpan, SimTime, TaskGraph};
use voltascope_topo::{FaultSpec, Link, Topology};
use voltascope_workload::{lower_model, LoweredWorkload};

use crate::epoch::{
    simulate_epoch_lowered_memo, simulate_epoch_lowered_with_events, EpochReport, SystemModel,
    TrainConfig,
};

/// A fault that strikes partway through an epoch.
#[derive(Debug, Clone)]
pub struct MidEpochFault {
    /// What breaks.
    pub spec: FaultSpec,
    /// When it breaks, as a fraction of the epoch's iterations in
    /// `[0, 1]`: `0.0` degrades the whole epoch (equivalent to a
    /// construction-time fault), `>= 1.0` leaves it healthy.
    pub at_fraction: f64,
}

impl MidEpochFault {
    /// A fault striking at `at_fraction` of the epoch.
    ///
    /// # Panics
    ///
    /// Panics unless `at_fraction` is finite and non-negative.
    pub fn new(spec: FaultSpec, at_fraction: f64) -> Self {
        assert!(
            at_fraction.is_finite() && at_fraction >= 0.0,
            "fault fraction {at_fraction} must be finite and non-negative"
        );
        MidEpochFault { spec, at_fraction }
    }
}

/// The piecewise epoch of a [`MidEpochFault`].
#[derive(Debug, Clone)]
pub struct DynamicEpochReport {
    /// The healthy lowering (pre-fault iterations).
    pub healthy: EpochReport,
    /// The statically degraded lowering (post-fault iterations).
    pub degraded: EpochReport,
    /// Duration of the iteration the fault strikes in: the healthy
    /// schedule preempted mid-flight, traffic re-routed by the engine's
    /// dynamic-event machinery.
    pub transition_iter: SimSpan,
    /// The (0-based) iteration the fault strikes in; `iterations` or
    /// more means it never fires.
    pub fault_iteration: u64,
    /// The composed epoch duration.
    pub epoch_time: SimSpan,
}

/// Lowers `spec` to engine [`DynamicEvent`]s firing at `at` against a
/// task graph whose resources follow the epoch lowering's naming
/// (`link.{a}>{b}` per direction, `{gpu}.compute` per device):
///
/// * each killed direct link becomes two per-direction
///   [`DynamicEventKind::Fail`] events whose fallback is the first leg
///   of the degraded topology's route and whose `duration_factor` is
///   the store-and-forward serialisation ratio of that route;
/// * each degraded link becomes two per-direction
///   [`DynamicEventKind::Scale`] events stretching remaining transfers
///   by the inverse bandwidth factor;
/// * each straggler GPU becomes a [`DynamicEventKind::Scale`] on its
///   compute resource.
///
/// Resources the graph does not define (links outside the simulated
/// GPU set) are skipped — their traffic does not exist. Link jitter
/// has no mid-epoch lowering (it is a per-link latency constant, not a
/// resource mutation) and is ignored here.
///
/// # Panics
///
/// Panics if `spec` is invalid for `topo` (same validation as
/// [`Topology::apply`]).
pub fn lower_fault_events(
    graph: &TaskGraph,
    topo: &Topology,
    spec: &FaultSpec,
    at: SimTime,
) -> Vec<DynamicEvent> {
    let resource_of = |name: &str| -> Option<ResourceId> {
        graph
            .resources()
            .find(|(_, r)| r.name == name)
            .map(|(id, _)| id)
    };
    // Validates the spec and yields the renegotiated routes the
    // fallback traffic follows.
    let degraded = topo.apply(spec);
    let pair_eq = |l: &Link, a, b| (l.a == a && l.b == b) || (l.a == b && l.b == a);
    let mut events = Vec::new();
    for link in topo.links() {
        let killed = spec
            .dead_link_pairs()
            .iter()
            .any(|&(a, b)| pair_eq(link, a, b))
            || (link.kind.is_nvlink()
                && spec
                    .dead_nvlink_devices()
                    .iter()
                    .any(|&g| link.a == g || link.b == g));
        if killed {
            for (from, to) in [(link.a, link.b), (link.b, link.a)] {
                let Some(res) = resource_of(&format!("link.{from}>{to}")) else {
                    continue;
                };
                let route = degraded.route(from, to);
                let fallback = route.hops().first().and_then(|h| {
                    let l = degraded.link(h.link);
                    let other = if l.a == h.from { l.b } else { l.a };
                    resource_of(&format!("link.{}>{other}", h.from))
                });
                let inv_bw: f64 = route
                    .hops()
                    .iter()
                    .map(|h| 1.0 / h.bandwidth.as_bytes_per_sec())
                    .sum();
                let duration_factor = link.bandwidth.as_bytes_per_sec() * inv_bw;
                events.push(DynamicEvent {
                    at,
                    kind: DynamicEventKind::Fail {
                        resource: res,
                        fallback,
                        duration_factor,
                    },
                });
            }
            continue;
        }
        let slow: f64 = spec
            .degraded_link_factors()
            .iter()
            .filter(|&&(a, b, _)| pair_eq(link, a, b))
            .map(|&(_, _, f)| f)
            .product();
        if slow < 1.0 {
            for (from, to) in [(link.a, link.b), (link.b, link.a)] {
                if let Some(res) = resource_of(&format!("link.{from}>{to}")) {
                    events.push(DynamicEvent {
                        at,
                        kind: DynamicEventKind::Scale {
                            resource: res,
                            factor: 1.0 / slow,
                        },
                    });
                }
            }
        }
    }
    for (&gpu, &factor) in spec.gpu_slowdowns() {
        if let Some(res) = resource_of(&format!("{gpu}.compute")) {
            events.push(DynamicEvent {
                at,
                kind: DynamicEventKind::Scale {
                    resource: res,
                    factor,
                },
            });
        }
    }
    events
}

/// Simulates an epoch through which `fault` strikes mid-way. See the
/// module docs for the three-piece composition.
///
/// # Panics
///
/// As [`crate::simulate_epoch`], plus the fault-spec validation of
/// [`Topology::apply`].
pub fn simulate_epoch_dynamic(
    sys: &SystemModel,
    model: &Model,
    cfg: &TrainConfig,
    fault: &MidEpochFault,
) -> DynamicEpochReport {
    let lowered = lower_model(model, cfg.batch_per_gpu).unwrap_or_else(|e| panic!("{e}"));
    simulate_epoch_dynamic_lowered(sys, &lowered, cfg, fault)
}

/// [`simulate_epoch_dynamic`] from an already-lowered workload. Its
/// three engine runs share one call-local [`TunerMemo`], so the
/// transition run reuses the healthy run's tuning decisions.
///
/// # Panics
///
/// As [`simulate_epoch_dynamic`].
pub fn simulate_epoch_dynamic_lowered(
    sys: &SystemModel,
    workload: &LoweredWorkload,
    cfg: &TrainConfig,
    fault: &MidEpochFault,
) -> DynamicEpochReport {
    simulate_epoch_dynamic_lowered_memo(sys, workload, cfg, fault, &TunerMemo::new())
}

/// [`simulate_epoch_dynamic_lowered`] with its NCCL tuning decisions
/// priced through a caller-owned `tuner`, shared with whatever else
/// the caller simulates.
///
/// # Panics
///
/// As [`simulate_epoch_dynamic`].
pub fn simulate_epoch_dynamic_lowered_memo(
    sys: &SystemModel,
    workload: &LoweredWorkload,
    cfg: &TrainConfig,
    fault: &MidEpochFault,
    tuner: &TunerMemo,
) -> DynamicEpochReport {
    let healthy = simulate_epoch_lowered_memo(sys, workload, cfg, tuner);
    let degraded_sys = sys.with_faults(&fault.spec);
    let degraded = simulate_epoch_lowered_memo(&degraded_sys, workload, cfg, tuner);
    let n = healthy.iterations;
    // The iteration the fault strikes in; saturates at `n` (never
    // fires). f64->u64 is exact here: `at_fraction` is validated
    // non-negative and `n` is far below 2^53.
    let fault_iteration = ((fault.at_fraction * n as f64).floor() as u64).min(n);

    if fault_iteration >= n || fault.spec.is_healthy() {
        // Strikes at or after the last iteration completes: healthy
        // epoch, and the "transition" iteration is an ordinary one.
        return DynamicEpochReport {
            transition_iter: healthy.iter_time,
            fault_iteration,
            epoch_time: healthy.epoch_time,
            healthy,
            degraded,
        };
    }
    if fault_iteration == 0 {
        // Broken from the start: identical to a construction-time
        // fault, where the communicator is built against the damaged
        // topology and no transition is ever paid.
        return DynamicEpochReport {
            transition_iter: degraded.iter_time,
            fault_iteration,
            epoch_time: degraded.epoch_time,
            healthy,
            degraded,
        };
    }

    // Transition run: the *healthy* lowering, with the fault's dynamic
    // events firing halfway through the middle (steady-state)
    // iteration of the three-iteration pipeline. The fill `t0` and the
    // pre-fault half of iteration 1 replay the healthy schedule
    // exactly (the engine's event machinery is inert until `at`), so
    // `t1' - t0` prices one iteration that starts healthy and ends
    // re-routed.
    let fill = healthy
        .epoch_time
        .saturating_sub(healthy.iter_time * n.saturating_sub(1));
    let at = SimTime::ZERO + fill + healthy.iter_time / 2;
    let (_, [t0, t1, _]) = simulate_epoch_lowered_with_events(sys, workload, cfg, tuner, |graph| {
        lower_fault_events(graph, &sys.topo, &fault.spec, at)
    });
    let transition_iter = t1 - t0;
    debug_assert_eq!(t0 - SimTime::ZERO, fill, "pre-fault fill must replay");

    // Piecewise epoch: healthy fill + (k-1) healthy steady iterations
    // + the transition iteration + the remaining iterations at the
    // renegotiated (statically degraded) pace.
    let epoch_time = fill
        + healthy.iter_time * (fault_iteration - 1)
        + transition_iter
        + degraded.iter_time * (n - fault_iteration - 1);
    DynamicEpochReport {
        transition_iter,
        fault_iteration,
        epoch_time,
        healthy,
        degraded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voltascope_comm::CommMethod;
    use voltascope_dnn::zoo;
    use voltascope_topo::Device;

    use crate::dataset::{DatasetSpec, ScalingMode};

    fn cfg(gpus: usize) -> TrainConfig {
        TrainConfig {
            batch_per_gpu: 16,
            gpu_count: gpus,
            comm: CommMethod::Nccl,
            scaling: ScalingMode::Strong,
            dataset: DatasetSpec {
                name: "small".into(),
                images: 4096,
                classes: 10,
            },
            bucket_fusion_bytes: 0,
        }
    }

    fn dead_link() -> FaultSpec {
        FaultSpec::new().kill_link(Device::gpu(0), Device::gpu(1))
    }

    #[test]
    fn mid_epoch_dead_interface_lands_between_healthy_and_always_dead() {
        // All of GPU3's NVLink bricks die at 50%: the 8-GPU ring cannot
        // renegotiate around a whole dead interface, so the post-fault
        // iterations run at the host-bounced pace — but the pre-fault
        // half of the epoch ran healthy, so the total sits strictly
        // between the healthy and always-dead epochs.
        let sys = SystemModel::dgx1();
        let model = zoo::alexnet();
        let spec = FaultSpec::new().kill_nvlinks_of(Device::gpu(3));
        let r = simulate_epoch_dynamic(&sys, &model, &cfg(8), &MidEpochFault::new(spec, 0.5));
        assert!(
            r.degraded.epoch_time > r.healthy.epoch_time,
            "static fault was free"
        );
        assert!(
            r.epoch_time > r.healthy.epoch_time,
            "fault was free: {} vs healthy {}",
            r.epoch_time,
            r.healthy.epoch_time
        );
        assert!(
            r.epoch_time < r.degraded.epoch_time,
            "mid-epoch fault not cheaper than always-dead: {} vs {}",
            r.epoch_time,
            r.degraded.epoch_time
        );
        assert!(r.fault_iteration > 0 && r.fault_iteration < r.healthy.iterations);
    }

    #[test]
    fn tolerated_single_link_failure_costs_only_the_transition() {
        // The hybrid cube-mesh tolerates any single dead link: the
        // renegotiated 4-GPU ring is all-NVLink again and the static
        // degraded epoch matches the healthy one. The *transition*
        // iteration still pays — its in-flight ring was built over the
        // link that died, and the displaced transfers host-bounce.
        let sys = SystemModel::dgx1();
        let model = zoo::alexnet();
        let r =
            simulate_epoch_dynamic(&sys, &model, &cfg(4), &MidEpochFault::new(dead_link(), 0.5));
        assert_eq!(r.degraded.epoch_time, r.healthy.epoch_time);
        assert!(
            r.transition_iter > r.healthy.iter_time,
            "transition was free: {} vs {}",
            r.transition_iter,
            r.healthy.iter_time
        );
        let excess = r.transition_iter - r.healthy.iter_time;
        assert_eq!(r.epoch_time, r.healthy.epoch_time + excess);
    }

    #[test]
    fn fault_at_zero_equals_the_construction_time_fault() {
        let sys = SystemModel::dgx1();
        let model = zoo::alexnet();
        let r =
            simulate_epoch_dynamic(&sys, &model, &cfg(4), &MidEpochFault::new(dead_link(), 0.0));
        assert_eq!(r.fault_iteration, 0);
        assert_eq!(r.epoch_time, r.degraded.epoch_time);
    }

    #[test]
    fn fault_past_the_epoch_equals_healthy() {
        let sys = SystemModel::dgx1();
        let model = zoo::alexnet();
        let r =
            simulate_epoch_dynamic(&sys, &model, &cfg(4), &MidEpochFault::new(dead_link(), 1.0));
        assert_eq!(r.epoch_time, r.healthy.epoch_time);
    }

    #[test]
    fn healthy_spec_is_a_no_op_at_any_fraction() {
        let sys = SystemModel::dgx1();
        let model = zoo::lenet();
        let r = simulate_epoch_dynamic(
            &sys,
            &model,
            &cfg(2),
            &MidEpochFault::new(FaultSpec::new(), 0.5),
        );
        assert_eq!(r.epoch_time, r.healthy.epoch_time);
        assert_eq!(r.degraded.epoch_time, r.healthy.epoch_time);
    }

    #[test]
    fn mid_epoch_straggler_charges_the_transition_and_the_tail() {
        let sys = SystemModel::dgx1();
        let model = zoo::alexnet();
        let spec = FaultSpec::new().slow_gpu(Device::gpu(1), 1.5);
        let r = simulate_epoch_dynamic(&sys, &model, &cfg(2), &MidEpochFault::new(spec, 0.5));
        assert!(r.degraded.iter_time > r.healthy.iter_time);
        assert!(r.epoch_time > r.healthy.epoch_time);
        assert!(r.epoch_time < r.degraded.epoch_time);
        // The transition iteration starts healthy, so it costs no more
        // than a fully degraded one (and at least a healthy one).
        assert!(r.transition_iter >= r.healthy.iter_time);
        assert!(r.transition_iter <= r.degraded.iter_time + r.healthy.iter_time);
    }

    #[test]
    fn lowered_events_name_real_resources_and_directions() {
        use voltascope_comm::LinkNetwork;
        use voltascope_sim::TaskGraph;

        let sys = SystemModel::dgx1();
        let mut graph = TaskGraph::new();
        let _net = LinkNetwork::register(&mut graph, &sys.topo);
        let compute = graph.add_resource("GPU1.compute", 1);
        let spec = FaultSpec::new()
            .kill_link(Device::gpu(0), Device::gpu(1))
            .slow_gpu(Device::gpu(1), 2.0);
        let at = SimTime::from_nanos(100);
        let events = lower_fault_events(&graph, &sys.topo, &spec, at);
        // Two per-direction Fail events plus one compute Scale.
        let fails: Vec<_> = events
            .iter()
            .filter(|e| matches!(e.kind, DynamicEventKind::Fail { .. }))
            .collect();
        assert_eq!(fails.len(), 2);
        for e in &fails {
            assert_eq!(e.at, at);
            if let DynamicEventKind::Fail {
                fallback,
                duration_factor,
                ..
            } = e.kind
            {
                // GPU0-GPU1 is a 50 GB/s double NVLink; the host bounce
                // runs at PCIe pace, so re-routed remainders stretch.
                assert!(fallback.is_some());
                assert!(duration_factor > 1.0, "factor {duration_factor}");
            }
        }
        assert!(events.iter().any(|e| matches!(
            e.kind,
            DynamicEventKind::Scale { resource, factor } if resource == compute && factor == 2.0
        )));
    }

    #[test]
    fn degraded_link_lowers_to_inverse_bandwidth_scales() {
        use voltascope_comm::LinkNetwork;
        use voltascope_sim::TaskGraph;

        let sys = SystemModel::dgx1();
        let mut graph = TaskGraph::new();
        let _net = LinkNetwork::register(&mut graph, &sys.topo);
        let spec = FaultSpec::new().degrade_link(Device::gpu(0), Device::gpu(1), 0.5);
        let events = lower_fault_events(&graph, &sys.topo, &spec, SimTime::ZERO);
        assert_eq!(events.len(), 2);
        for e in events {
            assert!(matches!(
                e.kind,
                DynamicEventKind::Scale { factor, .. } if (factor - 2.0).abs() < 1e-12
            ));
        }
    }
}

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
//! [`EpochRequest::run`] with a fault composes three engine runs into
//! a piecewise epoch:
//!
//! 1. the healthy lowering (iterations before the fault),
//! 2. a *transition* run of the healthy graph with the fault lowered
//!    to engine [`DynamicEvent`]s firing mid-iteration — dead links
//!    preempt and re-route their traffic, stragglers rescale their
//!    remaining kernels ([`lower_fault_events`]),
//! 3. the statically degraded lowering (iterations after the fault,
//!    once NCCL has rebuilt its communicator against the damaged
//!    topology the way [`Topology::try_apply`] models).
//!
//! Only the degraded run derives a report, whose steady-state columns
//! the faulted epoch keeps; the healthy and transition runs yield just
//! their iteration-marker instants.
//!
//! A fault that never fires (or a healthy spec) is the healthy epoch,
//! and one that fires at iteration 0 the statically degraded epoch:
//! neither simulates the twin it does not return.
//!
//! The transition run re-routes dead-link traffic onto the first
//! PCIe leg of the host-bounced route and stretches the remaining
//! duration by the route's store-and-forward serialisation ratio
//! (`bw_direct x sum(1/bw_hop)`). That single-resource approximation
//! prices the route's full serialisation cost while contending only on
//! the source GPU's PCIe uplink — a deliberate simplification of the
//! multi-leg occupancy the static lowering models, acceptable for the
//! one transition iteration it is applied to.

use voltascope_sim::{DynamicEvent, DynamicEventKind, ResourceId, SimSpan, SimTime, TaskGraph};
use voltascope_topo::{FaultError, FaultSpec, Link, Topology};

use crate::epoch::{epoch_span, marker_instants, EpochError, EpochReport, EpochRequest};

/// A fault that strikes partway through an epoch.
#[derive(Debug, Clone)]
pub struct MidEpochFault {
    /// What breaks.
    pub spec: FaultSpec,
    /// When it breaks, as a fraction of the epoch's iterations:
    /// `0.0` degrades the whole epoch (equivalent to a
    /// construction-time fault), `>= 1.0` leaves it healthy.
    /// [`EpochRequest::run`] rejects a NaN, infinite or negative
    /// fraction.
    pub at_fraction: f64,
}

impl MidEpochFault {
    /// A fault striking at `at_fraction` of the epoch.
    pub fn new(spec: FaultSpec, at_fraction: f64) -> Self {
        MidEpochFault { spec, at_fraction }
    }
}

/// The piecewise epoch of a fault striking strictly inside the epoch.
/// [`run_faulted`] keeps `degraded` and `epoch_time`; the unit tests
/// read the rest.
#[derive(Debug, Clone)]
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) struct DynamicEpochReport {
    /// Steady-state iteration time of the healthy lowering (pre-fault
    /// iterations).
    pub(crate) healthy_iter: SimSpan,
    /// The statically degraded lowering (post-fault iterations).
    pub(crate) degraded: EpochReport,
    /// Duration of the iteration the fault strikes in: the healthy
    /// schedule preempted mid-flight, traffic re-routed by the engine's
    /// dynamic-event machinery.
    pub(crate) transition_iter: SimSpan,
    /// The composed epoch duration.
    pub(crate) epoch_time: SimSpan,
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
/// # Errors
///
/// The [`FaultError`] of [`Topology::try_apply`] when `spec` is
/// invalid for `topo`.
pub fn lower_fault_events(
    graph: &TaskGraph,
    topo: &Topology,
    spec: &FaultSpec,
    at: SimTime,
) -> Result<Vec<DynamicEvent>, FaultError> {
    let resource_of = |name: &str| -> Option<ResourceId> {
        graph
            .resources()
            .find(|(_, r)| r.name == name)
            .map(|(id, _)| id)
    };
    // Validates the spec and yields the renegotiated routes the
    // fallback traffic follows.
    let degraded = topo.try_apply(spec)?;
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
    Ok(events)
}

/// [`EpochRequest::run`] with a `fault`: the healthy report if it
/// never fires, the statically degraded one if it fires at iteration
/// 0, otherwise [`compose`]'s post-fault columns with its piecewise
/// `epoch_time`.
pub(crate) fn run_faulted(
    req: &EpochRequest<'_>,
    fault: &MidEpochFault,
) -> Result<EpochReport, EpochError> {
    if !(fault.at_fraction.is_finite() && fault.at_fraction >= 0.0) {
        return Err(EpochError::FaultFraction(fault.at_fraction));
    }
    // Validates the spec at any fraction, even one that never fires.
    let degraded_sys = req.sys.try_with_faults(&fault.spec)?;
    let healthy = EpochRequest {
        fault: None,
        ..*req
    };
    let degraded = EpochRequest {
        sys: &degraded_sys,
        ..healthy
    };
    let cfg = req.cfg;
    let n = cfg
        .dataset
        .iterations(cfg.scaling, cfg.batch_per_gpu, cfg.gpu_count);
    // The iteration the fault strikes in; saturates at `n` (never
    // fires), as does the f64->u64 cast of a huge finite product.
    let k = ((fault.at_fraction * n as f64).floor() as u64).min(n);
    if k >= n || fault.spec.is_healthy() {
        return healthy.run();
    }
    if k == 0 {
        // Broken from the start: identical to a construction-time
        // fault, where the communicator is built against the damaged
        // topology and no transition is ever paid.
        return degraded.run();
    }
    let piecewise = compose(&healthy, &degraded, &fault.spec, k)?;
    Ok(EpochReport {
        epoch_time: piecewise.epoch_time,
        ..piecewise.degraded
    })
}

/// The three-run composition of `spec` striking `healthy` at
/// iteration `k`, with `0 < k < iterations`; `degraded` is `healthy`
/// on the statically degraded system. The healthy and transition runs
/// yield only their iteration-marker instants; only the degraded run
/// derives a report. All runs price their tuning decisions through
/// `healthy.tuner`.
pub(crate) fn compose(
    healthy: &EpochRequest<'_>,
    degraded: &EpochRequest<'_>,
    spec: &FaultSpec,
    k: u64,
) -> Result<DynamicEpochReport, EpochError> {
    let [t0, t1, t2] = marker_instants(healthy, |_| Ok(Vec::new()))?;
    let healthy_iter = t2 - t1;
    let degraded = degraded.run()?;
    // Transition run: the *healthy* lowering, with the fault's dynamic
    // events firing halfway through the middle (steady-state)
    // iteration of the three-iteration pipeline. The fill `t0` and the
    // pre-fault half of iteration 1 replay the healthy schedule
    // exactly (the engine's event machinery is inert until `at`), so
    // `t1' - t0` prices one iteration that starts healthy and ends
    // re-routed.
    let at = t0 + healthy_iter / 2;
    let [t0_replay, t1_struck, _] = marker_instants(healthy, |graph| {
        lower_fault_events(graph, &healthy.sys.topo, spec, at)
    })?;
    debug_assert_eq!(t0_replay, t0, "pre-fault fill must replay");
    let transition_iter = t1_struck - t0_replay;

    // Piecewise epoch: healthy fill + (k-1) healthy steady iterations
    // + the transition iteration + the remaining iterations at the
    // renegotiated (statically degraded) pace.
    let n = degraded.iterations;
    let epoch_time = epoch_span(&[
        (t0 - SimTime::ZERO, 1),
        (healthy_iter, k - 1),
        (transition_iter, 1),
        (degraded.iter_time, n - k - 1),
    ])?;
    Ok(DynamicEpochReport {
        healthy_iter,
        degraded,
        transition_iter,
        epoch_time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use voltascope_comm::tuner::TunerMemo;
    use voltascope_comm::CommMethod;
    use voltascope_dnn::{zoo, Model};
    use voltascope_topo::Device;
    use voltascope_workload::lower_model;

    use crate::dataset::{DatasetSpec, ScalingMode};
    use crate::{SystemModel, TrainConfig};

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

    /// The healthy report and [`compose`] of `spec` striking halfway
    /// through the epoch.
    fn halfway(model: &Model, gpus: usize, spec: FaultSpec) -> (EpochReport, DynamicEpochReport) {
        let sys = SystemModel::dgx1();
        let degraded_sys = sys.with_faults(&spec);
        let (workload, cfg) = (lower_model(model, 16).unwrap(), cfg(gpus));
        let tuner = TunerMemo::new();
        let healthy = EpochRequest {
            sys: &sys,
            workload: &workload,
            cfg: &cfg,
            fault: None,
            tuner: &tuner,
        };
        let degraded = EpochRequest {
            sys: &degraded_sys,
            ..healthy
        };
        let k = cfg.dataset.iterations(cfg.scaling, 16, gpus) / 2;
        let r = compose(&healthy, &degraded, &spec, k).unwrap();
        let healthy = healthy.run().unwrap();
        assert_eq!(r.healthy_iter, healthy.iter_time, "marker-derived span");
        (healthy, r)
    }

    /// The `Debug` text of [`EpochRequest::run`] for `model` on `sys`,
    /// struck by `fault` if given.
    fn run(sys: &SystemModel, model: &Model, gpus: usize, fault: Option<&MidEpochFault>) -> String {
        let (workload, cfg) = (lower_model(model, 16).unwrap(), cfg(gpus));
        let request = EpochRequest {
            sys,
            workload: &workload,
            cfg: &cfg,
            fault,
            tuner: &TunerMemo::new(),
        };
        format!("{:?}", request.run().unwrap())
    }

    #[test]
    fn mid_epoch_dead_interface_lands_between_healthy_and_always_dead() {
        // All of GPU3's NVLink bricks die at 50%: the 8-GPU ring cannot
        // renegotiate around a whole dead interface, so the post-fault
        // iterations run at the host-bounced pace — but the pre-fault
        // half of the epoch ran healthy, so the total sits strictly
        // between the healthy and always-dead epochs.
        let spec = FaultSpec::new().kill_nvlinks_of(Device::gpu(3));
        let (healthy, r) = halfway(&zoo::alexnet(), 8, spec);
        assert!(
            r.degraded.epoch_time > healthy.epoch_time,
            "static fault was free"
        );
        assert!(
            r.epoch_time > healthy.epoch_time,
            "fault was free: {} vs healthy {}",
            r.epoch_time,
            healthy.epoch_time
        );
        assert!(
            r.epoch_time < r.degraded.epoch_time,
            "mid-epoch fault not cheaper than always-dead: {} vs {}",
            r.epoch_time,
            r.degraded.epoch_time
        );
    }

    #[test]
    fn tolerated_single_link_failure_costs_only_the_transition() {
        // The hybrid cube-mesh tolerates any single dead link: the
        // renegotiated 4-GPU ring is all-NVLink again and the static
        // degraded epoch matches the healthy one. The *transition*
        // iteration still pays — its in-flight ring was built over the
        // link that died, and the displaced transfers host-bounce.
        let (healthy, r) = halfway(&zoo::alexnet(), 4, dead_link());
        assert_eq!(r.degraded.epoch_time, healthy.epoch_time);
        assert!(
            r.transition_iter > r.healthy_iter,
            "transition was free: {} vs {}",
            r.transition_iter,
            r.healthy_iter
        );
        let excess = r.transition_iter - r.healthy_iter;
        assert_eq!(r.epoch_time, healthy.epoch_time + excess);
    }

    #[test]
    fn fault_at_zero_equals_the_construction_time_fault() {
        let sys = SystemModel::dgx1();
        let model = zoo::alexnet();
        let spec = FaultSpec::new().kill_nvlinks_of(Device::gpu(3));
        let fault = MidEpochFault::new(spec.clone(), 0.0);
        let degraded = run(&sys.with_faults(&spec), &model, 8, None);
        assert_eq!(run(&sys, &model, 8, Some(&fault)), degraded);
    }

    #[test]
    fn fault_past_the_epoch_equals_healthy() {
        // Every column, not just the epoch time: a fault that never
        // fires leaves the steady state healthy too.
        let sys = SystemModel::dgx1();
        let model = zoo::alexnet();
        let healthy = run(&sys, &model, 8, None);
        for at in [1.0, 2.0] {
            let spec = FaultSpec::new().kill_nvlinks_of(Device::gpu(3));
            let fault = MidEpochFault::new(spec, at);
            assert_eq!(run(&sys, &model, 8, Some(&fault)), healthy, "at {at}");
        }
    }

    #[test]
    fn healthy_spec_is_a_no_op_at_any_fraction() {
        let sys = SystemModel::dgx1();
        let model = zoo::lenet();
        let fault = MidEpochFault::new(FaultSpec::new(), 0.5);
        assert_eq!(
            run(&sys, &model, 2, Some(&fault)),
            run(&sys, &model, 2, None)
        );
    }

    #[test]
    fn mid_epoch_straggler_charges_the_transition_and_the_tail() {
        let spec = FaultSpec::new().slow_gpu(Device::gpu(1), 1.5);
        let (healthy, r) = halfway(&zoo::alexnet(), 2, spec);
        assert!(r.degraded.iter_time > r.healthy_iter);
        assert!(r.epoch_time > healthy.epoch_time);
        assert!(r.epoch_time < r.degraded.epoch_time);
        // The transition iteration starts healthy, so it costs no more
        // than a fully degraded one (and at least a healthy one).
        assert!(r.transition_iter >= r.healthy_iter);
        assert!(r.transition_iter <= r.degraded.iter_time + r.healthy_iter);
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
        let events = lower_fault_events(&graph, &sys.topo, &spec, at).unwrap();
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
        let events = lower_fault_events(&graph, &sys.topo, &spec, SimTime::ZERO).unwrap();
        assert_eq!(events.len(), 2);
        for e in events {
            assert!(matches!(
                e.kind,
                DynamicEventKind::Scale { factor, .. } if (factor - 2.0).abs() < 1e-12
            ));
        }
    }
}

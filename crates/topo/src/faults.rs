//! Fault injection: degraded-hardware variants of a topology.
//!
//! Real multi-GPU nodes misbehave: NVLink bricks drop, links train down
//! to fewer lanes, thermal throttling slows individual GPUs, and noisy
//! neighbours add latency. A [`FaultSpec`] describes such a degradation
//! declaratively; [`Topology::apply`] produces the degraded device
//! graph, and the training simulator rebuilds rings, trees and routes
//! on it — collectives renegotiate around dead links exactly the way
//! NCCL's topology search does, falling back to host-bounced paths when
//! no NVLink cycle survives.
//!
//! # Example
//!
//! ```
//! use voltascope_topo::{dgx1_v100, Device, FaultSpec};
//!
//! let healthy = dgx1_v100();
//! // Kill the GPU3-GPU5 cross-quad brick (the quad-boundary link next
//! // to the GPU3/GPU4 split the paper highlights in §IV-A).
//! let spec = FaultSpec::new().kill_link(Device::gpu(3), Device::gpu(5));
//! let degraded = healthy.apply(&spec);
//! assert!(degraded.direct_link(Device::gpu(3), Device::gpu(5)).is_none());
//! // Traffic between the pair now bounces through the host.
//! assert!(degraded.route(Device::gpu(3), Device::gpu(5)).through_host());
//! ```

use std::collections::BTreeMap;
use std::fmt;

use voltascope_sim::SimSpan;

use crate::device::Device;
use crate::link::Link;
use crate::topology::Topology;

/// A declarative description of hardware degradation: dead or
/// downgraded links, added link latency, and per-GPU compute slowdown.
///
/// The default spec is healthy (no faults). Builder methods compose:
///
/// ```
/// use voltascope_topo::{Device, FaultSpec};
/// use voltascope_sim::SimSpan;
///
/// let spec = FaultSpec::new()
///     .kill_nvlinks_of(Device::gpu(3))
///     .slow_gpu(Device::gpu(5), 1.4)
///     .link_jitter(SimSpan::from_nanos(200));
/// assert!(!spec.is_healthy());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSpec {
    /// Device pairs whose direct links are all disabled.
    dead_links: Vec<(Device, Device)>,
    /// GPUs whose NVLink interface is entirely dead (every NVLink brick
    /// touching the device disappears; PCIe survives).
    dead_nvlink_gpus: Vec<Device>,
    /// Per-pair bandwidth multipliers in `(0, 1]` (link trained down).
    degraded_links: Vec<(Device, Device, f64)>,
    /// Extra latency added to every surviving link.
    link_jitter: SimSpan,
    /// Per-GPU compute slowdown factors (`>= 1`); a straggler or
    /// thermally-throttled device.
    gpu_slowdown: BTreeMap<Device, f64>,
}

impl FaultSpec {
    /// A healthy (empty) fault spec.
    pub fn new() -> Self {
        FaultSpec::default()
    }

    /// Disables every direct link between `a` and `b`.
    pub fn kill_link(mut self, a: Device, b: Device) -> Self {
        self.dead_links.push((a, b));
        self
    }

    /// Disables every NVLink brick attached to `gpu` (the whole NVLink
    /// interface fails; the PCIe uplink survives). This is the fault
    /// that actually breaks the DGX-1's 8-GPU ring: the hybrid
    /// cube-mesh tolerates any *single* dead link by renegotiating an
    /// alternative all-NVLink cycle.
    pub fn kill_nvlinks_of(mut self, gpu: Device) -> Self {
        self.dead_nvlink_gpus.push(gpu);
        self
    }

    /// Multiplies the bandwidth of every direct link between `a` and
    /// `b` by `factor` (a link trained down to fewer lanes). The factor
    /// must lie in `(0, 1]`; validation happens when the spec is
    /// applied, where [`Topology::try_apply`] reports
    /// [`FaultError::BadDegradeFactor`].
    pub fn degrade_link(mut self, a: Device, b: Device, factor: f64) -> Self {
        self.degraded_links.push((a, b, factor));
        self
    }

    /// Adds `extra` latency to every surviving link (congestion /
    /// retraining jitter).
    pub fn link_jitter(mut self, extra: SimSpan) -> Self {
        self.link_jitter = extra;
        self
    }

    /// Marks `gpu` as a straggler: all its kernels take `factor` times
    /// longer. The factor must be `>= 1`; validation happens when the
    /// spec is applied, where [`Topology::try_apply`] reports
    /// [`FaultError::BadSlowdownFactor`].
    pub fn slow_gpu(mut self, gpu: Device, factor: f64) -> Self {
        self.gpu_slowdown.insert(gpu, factor);
        self
    }

    /// Canned scenario: two GPUs straggling simultaneously at the same
    /// `factor` — the common "two hot devices" case on a shared
    /// chassis, where throttling correlates across neighbouring cards.
    /// Synchronous training pays the *max* of the per-GPU slowdowns per
    /// iteration, so a second straggler in the other quad mostly tests
    /// whether any schedule slack is left to hide it.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`; factors below 1 are reported by
    /// [`Topology::try_apply`] like any [`FaultSpec::slow_gpu`].
    pub fn two_stragglers(self, a: Device, b: Device, factor: f64) -> Self {
        assert_ne!(a, b, "two stragglers need two distinct GPUs");
        self.slow_gpu(a, factor).slow_gpu(b, factor)
    }

    /// `true` when the spec injects nothing.
    pub fn is_healthy(&self) -> bool {
        self.dead_links.is_empty()
            && self.dead_nvlink_gpus.is_empty()
            && self.degraded_links.is_empty()
            && self.link_jitter.is_zero()
            && self.gpu_slowdown.is_empty()
    }

    /// The compute-slowdown factor for `device` (1.0 when healthy).
    pub fn slowdown_of(&self, device: Device) -> f64 {
        self.gpu_slowdown.get(&device).copied().unwrap_or(1.0)
    }

    /// All per-GPU slowdown factors.
    pub fn gpu_slowdowns(&self) -> &BTreeMap<Device, f64> {
        &self.gpu_slowdown
    }

    /// Device pairs whose direct links the spec kills, in insertion
    /// order (the mid-epoch event lowering in `voltascope-train` maps
    /// each pair to per-direction link failures).
    pub fn dead_link_pairs(&self) -> &[(Device, Device)] {
        &self.dead_links
    }

    /// GPUs whose entire NVLink interface the spec kills.
    pub fn dead_nvlink_devices(&self) -> &[Device] {
        &self.dead_nvlink_gpus
    }

    /// Per-pair bandwidth multipliers of degraded links, in insertion
    /// order.
    pub fn degraded_link_factors(&self) -> &[(Device, Device, f64)] {
        &self.degraded_links
    }

    /// Whether the spec kills or downgrades any link touching `link`.
    fn classify(&self, link: &Link) -> LinkFate {
        let pair_matches =
            |a: Device, b: Device| (link.a == a && link.b == b) || (link.a == b && link.b == a);
        if self.dead_links.iter().any(|&(a, b)| pair_matches(a, b)) {
            return LinkFate::Dead;
        }
        if link.kind.is_nvlink()
            && self
                .dead_nvlink_gpus
                .iter()
                .any(|&g| link.a == g || link.b == g)
        {
            return LinkFate::Dead;
        }
        let factor: f64 = self
            .degraded_links
            .iter()
            .filter(|&&(a, b, _)| pair_matches(a, b))
            .map(|&(_, _, f)| f)
            .product();
        if factor < 1.0 {
            LinkFate::Degraded(factor)
        } else {
            LinkFate::Alive
        }
    }
}

enum LinkFate {
    Alive,
    Degraded(f64),
    Dead,
}

/// A structurally invalid [`FaultSpec`] for a given [`Topology`]:
/// typos and impossible parameters are reported deterministically
/// rather than silently injecting nothing.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultError {
    /// The spec names a device the topology does not have.
    UnknownDevice {
        /// The missing device.
        device: Device,
        /// The topology's name.
        topology: String,
    },
    /// A dead or degraded pair has no direct link in the topology.
    MissingLink {
        /// One endpoint.
        a: Device,
        /// The other endpoint.
        b: Device,
        /// `true` when the spec degrades (rather than kills) the pair.
        degrades: bool,
        /// The topology's name.
        topology: String,
    },
    /// The same link pair is killed more than once.
    DuplicateKill {
        /// One endpoint.
        a: Device,
        /// The other endpoint.
        b: Device,
    },
    /// A [`FaultSpec::degrade_link`] factor outside `(0, 1]`.
    BadDegradeFactor {
        /// One endpoint.
        a: Device,
        /// The other endpoint.
        b: Device,
        /// The offending factor.
        factor: f64,
    },
    /// A [`FaultSpec::slow_gpu`] factor below 1 (or non-finite).
    BadSlowdownFactor {
        /// The straggler device.
        device: Device,
        /// The offending factor.
        factor: f64,
    },
    /// The dead links leave a GPU with no direct link to any CPU: its
    /// mini-batches and initial weights would have no host to come
    /// from.
    CutsUplink {
        /// The GPU left without a CPU link.
        gpu: Device,
        /// The topology's name.
        topology: String,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::UnknownDevice { device, topology } => {
                write!(
                    f,
                    "fault names unknown device {device} in topology '{topology}'"
                )
            }
            FaultError::MissingLink {
                a,
                b,
                degrades,
                topology,
            } => {
                let verb = if *degrades { "degrades" } else { "kills" };
                write!(
                    f,
                    "fault {verb} non-existent link {a}-{b} in topology '{topology}'"
                )
            }
            FaultError::DuplicateKill { a, b } => {
                write!(f, "fault kills link {a}-{b} more than once")
            }
            FaultError::BadDegradeFactor { a, b, factor } => {
                write!(
                    f,
                    "degrade factor {factor} for link {a}-{b} must be in (0, 1]"
                )
            }
            FaultError::BadSlowdownFactor { device, factor } => {
                write!(f, "slowdown factor {factor} for {device} must be >= 1")
            }
            FaultError::CutsUplink { gpu, topology } => {
                write!(
                    f,
                    "fault leaves {gpu} without a CPU link in topology '{topology}'"
                )
            }
        }
    }
}

impl std::error::Error for FaultError {}

impl Topology {
    /// Builds the degraded topology described by `faults`: dead links
    /// are removed, downgraded links get their bandwidth scaled, and
    /// every surviving link gains the spec's jitter latency. Devices,
    /// forwarding rules and link-insertion order are preserved, so
    /// routing and ring construction on the result stay deterministic
    /// and keep the store-and-forward semantics of the healthy graph.
    ///
    /// Compute slowdowns do not change the graph — consumers read them
    /// from [`FaultSpec::slowdown_of`].
    ///
    /// # Errors
    ///
    /// Returns a [`FaultError`] when the spec names a device this
    /// topology does not have, kills or degrades a pair with no direct
    /// link, kills the same pair twice, carries a degrade/slowdown
    /// factor outside its valid range, or leaves a GPU that had a CPU
    /// link without one.
    pub fn try_apply(&self, faults: &FaultSpec) -> Result<Topology, FaultError> {
        let pair_eq = |(a1, b1): (Device, Device), (a2, b2): (Device, Device)| {
            (a1 == a2 && b1 == b2) || (a1 == b2 && b1 == a2)
        };
        for (i, &(a, b)) in faults.dead_links.iter().enumerate() {
            if self.direct_link(a, b).is_none() {
                return Err(FaultError::MissingLink {
                    a,
                    b,
                    degrades: false,
                    topology: self.name().to_string(),
                });
            }
            if faults.dead_links[..i].iter().any(|&p| pair_eq(p, (a, b))) {
                return Err(FaultError::DuplicateKill { a, b });
            }
        }
        for &(a, b, factor) in &faults.degraded_links {
            if self.direct_link(a, b).is_none() {
                return Err(FaultError::MissingLink {
                    a,
                    b,
                    degrades: true,
                    topology: self.name().to_string(),
                });
            }
            if !(factor > 0.0 && factor <= 1.0) {
                return Err(FaultError::BadDegradeFactor { a, b, factor });
            }
        }
        for &g in faults
            .dead_nvlink_gpus
            .iter()
            .chain(faults.gpu_slowdown.keys())
        {
            if !self.devices().contains(&g) {
                return Err(FaultError::UnknownDevice {
                    device: g,
                    topology: self.name().to_string(),
                });
            }
        }
        for (&device, &factor) in &faults.gpu_slowdown {
            if !(factor >= 1.0 && factor.is_finite()) {
                return Err(FaultError::BadSlowdownFactor { device, factor });
            }
        }
        let degraded = self.apply_unchecked(faults);
        let has_uplink = |t: &Topology, g| t.neighbors(g).iter().any(|(n, _)| n.is_cpu());
        if let Some(&gpu) = self
            .devices()
            .iter()
            .find(|&&g| g.is_gpu() && has_uplink(self, g) && !has_uplink(&degraded, g))
        {
            return Err(FaultError::CutsUplink {
                gpu,
                topology: self.name().to_string(),
            });
        }
        Ok(degraded)
    }

    /// Infallible wrapper over [`Topology::try_apply`].
    ///
    /// # Panics
    ///
    /// Panics with the [`FaultError`]'s message when the spec is
    /// invalid for this topology.
    pub fn apply(&self, faults: &FaultSpec) -> Topology {
        match self.try_apply(faults) {
            Ok(t) => t,
            Err(e) => panic!("{e}"),
        }
    }

    fn apply_unchecked(&self, faults: &FaultSpec) -> Topology {
        let name = if faults.is_healthy() {
            self.name().to_string()
        } else {
            format!("{} (degraded)", self.name())
        };
        let mut out = Topology::new(name);
        for &d in self.devices() {
            out.add_device(d);
        }
        out.set_gpus_forward(self.gpus_forward());
        for link in self.links() {
            match faults.classify(link) {
                LinkFate::Dead => {}
                LinkFate::Alive => {
                    out.connect_custom(Link {
                        latency: link.latency + faults.link_jitter,
                        ..*link
                    });
                }
                LinkFate::Degraded(factor) => {
                    out.connect_custom(Link {
                        bandwidth: crate::Bandwidth::bytes_per_sec(
                            link.bandwidth.as_bytes_per_sec() * factor,
                        ),
                        latency: link.latency + faults.link_jitter,
                        ..*link
                    });
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::dgx1_v100;

    #[test]
    fn healthy_spec_is_identity() {
        let topo = dgx1_v100();
        let same = topo.apply(&FaultSpec::new());
        assert_eq!(same.name(), topo.name());
        assert_eq!(same.links().len(), topo.links().len());
        for (a, b) in topo.links().iter().zip(same.links()) {
            assert_eq!(a.bandwidth, b.bandwidth);
            assert_eq!(a.latency, b.latency);
        }
    }

    #[test]
    fn dead_link_disappears_and_reroutes_via_host() {
        let topo = dgx1_v100();
        let g = Device::gpu;
        let degraded = topo.apply(&FaultSpec::new().kill_link(g(3), g(5)));
        assert!(degraded.direct_link(g(3), g(5)).is_none());
        assert_eq!(degraded.links().len(), topo.links().len() - 1);
        let route = degraded.route(g(3), g(5));
        assert!(route.through_host());
        assert_eq!(route.hop_count(), 3); // g3 -> cpu0 -> cpu1 -> g5
    }

    #[test]
    fn dead_nvlink_interface_keeps_pcie() {
        let topo = dgx1_v100();
        let g = Device::gpu;
        let degraded = topo.apply(&FaultSpec::new().kill_nvlinks_of(g(3)));
        for n in [0u8, 1, 2, 5] {
            assert!(degraded.direct_link(g(3), g(n)).is_none());
        }
        // PCIe uplink survives: GPU3 stays reachable via the host.
        assert_eq!(degraded.home_cpu(g(3)), Device::cpu(0));
        assert!(degraded.route(g(3), g(0)).through_host());
        // Unrelated links untouched.
        assert!(degraded.p2p_capable(g(0), g(1)));
    }

    #[test]
    fn degraded_link_scales_bandwidth_only() {
        let topo = dgx1_v100();
        let g = Device::gpu;
        let degraded = topo.apply(&FaultSpec::new().degrade_link(g(0), g(1), 0.5));
        let link = degraded.direct_link(g(0), g(1)).unwrap();
        assert_eq!(link.bandwidth.gigabytes_per_sec(), 25.0); // was 50
        let other = degraded.direct_link(g(0), g(2)).unwrap();
        assert_eq!(other.bandwidth.gigabytes_per_sec(), 50.0);
    }

    #[test]
    fn jitter_adds_latency_everywhere() {
        let topo = dgx1_v100();
        let extra = SimSpan::from_nanos(250);
        let degraded = topo.apply(&FaultSpec::new().link_jitter(extra));
        for (a, b) in topo.links().iter().zip(degraded.links()) {
            assert_eq!(b.latency, a.latency + extra);
        }
    }

    #[test]
    fn slowdowns_round_trip() {
        let g = Device::gpu;
        let spec = FaultSpec::new().slow_gpu(g(5), 1.4);
        assert_eq!(spec.slowdown_of(g(5)), 1.4);
        assert_eq!(spec.slowdown_of(g(0)), 1.0);
        assert!(!spec.is_healthy());
        // Pure compute faults leave the graph alone.
        let topo = dgx1_v100();
        let degraded = topo.apply(&spec);
        assert_eq!(degraded.links().len(), topo.links().len());
    }

    #[test]
    fn degraded_name_is_marked() {
        let topo = dgx1_v100();
        let g = Device::gpu;
        let degraded = topo.apply(&FaultSpec::new().kill_link(g(3), g(5)));
        assert!(degraded.name().contains("degraded"));
    }

    #[test]
    fn forwarding_flag_survives_apply() {
        let mut topo = dgx1_v100();
        topo.set_gpus_forward(true);
        let g = Device::gpu;
        let degraded = topo.apply(&FaultSpec::new().kill_link(g(3), g(5)));
        // With forwarding on, GPU3->GPU5 can still relay over NVLink.
        assert!(!degraded.route(g(3), g(5)).through_host());
    }

    #[test]
    #[should_panic(expected = "non-existent link")]
    fn killing_missing_link_panics() {
        let topo = dgx1_v100();
        let _ = topo.apply(&FaultSpec::new().kill_link(Device::gpu(3), Device::gpu(4)));
    }

    #[test]
    #[should_panic(expected = "unknown device")]
    fn unknown_device_panics() {
        let topo = dgx1_v100();
        let _ = topo.apply(&FaultSpec::new().kill_nvlinks_of(Device::gpu(12)));
    }

    #[test]
    #[should_panic(expected = "must be in (0, 1]")]
    fn degrade_factor_above_one_panics() {
        let topo = dgx1_v100();
        let _ = topo.apply(&FaultSpec::new().degrade_link(Device::gpu(0), Device::gpu(1), 1.5));
    }

    #[test]
    #[should_panic(expected = "must be >= 1")]
    fn speedup_straggler_panics() {
        let topo = dgx1_v100();
        let _ = topo.apply(&FaultSpec::new().slow_gpu(Device::gpu(0), 0.5));
    }

    // ---- Typed error paths (try_apply). ----

    #[test]
    fn try_apply_of_a_healthy_spec_succeeds() {
        let topo = dgx1_v100();
        let out = topo.try_apply(&FaultSpec::new()).unwrap();
        assert_eq!(out.links().len(), topo.links().len());
    }

    #[test]
    fn unknown_gpu_index_is_a_typed_error() {
        let topo = dgx1_v100();
        let err = topo
            .try_apply(&FaultSpec::new().kill_nvlinks_of(Device::gpu(12)))
            .unwrap_err();
        assert_eq!(
            err,
            FaultError::UnknownDevice {
                device: Device::gpu(12),
                topology: topo.name().to_string(),
            }
        );
        assert!(err.to_string().contains("unknown device GPU12"));
        // Straggler specs validate the device too.
        let err = topo
            .try_apply(&FaultSpec::new().slow_gpu(Device::gpu(9), 1.5))
            .unwrap_err();
        assert!(matches!(err, FaultError::UnknownDevice { .. }));
    }

    #[test]
    fn duplicate_kill_is_a_typed_error() {
        let topo = dgx1_v100();
        let g = Device::gpu;
        // Same pair twice, second time with the endpoints swapped.
        let spec = FaultSpec::new().kill_link(g(3), g(5)).kill_link(g(5), g(3));
        let err = topo.try_apply(&spec).unwrap_err();
        assert_eq!(err, FaultError::DuplicateKill { a: g(5), b: g(3) });
        assert!(err.to_string().contains("more than once"));
    }

    #[test]
    fn non_positive_degrade_factor_is_a_typed_error() {
        let topo = dgx1_v100();
        let g = Device::gpu;
        for bad in [0.0, -0.5, 1.5, f64::NAN] {
            let err = topo
                .try_apply(&FaultSpec::new().degrade_link(g(0), g(1), bad))
                .unwrap_err();
            match err {
                FaultError::BadDegradeFactor { a, b, factor } => {
                    assert_eq!((a, b), (g(0), g(1)));
                    assert!(factor.is_nan() || factor == bad);
                }
                other => panic!("expected BadDegradeFactor, got {other:?}"),
            }
        }
    }

    #[test]
    fn sub_unity_slowdown_is_a_typed_error() {
        let topo = dgx1_v100();
        let err = topo
            .try_apply(&FaultSpec::new().slow_gpu(Device::gpu(0), 0.5))
            .unwrap_err();
        assert_eq!(
            err,
            FaultError::BadSlowdownFactor {
                device: Device::gpu(0),
                factor: 0.5,
            }
        );
        assert!(err.to_string().contains("must be >= 1"));
    }

    #[test]
    fn missing_link_errors_distinguish_kill_from_degrade() {
        let topo = dgx1_v100();
        let g = Device::gpu;
        let kill = topo
            .try_apply(&FaultSpec::new().kill_link(g(3), g(4)))
            .unwrap_err();
        assert!(kill.to_string().contains("kills non-existent link"));
        let degrade = topo
            .try_apply(&FaultSpec::new().degrade_link(g(3), g(4), 0.5))
            .unwrap_err();
        assert!(degrade.to_string().contains("degrades non-existent link"));
    }

    #[test]
    fn cutting_a_gpus_only_cpu_link_is_a_typed_error() {
        let topo = dgx1_v100();
        let (g, cpu) = (Device::gpu, Device::cpu);
        let err = topo
            .try_apply(&FaultSpec::new().kill_link(g(0), cpu(0)))
            .unwrap_err();
        assert_eq!(
            err,
            FaultError::CutsUplink {
                gpu: g(0),
                topology: topo.name().to_string(),
            }
        );
        assert!(err.to_string().contains("leaves GPU0 without a CPU link"));
        // GPU4's uplink goes to the other socket.
        assert!(matches!(
            topo.try_apply(&FaultSpec::new().kill_nvlinks_of(g(4)).kill_link(g(4), cpu(1))),
            Err(FaultError::CutsUplink { gpu, .. }) if gpu == g(4)
        ));
        // Faults that keep every uplink still apply.
        assert!(topo
            .try_apply(&FaultSpec::new().kill_nvlinks_of(g(0)))
            .is_ok());
    }

    #[test]
    fn two_stragglers_compose_both_slowdowns() {
        let g = Device::gpu;
        let spec = FaultSpec::new().two_stragglers(g(3), g(6), 1.5);
        assert_eq!(spec.slowdown_of(g(3)), 1.5);
        assert_eq!(spec.slowdown_of(g(6)), 1.5);
        assert_eq!(spec.slowdown_of(g(0)), 1.0);
        assert_eq!(spec.gpu_slowdowns().len(), 2);
        assert!(!spec.is_healthy());
        // Pure compute faults leave the graph alone.
        let topo = dgx1_v100();
        assert_eq!(topo.apply(&spec).links().len(), topo.links().len());
    }

    #[test]
    #[should_panic(expected = "two distinct GPUs")]
    fn identical_stragglers_panic() {
        let _ = FaultSpec::new().two_stragglers(Device::gpu(3), Device::gpu(3), 1.5);
    }
}

//! The topology graph and its routing queries.

use std::collections::BTreeMap;

use voltascope_sim::SimSpan;

use crate::bandwidth::Bandwidth;
use crate::device::Device;
use crate::link::{Link, LinkId, LinkKind};
use crate::route::{Hop, Route};

/// A multi-GPU system's device and interconnect graph.
///
/// Build one with [`Topology::new`], [`Topology::add_device`] and
/// [`Topology::connect`], or use a preset like
/// [`dgx1_v100`](crate::dgx1_v100).
///
/// # Example
///
/// ```
/// use voltascope_topo::{Device, LinkKind, Topology};
///
/// let mut topo = Topology::new("toy");
/// topo.add_device(Device::gpu(0));
/// topo.add_device(Device::gpu(1));
/// topo.connect(Device::gpu(0), Device::gpu(1), LinkKind::NvLink { lanes: 1 });
/// assert!(topo.p2p_capable(Device::gpu(0), Device::gpu(1)));
/// ```
#[derive(Debug, Clone)]
pub struct Topology {
    name: String,
    devices: Vec<Device>,
    links: Vec<Link>,
    /// Adjacency: device -> [(neighbor, link)]; deterministic order.
    adjacency: BTreeMap<Device, Vec<(Device, LinkId)>>,
    /// Whether GPUs may forward traffic for third parties (false on real
    /// DGX-1 hardware, paper §V-A footnote 4; true only in the
    /// "full-route NVLink" ablation).
    gpus_forward: bool,
}

impl Topology {
    /// Creates an empty topology named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Topology {
            name: name.into(),
            devices: Vec::new(),
            links: Vec::new(),
            adjacency: BTreeMap::new(),
            gpus_forward: false,
        }
    }

    /// The topology's name (used in report headers).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether `other` is wired identically: the same devices, links
    /// (endpoints, kind, bandwidth, latency, in insertion order),
    /// adjacency and forwarding rule — every field except the display
    /// name. Routing, rings and collective prices depend on the wiring
    /// alone, so a straggler-only fault, which renames the topology
    /// "… (degraded)" without touching a link, leaves it unchanged.
    pub fn same_wiring(&self, other: &Topology) -> bool {
        // Destructured so a new field cannot be left out of the
        // comparison silently.
        let Topology {
            name: _,
            devices,
            links,
            adjacency,
            gpus_forward,
        } = self;
        *devices == other.devices
            && *links == other.links
            && *adjacency == other.adjacency
            && *gpus_forward == other.gpus_forward
    }

    /// Allows GPUs to forward traffic (the idealised-routing ablation).
    pub fn set_gpus_forward(&mut self, allowed: bool) {
        self.gpus_forward = allowed;
    }

    /// Whether GPUs may forward traffic for third parties.
    pub fn gpus_forward(&self) -> bool {
        self.gpus_forward
    }

    /// Registers a device.
    ///
    /// # Panics
    ///
    /// Panics if the device was already added.
    pub fn add_device(&mut self, device: Device) {
        assert!(!self.devices.contains(&device), "{device} added twice");
        self.devices.push(device);
        self.adjacency.entry(device).or_default();
    }

    /// Connects two registered devices with a link of `kind`, using the
    /// technology's default bandwidth and latency.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is unknown or `a == b`.
    pub fn connect(&mut self, a: Device, b: Device, kind: LinkKind) -> LinkId {
        self.connect_custom(Link {
            a,
            b,
            kind,
            bandwidth: kind.default_bandwidth(),
            latency: kind.default_latency(),
        })
    }

    /// Connects two devices with a fully-specified link (custom
    /// bandwidth/latency).
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is unknown or the link is a self-loop.
    pub fn connect_custom(&mut self, link: Link) -> LinkId {
        assert!(link.a != link.b, "self-loop on {}", link.a);
        assert!(self.devices.contains(&link.a), "unknown device {}", link.a);
        assert!(self.devices.contains(&link.b), "unknown device {}", link.b);
        let id = LinkId(self.links.len() as u32);
        self.adjacency.get_mut(&link.a).unwrap().push((link.b, id));
        self.adjacency.get_mut(&link.b).unwrap().push((link.a, id));
        self.links.push(link);
        id
    }

    /// All devices, in insertion order.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// All GPUs, ordered by index.
    pub fn gpus(&self) -> Vec<Device> {
        let mut gpus: Vec<Device> = self
            .devices
            .iter()
            .copied()
            .filter(|d| d.is_gpu())
            .collect();
        gpus.sort();
        gpus
    }

    /// Number of GPUs.
    pub fn gpu_count(&self) -> usize {
        self.devices.iter().filter(|d| d.is_gpu()).count()
    }

    /// All links, in insertion order.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// The link with the given id.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Neighbours of `device` with the connecting link ids.
    pub fn neighbors(&self, device: Device) -> &[(Device, LinkId)] {
        self.adjacency
            .get(&device)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The direct link between `a` and `b` with the highest bandwidth,
    /// if any.
    pub fn direct_link(&self, a: Device, b: Device) -> Option<&Link> {
        self.neighbors(a)
            .iter()
            .filter(|(n, _)| *n == b)
            .map(|(_, id)| self.link(*id))
            .max_by(|x, y| {
                x.bandwidth
                    .as_bytes_per_sec()
                    .partial_cmp(&y.bandwidth.as_bytes_per_sec())
                    .expect("bandwidths are finite")
            })
    }

    /// `true` when `a` and `b` are both GPUs joined by a direct NVLink —
    /// the condition for CUDA P2P transfers and P2P direct access.
    pub fn p2p_capable(&self, a: Device, b: Device) -> bool {
        a.is_gpu() && b.is_gpu() && self.direct_link(a, b).is_some_and(|l| l.kind.is_nvlink())
    }

    /// GPUs with a direct NVLink to *both* `a` and `b`: the candidates
    /// for MXNet's software multi-stage transfer (paper §V-A). Sorted by
    /// descending min-bandwidth of the two legs, then ascending index.
    pub fn relay_candidates(&self, a: Device, b: Device) -> Vec<Device> {
        let mut candidates: Vec<(Device, Bandwidth)> = self
            .gpus()
            .into_iter()
            .filter(|&g| g != a && g != b)
            .filter_map(|g| {
                let la = self.direct_link(a, g).filter(|l| l.kind.is_nvlink())?;
                let lb = self.direct_link(g, b).filter(|l| l.kind.is_nvlink())?;
                Some((g, la.bandwidth.min(lb.bandwidth)))
            })
            .collect();
        candidates.sort_by(|(ga, bwa), (gb, bwb)| {
            bwb.as_bytes_per_sec()
                .partial_cmp(&bwa.as_bytes_per_sec())
                .expect("bandwidths are finite")
                .then(ga.cmp(gb))
        });
        candidates.into_iter().map(|(g, _)| g).collect()
    }

    /// The hardware route from `src` to `dst` under the platform's
    /// forwarding rules: shortest path (by per-hop cost of latency plus
    /// the serialisation time of a nominal 1 MiB message) where only
    /// CPUs — and GPUs, if [`Topology::set_gpus_forward`] was enabled —
    /// may appear as intermediate nodes.
    ///
    /// # Panics
    ///
    /// Panics if either device is unknown or no route exists.
    pub fn route(&self, src: Device, dst: Device) -> Route {
        assert!(self.devices.contains(&src), "unknown device {src}");
        assert!(self.devices.contains(&dst), "unknown device {dst}");
        if src == dst {
            return Route::new(src, dst, vec![]);
        }

        const NOMINAL_BYTES: u64 = 1 << 20;
        // Dijkstra over devices; intermediate nodes restricted by role.
        let mut dist: BTreeMap<Device, SimSpan> = BTreeMap::new();
        let mut prev: BTreeMap<Device, (Device, LinkId)> = BTreeMap::new();
        let mut visited: BTreeMap<Device, bool> = BTreeMap::new();
        dist.insert(src, SimSpan::ZERO);

        // Deterministic: BTreeMap iteration breaks cost ties by device order.
        while let Some((&u, &du)) = dist
            .iter()
            .filter(|(d, _)| !visited.get(*d).copied().unwrap_or(false))
            .min_by_key(|(d, &c)| (c, **d))
        {
            visited.insert(u, true);
            if u == dst {
                break;
            }
            // Only the source, the destination, and forwarding-capable
            // devices may relay.
            let may_forward = u == src || u.is_cpu() || (u.is_gpu() && self.gpus_forward);
            if !may_forward {
                continue;
            }
            for &(v, lid) in self.neighbors(u) {
                let link = self.link(lid);
                let cost = du + link.latency + link.bandwidth.transfer_time(NOMINAL_BYTES);
                if dist.get(&v).is_none_or(|&c| cost < c) {
                    dist.insert(v, cost);
                    prev.insert(v, (u, lid));
                }
            }
        }

        assert!(
            prev.contains_key(&dst),
            "no route from {src} to {dst} in topology '{}'",
            self.name
        );
        let mut hops = Vec::new();
        let mut at = dst;
        while at != src {
            let (from, lid) = prev[&at];
            let link = self.link(lid);
            hops.push(Hop {
                from,
                to: at,
                link: lid,
                kind: link.kind,
                bandwidth: link.bandwidth,
                latency: link.latency,
            });
            at = from;
        }
        hops.reverse();
        Route::new(src, dst, hops)
    }

    /// The CPU socket whose PCIe tree hosts `gpu` (the first CPU found
    /// via a direct PCIe link).
    ///
    /// # Panics
    ///
    /// Panics if `gpu` has no PCIe uplink to any CPU.
    pub fn home_cpu(&self, gpu: Device) -> Device {
        self.neighbors(gpu)
            .iter()
            .filter(|(n, _)| n.is_cpu())
            .map(|&(n, _)| n)
            .next()
            .unwrap_or_else(|| panic!("{gpu} has no CPU uplink"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Line: g0 -NVLink- g1 -NVLink- g2, each GPU on cpu0's PCIe.
    fn line() -> Topology {
        let mut t = Topology::new("line");
        t.add_device(Device::cpu(0));
        for i in 0..3 {
            t.add_device(Device::gpu(i));
            t.connect(Device::gpu(i), Device::cpu(0), LinkKind::Pcie);
        }
        t.connect(
            Device::gpu(0),
            Device::gpu(1),
            LinkKind::NvLink { lanes: 1 },
        );
        t.connect(
            Device::gpu(1),
            Device::gpu(2),
            LinkKind::NvLink { lanes: 1 },
        );
        t
    }

    #[test]
    fn direct_link_and_p2p() {
        let t = line();
        assert!(t.p2p_capable(Device::gpu(0), Device::gpu(1)));
        assert!(!t.p2p_capable(Device::gpu(0), Device::gpu(2)));
        assert!(!t.p2p_capable(Device::gpu(0), Device::cpu(0)));
        assert!(t.direct_link(Device::gpu(0), Device::gpu(2)).is_none());
    }

    #[test]
    fn route_prefers_direct_nvlink() {
        let t = line();
        let r = t.route(Device::gpu(0), Device::gpu(1));
        assert_eq!(r.hop_count(), 1);
        assert!(r.is_direct_nvlink());
    }

    #[test]
    fn gpus_do_not_forward_by_default() {
        let t = line();
        // g0 -> g2 cannot relay through g1; must bounce via cpu0.
        let r = t.route(Device::gpu(0), Device::gpu(2));
        assert!(r.through_host());
        assert_eq!(r.hop_count(), 2);
    }

    #[test]
    fn forwarding_ablation_unlocks_gpu_relay() {
        let mut t = line();
        t.set_gpus_forward(true);
        let r = t.route(Device::gpu(0), Device::gpu(2));
        assert!(!r.through_host());
        assert_eq!(r.hop_count(), 2); // g0 -> g1 -> g2 over NVLink
        assert!(r.hops().iter().all(|h| h.kind.is_nvlink()));
    }

    #[test]
    fn relay_candidates_require_links_to_both_ends() {
        let t = line();
        assert_eq!(
            t.relay_candidates(Device::gpu(0), Device::gpu(2)),
            vec![Device::gpu(1)]
        );
        assert!(t
            .relay_candidates(Device::gpu(0), Device::gpu(1))
            .is_empty());
    }

    #[test]
    fn self_route_is_empty() {
        let t = line();
        assert_eq!(t.route(Device::gpu(1), Device::gpu(1)).hop_count(), 0);
    }

    #[test]
    fn home_cpu_found_via_pcie() {
        let t = line();
        assert_eq!(t.home_cpu(Device::gpu(2)), Device::cpu(0));
    }

    #[test]
    #[should_panic(expected = "added twice")]
    fn duplicate_device_panics() {
        let mut t = line();
        t.add_device(Device::gpu(0));
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        let mut t = line();
        t.connect(Device::gpu(0), Device::gpu(0), LinkKind::Pcie);
    }

    #[test]
    #[should_panic(expected = "no route")]
    fn disconnected_route_panics() {
        let mut t = Topology::new("disc");
        t.add_device(Device::gpu(0));
        t.add_device(Device::gpu(1));
        let _ = t.route(Device::gpu(0), Device::gpu(1));
    }

    #[test]
    fn direct_link_picks_widest_when_parallel() {
        let mut t = Topology::new("par");
        t.add_device(Device::gpu(0));
        t.add_device(Device::gpu(1));
        t.connect(
            Device::gpu(0),
            Device::gpu(1),
            LinkKind::NvLink { lanes: 1 },
        );
        t.connect(
            Device::gpu(0),
            Device::gpu(1),
            LinkKind::NvLink { lanes: 2 },
        );
        let l = t.direct_link(Device::gpu(0), Device::gpu(1)).unwrap();
        assert_eq!(l.kind, LinkKind::NvLink { lanes: 2 });
    }

    #[test]
    fn gpu_listing_is_sorted() {
        let mut t = Topology::new("rev");
        t.add_device(Device::gpu(2));
        t.add_device(Device::gpu(0));
        t.add_device(Device::cpu(0));
        t.add_device(Device::gpu(1));
        assert_eq!(
            t.gpus(),
            vec![Device::gpu(0), Device::gpu(1), Device::gpu(2)]
        );
        assert_eq!(t.gpu_count(), 3);
    }
}

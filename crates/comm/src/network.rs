//! Lowering transfers onto the discrete-event engine's link resources.

use std::collections::BTreeMap;
use std::fmt::Display;

use voltascope_sim::{ResourceId, TaskGraph, TaskId};
use voltascope_topo::{Device, LinkId, Topology};

/// Per-direction link resources for one simulated system.
///
/// Every physical link becomes two capacity-1 resources (one per
/// direction, since NVLink/PCIe bandwidths are full-duplex), so
/// concurrent transfers over the same link direction serialise while
/// opposite directions overlap — exactly the contention behaviour that
/// makes GPU0 the bottleneck of the P2P parameter-server schedule
/// (§V-A).
///
/// # Example
///
/// ```
/// use voltascope_comm::LinkNetwork;
/// use voltascope_sim::{Engine, TaskGraph};
/// use voltascope_topo::{dgx1_v100, Device};
///
/// let topo = dgx1_v100();
/// let mut graph = TaskGraph::new();
/// let net = LinkNetwork::register(&mut graph, &topo);
/// // Two transfers: GPU0->GPU1 (direct double NVLink) and GPU3->GPU4
/// // (no direct link: staged through a relay GPU).
/// let fast = net.transfer(&mut graph, &topo, Device::gpu(0), Device::gpu(1),
///                         50_000_000, &[], "wu.comm", "grad01");
/// let slow = net.transfer(&mut graph, &topo, Device::gpu(3), Device::gpu(4),
///                         50_000_000, &[], "wu.comm", "grad34");
/// let s = Engine::new().run(&graph).unwrap();
/// assert!(s.finish_time(slow) > s.finish_time(fast));
/// ```
#[derive(Debug, Clone)]
pub struct LinkNetwork {
    directed: BTreeMap<(LinkId, bool), ResourceId>,
}

impl LinkNetwork {
    /// Registers two directed resources per link of `topo` in `graph`.
    pub fn register(graph: &mut TaskGraph, topo: &Topology) -> Self {
        let mut directed = BTreeMap::new();
        for (i, link) in topo.links().iter().enumerate() {
            let id = LinkId::from_index(i);
            let fwd = graph.add_resource(format!("link.{}>{}", link.a, link.b), 1);
            let rev = graph.add_resource(format!("link.{}>{}", link.b, link.a), 1);
            directed.insert((id, true), fwd);
            directed.insert((id, false), rev);
        }
        LinkNetwork { directed }
    }

    /// The directed resource for crossing `link` from `from`.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not an endpoint of `link` or the link was
    /// not registered.
    pub fn direction(&self, topo: &Topology, link: LinkId, from: Device) -> ResourceId {
        let l = topo.link(link);
        let forward = if l.a == from {
            true
        } else if l.b == from {
            false
        } else {
            panic!("{from} is not an endpoint of {l}");
        };
        self.directed[&(link, forward)]
    }

    /// The directed resource of the widest direct link from `from` to
    /// `to`, if one exists (used by the ring collectives to occupy a
    /// link for a pipelined collective's full duration).
    pub fn direct_resource(&self, topo: &Topology, from: Device, to: Device) -> Option<ResourceId> {
        let (idx, _) = topo
            .links()
            .iter()
            .enumerate()
            .filter(|(_, l)| l.connects(from) && l.connects(to))
            .max_by(|(_, x), (_, y)| {
                x.bandwidth
                    .as_bytes_per_sec()
                    .partial_cmp(&y.bandwidth.as_bytes_per_sec())
                    .expect("finite bandwidth")
            })?;
        Some(self.direction(topo, LinkId::from_index(idx), from))
    }

    /// Emits the store-and-forward *occupancy* chain for a routed
    /// transfer: one task per hop of the hardware route, each on its
    /// per-direction link resource, lasting only that hop's
    /// serialisation (bandwidth) time. The ring collectives use this
    /// for host-bounced fallback hops, whose pipelined chunk-step
    /// latency is charged separately as a parallel delay — but whose
    /// bandwidth must still occupy every PCIe/QPI leg along the route,
    /// so concurrent fallback transfers over a shared leg contend
    /// instead of being priced as if the leg were dedicated.
    ///
    /// Returns the final hop's task.
    ///
    /// # Panics
    ///
    /// Panics if no route exists between `from` and `to`.
    #[allow(clippy::too_many_arguments)]
    pub fn occupy_route(
        &self,
        graph: &mut TaskGraph,
        topo: &Topology,
        from: Device,
        to: Device,
        bytes: u64,
        deps: &[TaskId],
        category: &str,
        label: impl Display,
    ) -> TaskId {
        let route = topo.route(from, to);
        let mut prev: Option<TaskId> = None;
        for (i, hop) in route.hops().iter().enumerate() {
            let resource = self.direction(topo, hop.link, hop.from);
            let mut builder = graph
                .task(format_args!("{label}.leg{i}"))
                .on(resource)
                .lasting(hop.bandwidth.transfer_time(bytes))
                .category(category);
            builder = match prev {
                Some(p) => builder.after(p),
                None => builder.after_all(deps.iter().copied()),
            };
            prev = Some(builder.build());
        }
        prev.expect("route has at least one hop")
    }

    /// Emits the task(s) for moving `bytes` from `from` to `to` and
    /// returns the completion task. Policy, mirroring MXNet on the
    /// DGX-1 (§V-A):
    ///
    /// 1. a direct link (NVLink or PCIe) is used as a single DMA;
    /// 2. GPU pairs without one use a *software multi-stage transfer*
    ///    through the best common NVLink neighbour (two chained DMAs);
    /// 3. otherwise the hardware route applies — DtoH then HtoD through
    ///    the CPUs over PCIe/QPI, store-and-forward per hop.
    ///
    /// # Panics
    ///
    /// Panics if `from == to` or no path exists.
    #[allow(clippy::too_many_arguments)]
    pub fn transfer(
        &self,
        graph: &mut TaskGraph,
        topo: &Topology,
        from: Device,
        to: Device,
        bytes: u64,
        deps: &[TaskId],
        category: &str,
        label: impl Display,
    ) -> TaskId {
        self.transfer_with_policy(graph, topo, from, to, bytes, deps, category, &label, true)
    }

    /// Like [`LinkNetwork::transfer`] but never using a software relay:
    /// non-adjacent GPU pairs take the hardware route (DtoH + HtoD over
    /// PCIe). MXNet's gradient *reduction* path behaves this way — the
    /// paper observes the multi-stage NVLink mitigation only for the
    /// updated-weight transfers (§V-A).
    #[allow(clippy::too_many_arguments)]
    pub fn transfer_hardware(
        &self,
        graph: &mut TaskGraph,
        topo: &Topology,
        from: Device,
        to: Device,
        bytes: u64,
        deps: &[TaskId],
        category: &str,
        label: impl Display,
    ) -> TaskId {
        self.transfer_with_policy(graph, topo, from, to, bytes, deps, category, &label, false)
    }

    #[allow(clippy::too_many_arguments)]
    fn transfer_with_policy(
        &self,
        graph: &mut TaskGraph,
        topo: &Topology,
        from: Device,
        to: Device,
        bytes: u64,
        deps: &[TaskId],
        category: &str,
        label: &dyn Display,
        allow_relay: bool,
    ) -> TaskId {
        assert_ne!(from, to, "transfer to self");
        if let Some(task) = self.try_direct(graph, topo, from, to, bytes, deps, category, label) {
            return task;
        }
        if allow_relay && from.is_gpu() && to.is_gpu() {
            if let Some(&relay) = topo.relay_candidates(from, to).first() {
                let first = self
                    .try_direct(
                        graph,
                        topo,
                        from,
                        relay,
                        bytes,
                        deps,
                        category,
                        &format_args!("{label}.stage1"),
                    )
                    .expect("relay candidate must be directly linked");
                return self
                    .try_direct(
                        graph,
                        topo,
                        relay,
                        to,
                        bytes,
                        &[first],
                        category,
                        &format_args!("{label}.stage2"),
                    )
                    .expect("relay candidate must be directly linked");
            }
        }
        // Hardware route: store-and-forward per hop.
        let route = topo.route(from, to);
        let mut prev: Option<TaskId> = None;
        for (i, hop) in route.hops().iter().enumerate() {
            let resource = self.direction(topo, hop.link, hop.from);
            let duration = hop.latency + hop.bandwidth.transfer_time(bytes);
            let mut builder = graph
                .task(format_args!("{label}.hop{i}"))
                .on(resource)
                .lasting(duration)
                .category(category);
            builder = match prev {
                Some(p) => builder.after(p),
                None => builder.after_all(deps.iter().copied()),
            };
            prev = Some(builder.build());
        }
        prev.expect("route has at least one hop")
    }

    #[allow(clippy::too_many_arguments)]
    fn try_direct(
        &self,
        graph: &mut TaskGraph,
        topo: &Topology,
        from: Device,
        to: Device,
        bytes: u64,
        deps: &[TaskId],
        category: &str,
        label: &dyn Display,
    ) -> Option<TaskId> {
        let link = topo.direct_link(from, to)?;
        // Identify which registered link this is (the widest direct one).
        let (idx, _) = topo
            .links()
            .iter()
            .enumerate()
            .filter(|(_, l)| l.connects(from) && l.connects(to))
            .max_by(|(_, x), (_, y)| {
                x.bandwidth
                    .as_bytes_per_sec()
                    .partial_cmp(&y.bandwidth.as_bytes_per_sec())
                    .expect("finite bandwidth")
            })?;
        let resource = self.direction(topo, LinkId::from_index(idx), from);
        let duration = link.latency + link.bandwidth.transfer_time(bytes);
        Some(
            graph
                .task(label)
                .on(resource)
                .lasting(duration)
                .category(category)
                .after_all(deps.iter().copied())
                .build(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voltascope_sim::Engine;
    use voltascope_topo::dgx1_v100;

    #[test]
    fn direct_transfer_uses_single_task() {
        let topo = dgx1_v100();
        let mut g = TaskGraph::new();
        let net = LinkNetwork::register(&mut g, &topo);
        let before = g.task_count();
        net.transfer(
            &mut g,
            &topo,
            Device::gpu(0),
            Device::gpu(1),
            1 << 20,
            &[],
            "c",
            "x",
        );
        assert_eq!(g.task_count() - before, 1);
    }

    #[test]
    fn relayed_transfer_uses_two_stages() {
        let topo = dgx1_v100();
        let mut g = TaskGraph::new();
        let net = LinkNetwork::register(&mut g, &topo);
        let before = g.task_count();
        // GPU0 -> GPU7: no direct link, but GPU1 neighbours both.
        net.transfer(
            &mut g,
            &topo,
            Device::gpu(0),
            Device::gpu(7),
            1 << 20,
            &[],
            "c",
            "x",
        );
        assert_eq!(g.task_count() - before, 2);
    }

    #[test]
    fn double_link_is_twice_as_fast() {
        let topo = dgx1_v100();
        let mut g = TaskGraph::new();
        let net = LinkNetwork::register(&mut g, &topo);
        let bytes = 100_000_000;
        let fast = net.transfer(
            &mut g,
            &topo,
            Device::gpu(0),
            Device::gpu(1),
            bytes,
            &[],
            "c",
            "a",
        );
        let slow = net.transfer(
            &mut g,
            &topo,
            Device::gpu(0),
            Device::gpu(3),
            bytes,
            &[],
            "c",
            "b",
        );
        let s = Engine::new().run(&g).unwrap();
        let tf = s.finish_time(fast).as_nanos() as f64;
        let ts = s.finish_time(slow).as_nanos() as f64;
        assert!((ts / tf - 2.0).abs() < 0.05, "ratio {}", ts / tf);
    }

    #[test]
    fn same_direction_transfers_serialise() {
        let topo = dgx1_v100();
        let mut g = TaskGraph::new();
        let net = LinkNetwork::register(&mut g, &topo);
        let bytes = 50_000_000; // 1 ms on the double link
        let a = net.transfer(
            &mut g,
            &topo,
            Device::gpu(0),
            Device::gpu(1),
            bytes,
            &[],
            "c",
            "a",
        );
        let b = net.transfer(
            &mut g,
            &topo,
            Device::gpu(0),
            Device::gpu(1),
            bytes,
            &[],
            "c",
            "b",
        );
        let s = Engine::new().run(&g).unwrap();
        assert_eq!(s.start_time(b), s.finish_time(a));
    }

    #[test]
    fn opposite_directions_overlap() {
        let topo = dgx1_v100();
        let mut g = TaskGraph::new();
        let net = LinkNetwork::register(&mut g, &topo);
        let bytes = 50_000_000;
        let a = net.transfer(
            &mut g,
            &topo,
            Device::gpu(0),
            Device::gpu(1),
            bytes,
            &[],
            "c",
            "a",
        );
        let b = net.transfer(
            &mut g,
            &topo,
            Device::gpu(1),
            Device::gpu(0),
            bytes,
            &[],
            "c",
            "b",
        );
        let s = Engine::new().run(&g).unwrap();
        assert_eq!(s.start_time(a), s.start_time(b));
    }

    #[test]
    fn cpu_to_gpu_training_data_goes_over_pcie() {
        let topo = dgx1_v100();
        let mut g = TaskGraph::new();
        let net = LinkNetwork::register(&mut g, &topo);
        let t = net.transfer(
            &mut g,
            &topo,
            Device::cpu(0),
            Device::gpu(2),
            12_000_000,
            &[],
            "h2d",
            "batch",
        );
        let s = Engine::new().run(&g).unwrap();
        // 12 MB at 12 GB/s = 1 ms (+5 us latency).
        assert_eq!(s.finish_time(t).as_micros(), 1005);
    }

    #[test]
    fn cross_socket_host_route_chains_hops() {
        let topo = dgx1_v100();
        let mut g = TaskGraph::new();
        let net = LinkNetwork::register(&mut g, &topo);
        let before = g.task_count();
        // CPU0 -> GPU4 crosses QPI then PCIe.
        net.transfer(
            &mut g,
            &topo,
            Device::cpu(0),
            Device::gpu(4),
            1 << 20,
            &[],
            "h2d",
            "x",
        );
        assert_eq!(g.task_count() - before, 2);
    }

    #[test]
    #[should_panic(expected = "transfer to self")]
    fn self_transfer_panics() {
        let topo = dgx1_v100();
        let mut g = TaskGraph::new();
        let net = LinkNetwork::register(&mut g, &topo);
        net.transfer(
            &mut g,
            &topo,
            Device::gpu(0),
            Device::gpu(0),
            1,
            &[],
            "c",
            "x",
        );
    }
}

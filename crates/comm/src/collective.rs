//! Timing models for NCCL-style collectives.
//!
//! NCCL's ring algorithms chunk the payload and pipeline it around the
//! ring, so every link carries `2(N-1)/N x bytes` for AllReduce and
//! `(N-1)/N x bytes` for Broadcast, all links active concurrently. The
//! price is a fixed per-call cost: MXNet launches `ReduceKernel` /
//! `BroadcastKernel` on every GPU for every bucket — present even on a
//! single GPU, which is exactly the "NCCL overhead" the paper isolates
//! in Table II (§V-B).
//!
//! Each collective takes a [`Selection`] — the (algorithm, protocol,
//! channels) point chosen by [`crate::tuner`] or pinned by the caller.
//! The protocol scales the wire volume (LL moves 2x the payload, half
//! of it flags) and the per-step latency; the channel count splits the
//! payload across parallel ring/tree instances, each subject to its
//! protocol's per-channel processing-rate cap. [`Selection::PAPER`]
//! (single-channel Simple ring) reproduces the pre-protocol model
//! exactly.

use std::collections::BTreeMap;
use std::fmt;

use voltascope_sim::{ResourceId, SimSpan, TaskGraph, TaskId};
use voltascope_topo::{Bandwidth, Device, Topology};

use crate::network::LinkNetwork;
use crate::protocol::{
    Algorithm, BandwidthEfficiency, CommError, Protocol, Selection, TuningSpace,
};
use crate::ring::Ring;

/// Fixed-cost parameters of the NCCL-style backend.
#[derive(Debug, Clone, PartialEq)]
pub struct NcclCosts {
    /// GPU time of the per-call `ReduceKernel`/`BroadcastKernel` on
    /// every rank, charged once per collective invocation (per
    /// gradient bucket). This is what fails to amortise on small
    /// networks (Table II).
    pub kernel_overhead: SimSpan,
    /// One-time per-epoch cost of communicator/kvstore setup on each
    /// GPU. Dominates LeNet's epoch at large batch sizes, which is why
    /// the paper sees NCCL overhead *grow* with batch size for small
    /// networks (§V-B).
    pub epoch_setup: SimSpan,
    /// Per-chunk-step protocol cost added to the link latency for the
    /// *Simple* protocol: flag checks and intermediate-buffer
    /// synchronisation of the ring pipeline. LL/LL128 pay a scaled
    /// fraction ([`Protocol::step_overhead`]). Dominates small-message
    /// collectives (LeNet's 5 buckets), which is part of why P2P wins
    /// there (§V-A).
    pub step_overhead: SimSpan,
    /// Fraction of raw link bandwidth the ring pipeline sustains
    /// (NCCL-2.0-era bus-bandwidth measurements on DGX-1V land at
    /// 50-80% of the NVLink peak for medium message sizes). Validated
    /// at construction — see [`BandwidthEfficiency`].
    pub bandwidth_efficiency: BandwidthEfficiency,
    /// Host-side cost per GPU per iteration of assembling the grouped
    /// collective calls (the MXNet-NCCL kvstore path marshals every
    /// key into a group launch on its scheduling thread). A fixed
    /// per-iteration tax that a small workload like LeNet cannot
    /// amortise — the paper's "overhead associated with incorporating
    /// NCCL into MXNet" (§V-A).
    pub group_call_overhead: SimSpan,
    /// The (algorithm, protocol, channels) candidate space the
    /// auto-tuner searches per message size. Defaults to
    /// [`TuningSpace::from_env`]: the calibrated paper singleton
    /// unless `VOLTASCOPE_NCCL_PROTO` overrides it.
    pub tuning: TuningSpace,
    /// Emit link occupancy as *chained chunk tasks* at the protocol's
    /// step granularity ([`Protocol::chunk_bytes`]) instead of one
    /// whole-transfer task. Each chunk releases the per-direction link
    /// resource when it completes, so two collectives sharing a link
    /// interleave chunk-by-chunk under FIFO arbitration — the way
    /// NCCL's slot-recycled pipeline actually shares a link — instead
    /// of serialising whole transfers. Off by default: the calibrated
    /// golden scenarios are priced on whole-transfer occupancy, and
    /// chunking multiplies the task count by up to 32 per hop.
    /// Host-bounced fallback routes stay unchunked either way (their
    /// store-and-forward legs already occupy each PCIe/QPI resource
    /// separately).
    pub chunking: bool,
}

impl Default for NcclCosts {
    fn default() -> Self {
        NcclCosts {
            kernel_overhead: SimSpan::from_micros(20),
            epoch_setup: SimSpan::from_millis(120),
            step_overhead: SimSpan::from_micros(4),
            bandwidth_efficiency: BandwidthEfficiency::default(),
            group_call_overhead: SimSpan::from_micros(300),
            tuning: TuningSpace::from_env(),
            chunking: false,
        }
    }
}

/// The per-GPU completion tasks of a collective call.
pub type PerGpuDone = BTreeMap<Device, TaskId>;

/// Bytes each ring link carries for one channel of an `n`-rank
/// collective: `ceil(passes * (n - 1) * bytes / n)`.
///
/// The product is taken in 128-bit arithmetic and the division rounds
/// *up* — the old u64 formula wrapped silently for multi-GB payloads
/// (14x a payload overflows u64 two orders of magnitude before the
/// per-link result does) and its floor division under-accounted up to
/// `n - 1` bytes per link.
///
/// # Errors
///
/// [`CommError::ArithmeticOverflow`] if the per-link volume itself
/// exceeds `u64::MAX`.
pub fn ring_per_link_bytes(passes: u64, n: u64, bytes: u64) -> Result<u64, CommError> {
    debug_assert!(n >= 2, "a ring needs at least two ranks");
    let chunks = u128::from(passes) * u128::from(n - 1) * u128::from(bytes);
    u64::try_from(chunks.div_ceil(u128::from(n))).map_err(|_| CommError::ArithmeticOverflow {
        context: "ring per-link bytes",
        bytes,
    })
}

/// Bytes actually serialised on the wire for `data_bytes` of payload:
/// the protocol's framing expansion divided by the sustained-bandwidth
/// fraction, rounded up.
///
/// Computed as `ceil(data * wire_den * 10^6 / (wire_num * eff_ppm))`
/// in 128-bit integer arithmetic. The old code round-tripped through
/// `f64` (`(bytes as f64 / eff) as u64`), which loses low bits above
/// 2^53 bytes and truncates toward zero — under-accounting the wire
/// time.
///
/// # Errors
///
/// [`CommError::ArithmeticOverflow`] if the wire volume exceeds
/// `u64::MAX`.
pub fn effective_wire_bytes(
    data_bytes: u64,
    protocol: Protocol,
    efficiency: BandwidthEfficiency,
) -> Result<u64, CommError> {
    let (data, wire) = protocol.wire_fraction();
    let numer = u128::from(data_bytes) * u128::from(wire) * 1_000_000u128;
    let denom = u128::from(data) * u128::from(efficiency.ppm());
    u64::try_from(numer.div_ceil(denom)).map_err(|_| CommError::ArithmeticOverflow {
        context: "effective wire bytes",
        bytes: data_bytes,
    })
}

/// Upper bound on chunk tasks per hop when [`NcclCosts::chunking`] is
/// on: beyond this the split stops refining arbitration granularity
/// and only inflates the task graph.
const MAX_CHUNKS_PER_HOP: u64 = 32;

/// Exact byte split of a `wire_bytes` transfer into chunk tasks at the
/// protocol's step granularity: `ceil(wire / chunk_bytes)` chunks,
/// capped at [`MAX_CHUNKS_PER_HOP`], sizes differing by at most one
/// byte and summing to exactly `wire_bytes` (no rounding loss — the
/// byte-conservation property the metamorphic suite checks).
pub fn chunk_split(wire_bytes: u64, protocol: Protocol) -> Vec<u64> {
    let k = wire_bytes
        .div_ceil(protocol.chunk_bytes())
        .clamp(1, MAX_CHUNKS_PER_HOP);
    let (base, rem) = (wire_bytes / k, wire_bytes % k);
    (0..k).map(|i| base + u64::from(i < rem)).collect()
}

/// Emits the occupancy of one direct-link hop as a chain of chunk
/// tasks on `res`: chunk `j+1` starts only after chunk `j` completes,
/// so the link resource is *released between chunks* and a competing
/// collective's queued chunk can slot in (FIFO per-direction
/// arbitration). `first_extra` is charged on the first chunk (the
/// direct-transfer latency term of the tree edges; zero for ring hops,
/// whose latency is a parallel delay task).
#[allow(clippy::too_many_arguments)]
fn emit_chunked_hop(
    graph: &mut TaskGraph,
    res: Option<ResourceId>,
    bandwidth: Bandwidth,
    first_extra: SimSpan,
    wire_bytes: u64,
    protocol: Protocol,
    start: TaskId,
    category: &str,
    label: &dyn fmt::Display,
) -> TaskId {
    let chunks = chunk_split(wire_bytes, protocol);
    let mut prev: Option<TaskId> = None;
    for (j, &cb) in chunks.iter().enumerate() {
        let lasting = if j == 0 {
            first_extra + bandwidth.transfer_time(cb)
        } else {
            bandwidth.transfer_time(cb)
        };
        let mut builder = graph
            .task(format_args!("{label}.c{j}"))
            .lasting(lasting)
            .category(category);
        if let Some(r) = res {
            builder = builder.on(r);
        }
        builder = match prev {
            Some(p) => builder.after(p),
            None => builder.after(start),
        };
        prev = Some(builder.build());
    }
    prev.expect("chunk_split returns at least one chunk")
}

/// Emits an NCCL-style AllReduce of `bytes` per rank, running the
/// algorithm `sel` names (ring, or the NCCL-2.4 tree over the ring's
/// rank order).
///
/// `ready` maps each participating GPU to the task after which its
/// contribution (gradient bucket) is available; `compute` maps each
/// GPU to its compute-stream resource (the overhead kernels occupy
/// it). Returns each GPU's completion task.
///
/// # Errors
///
/// [`CommError::ArithmeticOverflow`] if a wire-volume computation
/// exceeds `u64::MAX`.
///
/// # Panics
///
/// Panics if `ready`/`compute` do not cover the ring's devices.
#[allow(clippy::too_many_arguments)]
pub fn all_reduce(
    graph: &mut TaskGraph,
    net: &LinkNetwork,
    topo: &Topology,
    ring: &Ring,
    bytes: u64,
    ready: &PerGpuDone,
    compute: &BTreeMap<Device, ResourceId>,
    costs: &NcclCosts,
    sel: &Selection,
    label: impl fmt::Display,
) -> Result<PerGpuDone, CommError> {
    match sel.algorithm {
        Algorithm::Ring => ring_collective(
            graph,
            net,
            topo,
            ring,
            bytes,
            ready,
            compute,
            costs,
            sel,
            &label,
            "ReduceKernel",
            2,
        ),
        Algorithm::Tree => {
            // NCCL's tree is laid out over rank order, not the ring
            // traversal order, so sort the participants.
            let mut devs = ring.devices().to_vec();
            devs.sort();
            tree_all_reduce(
                graph, net, topo, &devs, bytes, ready, compute, costs, sel, label,
            )
        }
    }
}

/// Emits an NCCL-style ring Broadcast of `bytes`.
///
/// Same contract as [`all_reduce`]; each link carries `(N-1)/N x
/// bytes`. Broadcast is always ring-shaped — NCCL's tree algorithm
/// only applies to AllReduce — so `sel.algorithm` is ignored and only
/// the protocol and channel axes apply.
///
/// # Errors
///
/// [`CommError::ArithmeticOverflow`] if a wire-volume computation
/// exceeds `u64::MAX`.
///
/// # Panics
///
/// Panics if `ready`/`compute` do not cover the ring's devices.
#[allow(clippy::too_many_arguments)]
pub fn broadcast(
    graph: &mut TaskGraph,
    net: &LinkNetwork,
    topo: &Topology,
    ring: &Ring,
    bytes: u64,
    ready: &PerGpuDone,
    compute: &BTreeMap<Device, ResourceId>,
    costs: &NcclCosts,
    sel: &Selection,
    label: impl fmt::Display,
) -> Result<PerGpuDone, CommError> {
    ring_collective(
        graph,
        net,
        topo,
        ring,
        bytes,
        ready,
        compute,
        costs,
        sel,
        &label,
        "BroadcastKernel",
        1,
    )
}

/// Per-channel protocol processing time for `wire_bytes`, if the
/// protocol is rate-capped: an LL/LL128 channel's SM-side line packing
/// and flag spinning cannot feed an NVLink lane at line rate. This is
/// GPU-side work, so it runs *parallel* to the link occupancy (it does
/// not hold the link resource) — which is exactly why NCCL spreads
/// capped protocols over more channels: each channel's cap applies to
/// its own share only.
fn protocol_processing_time(wire_bytes: u64, protocol: Protocol) -> Option<SimSpan> {
    protocol
        .channel_rate_cap()
        .map(|cap| SimSpan::from_secs_f64(wire_bytes as f64 / cap))
}

/// Sustained per-GPU stream-processing rate of the tree kernels, in
/// bytes/s: one NVLink-lane's worth (25 GB/s). A ring rank drives
/// exactly one send and one receive stream, so its engine work is
/// already priced by the link occupancy; a tree *interior* rank fans
/// out — it must push the payload up to its parent *and* down to two
/// children (3 send streams) through the same per-GPU NCCL
/// receive/reduce/copy path, shared by every channel. This engine
/// serialisation is what keeps measured single-node tree AllReduce bus
/// bandwidth well below ring's at large sizes (arXiv:2507.04786 §V)
/// no matter how many channels are opened, and it is why the tuner's
/// large-message choice crosses back to rings.
const TREE_ENGINE_BYTES_PER_SEC: f64 = 25.0e9;

/// One channel instance's engine occupancy on GPU `streams x
/// wire_bytes` through the shared tree processing path.
fn tree_engine_time(wire_bytes: u64, streams: u64) -> SimSpan {
    let total = u128::from(streams) * u128::from(wire_bytes);
    SimSpan::from_secs_f64(total as f64 / TREE_ENGINE_BYTES_PER_SEC)
}

#[allow(clippy::too_many_arguments)]
fn ring_collective(
    graph: &mut TaskGraph,
    net: &LinkNetwork,
    topo: &Topology,
    ring: &Ring,
    bytes: u64,
    ready: &PerGpuDone,
    compute: &BTreeMap<Device, ResourceId>,
    costs: &NcclCosts,
    sel: &Selection,
    label: &dyn fmt::Display,
    kernel_name: &str,
    passes: u64,
) -> Result<PerGpuDone, CommError> {
    let n = ring.len() as u64;
    // Per-rank collective kernels: occupy the compute stream for the
    // fixed overhead plus their share of the data movement work.
    let kernel_category = format!("wu.nccl.{kernel_name}");
    let mut kernels = Vec::new();
    for &gpu in ring.devices() {
        let dep = *ready
            .get(&gpu)
            .unwrap_or_else(|| panic!("no ready task for {gpu}"));
        let res = *compute
            .get(&gpu)
            .unwrap_or_else(|| panic!("no compute resource for {gpu}"));
        let k = graph
            .task(format_args!("{label}.{kernel_name}@{gpu}"))
            .on(res)
            .lasting(costs.kernel_overhead)
            .category(&kernel_category)
            .after(dep)
            .build();
        kernels.push((gpu, k));
    }

    if n == 1 {
        // Single GPU: the kernel overhead is the whole story.
        return Ok(kernels.into_iter().collect());
    }

    // The ring starts once every rank's kernel has launched.
    let start = graph
        .task(format_args!("{label}.ring.start"))
        .category("wu.nccl.sync")
        .after_all(kernels.iter().map(|&(_, k)| k))
        .build();

    // Channels split the payload into parallel ring instances; every
    // instance still traverses the same physical links, so bandwidth
    // serialises on the link resources while the per-channel protocol
    // rate caps stop stacking.
    let chans = u64::from(sel.channels.max(1));
    let ch_bytes = bytes.div_ceil(chans);
    // Every ring link carries passes*(n-1)/n x its channel's bytes,
    // concurrently.
    let per_link_bytes = ring_per_link_bytes(passes, n, ch_bytes)?;
    let wire_bytes =
        effective_wire_bytes(per_link_bytes, sel.protocol, costs.bandwidth_efficiency)?;
    let step_overhead = sel.protocol.step_overhead(costs.step_overhead);
    let mut link_tasks = Vec::new();
    for ch in 0..chans {
        let chp = if chans == 1 {
            String::new()
        } else {
            format!(".ch{ch}")
        };
        for (i, &(from, to)) in ring.hops().iter().enumerate() {
            // The pipeline traverses each link passes*(n-1) chunk-steps.
            let steps = passes * (n - 1);
            let hop_latency = match topo.direct_link(from, to) {
                Some(l) => l.latency,
                None => topo.route(from, to).total_latency(),
            } + step_overhead;
            // Successive collectives pipeline: a link is only *occupied*
            // for the serialisation (bandwidth) term, while the chunk-step
            // latency is a parallel delay — so back-to-back buckets stream
            // without accumulating per-call latency on the links (this is
            // the pipelining the paper credits NCCL with, §V-A/§V-B).
            let occupy = match topo.direct_link(from, to) {
                Some(l) if costs.chunking => emit_chunked_hop(
                    graph,
                    net.direct_resource(topo, from, to),
                    l.bandwidth,
                    SimSpan::ZERO,
                    wire_bytes,
                    sel.protocol,
                    start,
                    "wu.nccl.ring",
                    &format_args!("{label}.ring{chp}.hop{i}"),
                ),
                Some(l) => {
                    let mut builder = graph
                        .task(format_args!("{label}.ring{chp}.hop{i}"))
                        .lasting(l.bandwidth.transfer_time(wire_bytes))
                        .category("wu.nccl.ring")
                        .after(start);
                    if let Some(res) = net.direct_resource(topo, from, to) {
                        builder = builder.on(res);
                    }
                    builder.build()
                }
                None => {
                    // Fallback rings (no NVLink cycle) bounce via the host:
                    // store-and-forward, each hop serialising the payload
                    // at its *own* link's bandwidth *on* that link's
                    // per-direction resource, so concurrent fallback
                    // transfers crossing the same PCIe/QPI leg contend
                    // (the per-hop latency term is charged via
                    // `total_latency` above; the protocol rate cap is
                    // irrelevant on these PCIe-bound paths).
                    net.occupy_route(
                        graph,
                        topo,
                        from,
                        to,
                        wire_bytes,
                        &[start],
                        "wu.nccl.ring",
                        format_args!("{label}.ring{chp}.hop{i}"),
                    )
                }
            };
            let delay = graph
                .task(format_args!("{label}.ring{chp}.hop{i}.latency"))
                .lasting(hop_latency * steps)
                .category("wu.nccl.ring.latency")
                .after(start)
                .build();
            // Rate-capped protocols also wait on their channel's
            // GPU-side line processing, which runs off the link.
            let proto = protocol_processing_time(wire_bytes, sel.protocol).map(|proc_time| {
                graph
                    .task(format_args!("{label}.ring{chp}.hop{i}.proto"))
                    .lasting(proc_time)
                    .category("wu.nccl.ring.proto")
                    .after(start)
                    .build()
            });
            let mut hop_done = graph
                .task(format_args!("{label}.ring{chp}.hop{i}.done"))
                .category("wu.nccl.sync")
                .after(occupy)
                .after(delay);
            if let Some(p) = proto {
                hop_done = hop_done.after(p);
            }
            link_tasks.push(hop_done.build());
        }
    }

    // Completion barrier, then one done-marker per GPU.
    let done = graph
        .task(format_args!("{label}.ring.done"))
        .category("wu.nccl.sync")
        .after_all(link_tasks)
        .build();
    Ok(ring
        .devices()
        .iter()
        .map(|&gpu| {
            let t = graph
                .task(format_args!("{label}.done@{gpu}"))
                .category("wu.nccl.sync")
                .after(done)
                .build();
            (gpu, t)
        })
        .collect())
}

/// Emits a *tree* AllReduce of `bytes`: reduce up a binary tree rooted
/// at the first GPU, then broadcast back down. This is the algorithm
/// NCCL 2.4 added shortly after the paper's study; it trades the
/// ring's `2(N-1)` latency steps for `2 log2 N`, fixing exactly the
/// small-message behaviour the paper saw hurt LeNet (§V-A). Chunked
/// pipelining means each tree edge is *occupied* only for its
/// serialisation time while depth contributes latency; the bandwidth
/// floor is each rank's *engine* occupancy — interior ranks funnel
/// three payload streams through one per-GPU processing path shared by
/// all channels ([`TREE_ENGINE_BYTES_PER_SEC`]), which is what keeps
/// large-message trees slower than rings however many channels open.
///
/// `gpus` must be in rank order; non-adjacent tree edges fall back to
/// the topology's relay/host routes for their bandwidth cost.
/// `sel.algorithm` is ignored (this *is* the tree); the protocol and
/// channel axes apply as in the ring emission.
///
/// # Errors
///
/// [`CommError::ArithmeticOverflow`] if a wire-volume computation
/// exceeds `u64::MAX`.
///
/// # Panics
///
/// Panics if `ready`/`compute` do not cover `gpus`, or `gpus` is empty.
#[allow(clippy::too_many_arguments)]
pub fn tree_all_reduce(
    graph: &mut TaskGraph,
    net: &LinkNetwork,
    topo: &Topology,
    gpus: &[Device],
    bytes: u64,
    ready: &PerGpuDone,
    compute: &BTreeMap<Device, ResourceId>,
    costs: &NcclCosts,
    sel: &Selection,
    label: impl fmt::Display,
) -> Result<PerGpuDone, CommError> {
    assert!(!gpus.is_empty(), "tree needs at least one GPU");
    let n = gpus.len();
    // Per-rank collective kernels, as in the ring algorithms.
    let mut kernels = Vec::new();
    for &gpu in gpus {
        let dep = *ready
            .get(&gpu)
            .unwrap_or_else(|| panic!("no ready task for {gpu}"));
        let res = *compute
            .get(&gpu)
            .unwrap_or_else(|| panic!("no compute resource for {gpu}"));
        let k = graph
            .task(format_args!("{label}.TreeReduceKernel@{gpu}"))
            .on(res)
            .lasting(costs.kernel_overhead)
            .category("wu.nccl.TreeReduceKernel")
            .after(dep)
            .build();
        kernels.push((gpu, k));
    }
    if n == 1 {
        return Ok(kernels.into_iter().collect());
    }
    let start = graph
        .task(format_args!("{label}.tree.start"))
        .category("wu.nccl.sync")
        .after_all(kernels.iter().map(|&(_, k)| k))
        .build();

    // Binary tree edges: child i -> parent (i-1)/2 in rank space; each
    // channel instance carries its ceil-share of the payload.
    let chans = u64::from(sel.channels.max(1));
    let ch_bytes = bytes.div_ceil(chans);
    let wire_bytes = effective_wire_bytes(ch_bytes, sel.protocol, costs.bandwidth_efficiency)?;
    // Each GPU's tree processing path is one capacity-1 resource shared
    // by every channel: opening more channels splits the payload but
    // not the engine, so an interior rank's 3-stream fan-out stays
    // serialised (see [`TREE_ENGINE_BYTES_PER_SEC`]).
    let engine: BTreeMap<Device, ResourceId> = gpus
        .iter()
        .map(|&gpu| {
            (
                gpu,
                graph.add_resource(format!("{label}.tree.engine@{gpu}"), 1),
            )
        })
        .collect();
    let mut edge_tasks = Vec::new();
    let mut depth = 0usize;
    {
        let mut span = 1usize;
        while span < n {
            span *= 2;
            depth += 1;
        }
    }
    for ch in 0..chans {
        let chp = if chans == 1 {
            String::new()
        } else {
            format!(".ch{ch}")
        };
        for child in 1..n {
            let parent = (child - 1) / 2;
            // Up (reduce) and down (broadcast) both cross this edge once.
            for dir in 0..2 {
                let (from, to) = if dir == 0 {
                    (gpus[child], gpus[parent])
                } else {
                    (gpus[parent], gpus[child])
                };
                // Direct tree edges chunk like ring hops when chunking
                // is on; relayed/host-bounced edges keep the staged
                // transfer emission (their legs already occupy each
                // intermediate resource separately).
                let t = match topo.direct_link(from, to) {
                    Some(l) if costs.chunking => emit_chunked_hop(
                        graph,
                        net.direct_resource(topo, from, to),
                        l.bandwidth,
                        l.latency,
                        wire_bytes,
                        sel.protocol,
                        start,
                        "wu.nccl.tree",
                        &format_args!("{label}.tree{chp}.{from}>{to}"),
                    ),
                    _ => net.transfer(
                        graph,
                        topo,
                        from,
                        to,
                        wire_bytes,
                        &[start],
                        "wu.nccl.tree",
                        format_args!("{label}.tree{chp}.{from}>{to}"),
                    ),
                };
                edge_tasks.push(t);
            }
        }
        // Per-channel GPU-side line processing for rate-capped
        // protocols, parallel to the edge transfers.
        if let Some(proc_time) = protocol_processing_time(wire_bytes, sel.protocol) {
            let proto = graph
                .task(format_args!("{label}.tree{chp}.proto"))
                .lasting(proc_time)
                .category("wu.nccl.tree.proto")
                .after(start)
                .build();
            edge_tasks.push(proto);
        }
        // Per-GPU engine occupancy: `streams` concurrent payload
        // streams funnel through each rank's shared processing path.
        // Interior ranks drive 3 (up-send plus two down-sends), the
        // root its children's count, leaves 1.
        for (i, &gpu) in gpus.iter().enumerate() {
            let children = (1..n).filter(|&c| (c - 1) / 2 == i).count() as u64;
            let streams = children + u64::from(i != 0);
            let eng = graph
                .task(format_args!("{label}.tree{chp}.engine@{gpu}"))
                .on(engine[&gpu])
                .lasting(tree_engine_time(wire_bytes, streams))
                .category("wu.nccl.tree.engine")
                .after(start)
                .build();
            edge_tasks.push(eng);
        }
    }
    // Pipeline-depth latency: 2*depth chunk steps at the protocol's
    // step cost.
    let latency = graph
        .task(format_args!("{label}.tree.latency"))
        .lasting(sel.protocol.step_overhead(costs.step_overhead) * (2 * depth as u64))
        .category("wu.nccl.tree.latency")
        .after(start)
        .build();
    let done = graph
        .task(format_args!("{label}.tree.done"))
        .category("wu.nccl.sync")
        .after_all(edge_tasks)
        .after(latency)
        .build();
    Ok(gpus
        .iter()
        .map(|&gpu| {
            let t = graph
                .task(format_args!("{label}.tree.done@{gpu}"))
                .category("wu.nccl.sync")
                .after(done)
                .build();
            (gpu, t)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use voltascope_sim::Engine;
    use voltascope_topo::dgx1_v100;

    fn zero_costs(efficiency: f64) -> NcclCosts {
        NcclCosts {
            kernel_overhead: SimSpan::ZERO,
            epoch_setup: SimSpan::ZERO,
            step_overhead: SimSpan::ZERO,
            bandwidth_efficiency: BandwidthEfficiency::new(efficiency).unwrap(),
            group_call_overhead: SimSpan::ZERO,
            tuning: TuningSpace::paper(),
            chunking: false,
        }
    }

    fn paper_costs() -> NcclCosts {
        NcclCosts {
            tuning: TuningSpace::paper(),
            ..NcclCosts::default()
        }
    }

    struct Fixture {
        topo: Topology,
        graph: TaskGraph,
        net: LinkNetwork,
        compute: BTreeMap<Device, ResourceId>,
        ready: PerGpuDone,
    }

    fn fixture(gpus: usize) -> Fixture {
        let topo = dgx1_v100();
        let mut graph = TaskGraph::new();
        let net = LinkNetwork::register(&mut graph, &topo);
        let mut compute = BTreeMap::new();
        let mut ready = BTreeMap::new();
        for g in 0..gpus {
            let d = Device::gpu(g as u8);
            let r = graph.add_resource(format!("{d}.compute"), 1);
            compute.insert(d, r);
            let t = graph.task(format!("bp@{d}")).category("bp").build();
            ready.insert(d, t);
        }
        Fixture {
            topo,
            graph,
            net,
            compute,
            ready,
        }
    }

    fn run_all_reduce(gpus: usize, bytes: u64, costs: &NcclCosts) -> SimSpan {
        let mut f = fixture(gpus);
        let ring = Ring::build(&f.topo, gpus);
        let done = all_reduce(
            &mut f.graph,
            &f.net,
            &f.topo,
            &ring,
            bytes,
            &f.ready,
            &f.compute,
            costs,
            &Selection::PAPER,
            "ar",
        )
        .unwrap();
        assert_eq!(done.len(), gpus);
        Engine::new().run(&f.graph).unwrap().makespan()
    }

    #[test]
    fn chunk_split_conserves_bytes_exactly() {
        for wire in [
            0u64,
            1,
            (512 << 10) - 1,
            512 << 10,
            (512 << 10) + 1,
            100_000_000,
            u64::MAX / 2,
        ] {
            for p in Protocol::ALL {
                let chunks = chunk_split(wire, p);
                assert!(!chunks.is_empty() && chunks.len() <= 32);
                assert_eq!(chunks.iter().sum::<u64>(), wire, "split of {wire} for {p}");
                let min = *chunks.iter().min().unwrap();
                let max = *chunks.iter().max().unwrap();
                assert!(max - min <= 1, "uneven split of {wire} for {p}");
            }
        }
        // Sub-granularity transfers stay a single task.
        assert_eq!(chunk_split(4 << 10, Protocol::Simple).len(), 1);
    }

    #[test]
    fn a_solo_chunked_ring_matches_the_whole_transfer_emission() {
        // With the link to itself, chunking changes arbitration
        // granularity but not the serialisation total: the makespans
        // agree up to per-chunk nanosecond rounding.
        let whole = run_all_reduce(4, 80_000_000, &zero_costs(1.0));
        let mut costs = zero_costs(1.0);
        costs.chunking = true;
        let chunked = run_all_reduce(4, 80_000_000, &costs);
        let diff = (chunked.as_secs_f64() - whole.as_secs_f64()).abs();
        assert!(diff < 1e-6, "chunked {chunked} vs whole {whole}");
    }

    /// Two collectives contending for the same ring links: with
    /// whole-transfer occupancy the big one (emitted first) holds every
    /// link for its full serialisation and the small one waits; with
    /// chunking the small one's chunks interleave and it finishes
    /// strictly earlier, while the total (makespan) stays conserved.
    #[test]
    fn chunk_interleaving_lets_a_small_collective_slip_past_a_big_one() {
        let run = |chunking: bool| {
            let mut costs = zero_costs(1.0);
            costs.chunking = chunking;
            let mut f = fixture(2);
            let ring = Ring::build(&f.topo, 2);
            let big = all_reduce(
                &mut f.graph,
                &f.net,
                &f.topo,
                &ring,
                64 << 20,
                &f.ready,
                &f.compute,
                &costs,
                &Selection::PAPER,
                "big",
            )
            .unwrap();
            let small = all_reduce(
                &mut f.graph,
                &f.net,
                &f.topo,
                &ring,
                8 << 20,
                &f.ready,
                &f.compute,
                &costs,
                &Selection::PAPER,
                "small",
            )
            .unwrap();
            let s = Engine::new().run(&f.graph).unwrap();
            let finish = |done: &PerGpuDone| {
                done.values()
                    .map(|&t| s.finish_time(t))
                    .max()
                    .unwrap()
                    .as_secs_f64()
            };
            (finish(&big), finish(&small), s.makespan().as_secs_f64())
        };
        let (big_serial, small_serial, mk_serial) = run(false);
        let (big_chunked, small_chunked, mk_chunked) = run(true);
        // Serialised: the small collective waits out the big one's
        // whole transfer, finishing at ~T_big + T_small.
        assert!(small_serial > big_serial);
        // Chunked: the small collective slips between the big one's
        // chunks and finishes strictly (>25%) earlier.
        assert!(
            small_chunked < 0.75 * small_serial,
            "chunked small {small_chunked} vs serialised {small_serial}"
        );
        // Link work is conserved: the combined makespan stays put.
        assert!(
            (mk_chunked - mk_serial).abs() < 1e-6 * mk_serial.max(1e-9) + 1e-6,
            "makespan drifted: {mk_chunked} vs {mk_serial}"
        );
        let _ = big_chunked;
    }

    #[test]
    fn single_gpu_all_reduce_is_pure_overhead() {
        let costs = paper_costs();
        let t = run_all_reduce(1, 1 << 30, &costs);
        assert_eq!(t, costs.kernel_overhead);
    }

    #[test]
    fn ring_time_approaches_bandwidth_optimal() {
        let costs = zero_costs(1.0);
        // 8 GPUs, 100 MB, bottleneck 25 GB/s single lanes:
        // 2*(7/8)*100MB / 25GB/s = 7 ms.
        let t = run_all_reduce(8, 100_000_000, &costs);
        let secs = t.as_secs_f64();
        assert!((0.007..0.0078).contains(&secs), "got {secs}");
    }

    #[test]
    fn all_reduce_scales_gently_with_gpu_count() {
        // Ring AllReduce volume per link is 2(N-1)/N — nearly flat in N.
        let costs = zero_costs(1.0);
        let t2 = run_all_reduce(2, 200_000_000, &costs).as_secs_f64();
        let t8 = run_all_reduce(8, 200_000_000, &costs).as_secs_f64();
        // 2-GPU ring uses the 50 GB/s double link; 8-GPU bottlenecks at
        // 25 GB/s singles: expected ratio (7/4)/(1/2) * (25/50)... keep
        // loose: under 4x.
        assert!(t8 / t2 < 4.0, "t8/t2 = {}", t8 / t2);
    }

    #[test]
    fn broadcast_moves_half_the_all_reduce_volume() {
        let costs = zero_costs(1.0);
        let mut f = fixture(4);
        let ring = Ring::build(&f.topo, 4);
        let ar = all_reduce(
            &mut f.graph,
            &f.net,
            &f.topo,
            &ring,
            80_000_000,
            &f.ready,
            &f.compute,
            &costs,
            &Selection::PAPER,
            "ar",
        )
        .unwrap();
        let bc = broadcast(
            &mut f.graph,
            &f.net,
            &f.topo,
            &ring,
            80_000_000,
            &ar,
            &f.compute,
            &costs,
            &Selection::PAPER,
            "bc",
        )
        .unwrap();
        let s = Engine::new().run(&f.graph).unwrap();
        let t_ar = s.finish_time(ar[&Device::gpu(0)]).as_secs_f64();
        let t_bc = s.finish_time(bc[&Device::gpu(0)]).as_secs_f64() - t_ar;
        assert!(
            (t_ar / t_bc - 2.0).abs() < 0.3,
            "allreduce {t_ar}, broadcast {t_bc}"
        );
    }

    #[test]
    fn kernel_overhead_lands_on_compute_streams() {
        let costs = paper_costs();
        let mut f = fixture(2);
        let ring = Ring::build(&f.topo, 2);
        let _ = all_reduce(
            &mut f.graph,
            &f.net,
            &f.topo,
            &ring,
            1 << 20,
            &f.ready,
            &f.compute,
            &costs,
            &Selection::PAPER,
            "ar",
        )
        .unwrap();
        let s = Engine::new().run(&f.graph).unwrap();
        for &res in f.compute.values() {
            assert_eq!(s.resource_stats(res).busy, costs.kernel_overhead);
        }
    }

    #[test]
    fn fallback_hops_use_store_and_forward_per_hop_pricing() {
        // Regression: the host-bounced ring fallback used to charge
        // `bottleneck_bandwidth.transfer_time(bytes * hop_count)` —
        // every hop at the *worst* link's speed. On a mixed-bandwidth
        // route (PCIe + QPI + PCIe) that overprices the QPI hop.
        let topo = voltascope_topo::pcie_only(2); // GPU0/cpu0, GPU1/cpu1
        let mut graph = TaskGraph::new();
        let net = LinkNetwork::register(&mut graph, &topo);
        let mut compute = BTreeMap::new();
        let mut ready = BTreeMap::new();
        for g in 0..2u8 {
            let d = Device::gpu(g);
            compute.insert(d, graph.add_resource(format!("{d}.compute"), 1));
            ready.insert(d, graph.task(format!("bp@{d}")).category("bp").build());
        }
        let costs = zero_costs(1.0);
        let ring = Ring::build(&topo, 2);
        let bytes = 96_000_000u64; // per-link: 2*(n-1)/n * bytes = bytes
        let _ = all_reduce(
            &mut graph,
            &net,
            &topo,
            &ring,
            bytes,
            &ready,
            &compute,
            &costs,
            &Selection::PAPER,
            "ar",
        )
        .unwrap();
        let makespan = Engine::new().run(&graph).unwrap().makespan().as_secs_f64();
        // Store-and-forward sum: PCIe (12 GB/s) + QPI (19.2 GB/s) + PCIe.
        let b = bytes as f64;
        let per_hop_sum = b / 12e9 + b / 19.2e9 + b / 12e9;
        // The old formula priced all three hops at the 12 GB/s bottleneck.
        let old_formula = 3.0 * b / 12e9;
        assert!(
            (makespan - per_hop_sum).abs() < 1e-4,
            "makespan {makespan} != per-hop sum {per_hop_sum}"
        );
        assert!(
            (makespan - old_formula).abs() > 1e-3,
            "makespan {makespan} indistinguishable from the old bottleneck formula {old_formula}"
        );
    }

    #[test]
    fn concurrent_fallback_transfers_contend_on_shared_pcie_legs() {
        // Regression: host-bounced fallback hops used to occupy *no*
        // link resources (`direct_resource` is None for routed pairs),
        // so two simultaneous fallback transfers over the same PCIe leg
        // were priced as if the leg were dedicated. They must
        // serialise on each shared per-direction leg.
        let topo = voltascope_topo::pcie_only(2);
        let mut graph = TaskGraph::new();
        let net = LinkNetwork::register(&mut graph, &topo);
        let mut compute = BTreeMap::new();
        let mut ready = BTreeMap::new();
        for g in 0..2u8 {
            let d = Device::gpu(g);
            compute.insert(d, graph.add_resource(format!("{d}.compute"), 1));
            ready.insert(d, graph.task(format!("bp@{d}")).category("bp").build());
        }
        let costs = zero_costs(1.0);
        let ring = Ring::build(&topo, 2);
        let bytes = 96_000_000u64; // per-link bytes = 2*(n-1)/n * bytes = bytes
        let a = all_reduce(
            &mut graph,
            &net,
            &topo,
            &ring,
            bytes,
            &ready,
            &compute,
            &costs,
            &Selection::PAPER,
            "ar1",
        )
        .unwrap();
        let _b = all_reduce(
            &mut graph,
            &net,
            &topo,
            &ring,
            bytes,
            &ready,
            &compute,
            &costs,
            &Selection::PAPER,
            "ar2",
        )
        .unwrap();
        assert_eq!(a.len(), 2);
        let makespan = Engine::new().run(&graph).unwrap().makespan().as_secs_f64();
        // One isolated transfer store-and-forwards PCIe (12 GB/s) + QPI
        // (19.2 GB/s) + PCIe: 8 + 5 + 8 = 21 ms. Both collectives cross
        // the same legs in the same direction, so the trailing PCIe leg
        // cannot finish its second 8 ms occupancy before ~29 ms.
        let b = bytes as f64;
        let per_hop_sum = b / 12e9 + b / 19.2e9 + b / 12e9;
        let contended = per_hop_sum + b / 12e9;
        assert!(
            makespan >= contended - 1e-3,
            "makespan {makespan} shows no contention (uncontended per-hop sum {per_hop_sum})"
        );
    }

    #[test]
    #[should_panic(expected = "no ready task")]
    fn missing_ready_task_panics() {
        let mut f = fixture(1);
        let ring = Ring::build(&f.topo, 2); // ring covers GPU1, fixture doesn't
        let costs = paper_costs();
        let _ = all_reduce(
            &mut f.graph,
            &f.net,
            &f.topo,
            &ring,
            1,
            &f.ready,
            &f.compute,
            &costs,
            &Selection::PAPER,
            "ar",
        );
    }

    // ---- Arithmetic bugfix regressions (fail before the fix). ----

    #[test]
    fn per_link_bytes_survives_multi_gb_payloads() {
        // 8 ranks, AllReduce (passes = 2): the old u64 product
        // `2 * 7 * bytes` wraps for any payload above u64::MAX / 14
        // (~1.3 exabytes of *product*, reached at ~1.3 EB / 14 ≈ 92 GB
        // per rank on 64-bit... the point: the product overflows two
        // orders of magnitude before the per-link result does).
        let bytes = u64::MAX / 14 + 1;
        let wrapped = (2u64.wrapping_mul(7).wrapping_mul(bytes)) / 8;
        let correct = ring_per_link_bytes(2, 8, bytes).unwrap();
        // The old formula wrapped to a tiny nonsense value.
        assert!(wrapped < correct, "old {wrapped} vs fixed {correct}");
        let expect = (u128::from(bytes) * 14).div_ceil(8) as u64;
        assert_eq!(correct, expect);
    }

    #[test]
    fn per_link_bytes_rounds_up() {
        // Broadcast (passes = 1), 8 ranks, 9 bytes: 7*9/8 = 7.875.
        // Floor under-accounted to 7; a ring can never move a partial
        // byte, so the link must carry 8.
        assert_eq!(ring_per_link_bytes(1, 8, 9).unwrap(), 8);
        // Exact divisions stay exact.
        assert_eq!(ring_per_link_bytes(2, 8, 4).unwrap(), 14 * 4 / 8);
        // Minimal payload: 1 byte still crosses every link.
        assert_eq!(ring_per_link_bytes(2, 8, 1).unwrap(), 2);
    }

    #[test]
    fn per_link_bytes_reports_true_overflow() {
        // 8 ranks, AllReduce: per-link volume is 1.75x the payload, so
        // a near-u64::MAX payload is genuinely unrepresentable.
        let err = ring_per_link_bytes(2, 8, u64::MAX).unwrap_err();
        assert!(matches!(err, CommError::ArithmeticOverflow { .. }));
        assert!(err.to_string().contains("ring per-link bytes"));
    }

    #[test]
    fn effective_bytes_is_exact_above_2_pow_53() {
        // (2^53 + 1) as f64 rounds to 2^53: the old f64 round-trip
        // silently dropped the low bit even at efficiency 1.0.
        let bytes = (1u64 << 53) + 1;
        let eff = BandwidthEfficiency::new(1.0).unwrap();
        let old = (bytes as f64 / eff.as_f64()) as u64;
        assert_eq!(old, 1u64 << 53, "f64 loses the +1");
        assert_eq!(
            effective_wire_bytes(bytes, Protocol::Simple, eff).unwrap(),
            bytes
        );
    }

    #[test]
    fn effective_bytes_rounds_up_instead_of_truncating() {
        // 10 bytes at 85%: 10/0.85 = 11.76; the old cast truncated to
        // 11, under-charging the wire.
        let eff = BandwidthEfficiency::default();
        assert_eq!(effective_wire_bytes(10, Protocol::Simple, eff).unwrap(), 12);
    }

    #[test]
    fn effective_bytes_applies_the_wire_fraction() {
        let eff = BandwidthEfficiency::new(1.0).unwrap();
        // LL: 4 data bytes per 8-byte line -> 2x expansion.
        assert_eq!(
            effective_wire_bytes(1 << 20, Protocol::Ll, eff).unwrap(),
            2 << 20
        );
        // LL128: 120 data bytes per 128-byte line -> 16/15 expansion.
        assert_eq!(
            effective_wire_bytes(15 << 20, Protocol::Ll128, eff).unwrap(),
            16 << 20
        );
    }

    #[test]
    fn effective_bytes_reports_overflow() {
        let eff = BandwidthEfficiency::new(0.5).unwrap();
        assert!(matches!(
            effective_wire_bytes(u64::MAX, Protocol::Ll, eff),
            Err(CommError::ArithmeticOverflow { .. })
        ));
    }

    // ---- Protocol and channel axes. ----

    #[test]
    fn ll_wins_small_messages_simple_wins_large() {
        let costs = paper_costs();
        let sel = |protocol| Selection {
            protocol,
            ..Selection::PAPER
        };
        let run = |bytes: u64, s: &Selection| {
            let mut f = fixture(8);
            let ring = Ring::build(&f.topo, 8);
            all_reduce(
                &mut f.graph,
                &f.net,
                &f.topo,
                &ring,
                bytes,
                &f.ready,
                &f.compute,
                &costs,
                s,
                "ar",
            )
            .unwrap();
            Engine::new().run(&f.graph).unwrap().makespan()
        };
        let small = 4 << 10;
        let large = 256 << 20;
        assert!(
            run(small, &sel(Protocol::Ll)) < run(small, &sel(Protocol::Simple)),
            "LL must win 4 KB messages"
        );
        assert!(
            run(large, &sel(Protocol::Simple)) < run(large, &sel(Protocol::Ll)),
            "Simple must win 256 MB messages"
        );
    }

    #[test]
    fn extra_channels_lift_the_ll_rate_cap() {
        // A single LL channel is capped at 5 GB/s; four channels split
        // the payload and overlap their capped serialisation.
        let costs = paper_costs();
        let run = |channels: u32| {
            let mut f = fixture(8);
            let ring = Ring::build(&f.topo, 8);
            let sel = Selection {
                protocol: Protocol::Ll,
                channels,
                ..Selection::PAPER
            };
            all_reduce(
                &mut f.graph,
                &f.net,
                &f.topo,
                &ring,
                16 << 20,
                &f.ready,
                &f.compute,
                &costs,
                &sel,
                "ar",
            )
            .unwrap();
            Engine::new().run(&f.graph).unwrap().makespan()
        };
        assert!(
            run(4) < run(1),
            "4 LL channels should beat 1 on a 16 MB payload"
        );
    }

    #[test]
    fn multi_channel_emission_is_deadlock_free_and_labelled() {
        let costs = paper_costs();
        let mut f = fixture(4);
        let ring = Ring::build(&f.topo, 4);
        let sel = Selection {
            channels: 2,
            ..Selection::PAPER
        };
        let done = all_reduce(
            &mut f.graph,
            &f.net,
            &f.topo,
            &ring,
            1 << 20,
            &f.ready,
            &f.compute,
            &costs,
            &sel,
            "ar",
        )
        .unwrap();
        assert_eq!(done.len(), 4);
        let s = Engine::new().run(&f.graph).unwrap();
        assert!(!s.makespan().is_zero());
    }
}

#[cfg(test)]
mod tree_tests {
    use super::*;
    use voltascope_sim::Engine;
    use voltascope_topo::dgx1_v100;

    fn paper_costs() -> NcclCosts {
        NcclCosts {
            tuning: TuningSpace::paper(),
            ..NcclCosts::default()
        }
    }

    fn fixture(
        gpus: usize,
    ) -> (
        Topology,
        TaskGraph,
        LinkNetwork,
        BTreeMap<Device, ResourceId>,
        PerGpuDone,
        Vec<Device>,
    ) {
        let topo = dgx1_v100();
        let mut graph = TaskGraph::new();
        let net = LinkNetwork::register(&mut graph, &topo);
        let mut compute = BTreeMap::new();
        let mut ready = BTreeMap::new();
        let mut devs = Vec::new();
        for g in 0..gpus {
            let d = Device::gpu(g as u8);
            devs.push(d);
            compute.insert(d, graph.add_resource(format!("{d}.compute"), 1));
            let t = graph.task(format!("bp@{d}")).category("bp").build();
            ready.insert(d, t);
        }
        (topo, graph, net, compute, ready, devs)
    }

    #[test]
    fn tree_all_reduce_completes_for_all_gpu_counts() {
        for gpus in [1usize, 2, 4, 8] {
            let (topo, mut graph, net, compute, ready, devs) = fixture(gpus);
            let done = tree_all_reduce(
                &mut graph,
                &net,
                &topo,
                &devs,
                1 << 20,
                &ready,
                &compute,
                &paper_costs(),
                &Selection::PAPER,
                "tar",
            )
            .unwrap();
            assert_eq!(done.len(), gpus);
            let s = Engine::new().run(&graph).unwrap();
            assert!(!s.makespan().is_zero());
        }
    }

    #[test]
    fn a_solo_chunked_tree_matches_the_whole_transfer_emission() {
        let run = |chunking: bool| {
            let mut costs = paper_costs();
            costs.chunking = chunking;
            let (topo, mut graph, net, compute, ready, devs) = fixture(8);
            let _ = tree_all_reduce(
                &mut graph,
                &net,
                &topo,
                &devs,
                16 << 20,
                &ready,
                &compute,
                &costs,
                &Selection::PAPER,
                "tar",
            )
            .unwrap();
            Engine::new().run(&graph).unwrap().makespan()
        };
        let whole = run(false);
        let chunked = run(true);
        let diff = (chunked.as_secs_f64() - whole.as_secs_f64()).abs();
        assert!(diff < 1e-6, "chunked {chunked} vs whole {whole}");
    }

    #[test]
    fn tree_beats_ring_on_latency_bound_small_messages() {
        // Tiny buckets: ring pays 2(N-1) chunk steps, tree 2 log2 N.
        let costs = paper_costs();
        let small = 4 * 1024u64;

        let (topo, mut g1, net1, c1, r1, devs) = fixture(8);
        let ring = Ring::build(&topo, 8);
        let _ = all_reduce(
            &mut g1,
            &net1,
            &topo,
            &ring,
            small,
            &r1,
            &c1,
            &costs,
            &Selection::PAPER,
            "ring",
        )
        .unwrap();
        let t_ring = Engine::new().run(&g1).unwrap().makespan();

        let (topo2, mut g2, net2, c2, r2, devs2) = fixture(8);
        let _ = tree_all_reduce(
            &mut g2,
            &net2,
            &topo2,
            &devs2,
            small,
            &r2,
            &c2,
            &costs,
            &Selection::PAPER,
            "tree",
        )
        .unwrap();
        let t_tree = Engine::new().run(&g2).unwrap().makespan();

        assert!(
            t_tree < t_ring,
            "tree {t_tree} should beat ring {t_ring} on small messages"
        );
        let _ = devs;
    }

    #[test]
    fn ring_beats_tree_on_bandwidth_bound_large_messages() {
        // Large buckets: the tree root's links carry multiple children's
        // full payloads; the ring splits the load across all links.
        let costs = paper_costs();
        let big = 200_000_000u64;

        let (topo, mut g1, net1, c1, r1, _devs) = fixture(8);
        let ring = Ring::build(&topo, 8);
        let _ = all_reduce(
            &mut g1,
            &net1,
            &topo,
            &ring,
            big,
            &r1,
            &c1,
            &costs,
            &Selection::PAPER,
            "ring",
        )
        .unwrap();
        let t_ring = Engine::new().run(&g1).unwrap().makespan();

        let (topo2, mut g2, net2, c2, r2, devs2) = fixture(8);
        let _ = tree_all_reduce(
            &mut g2,
            &net2,
            &topo2,
            &devs2,
            big,
            &r2,
            &c2,
            &costs,
            &Selection::PAPER,
            "tree",
        )
        .unwrap();
        let t_tree = Engine::new().run(&g2).unwrap().makespan();

        assert!(
            t_ring < t_tree,
            "ring {t_ring} should beat tree {t_tree} on large messages"
        );
    }

    #[test]
    fn all_reduce_dispatches_to_the_tree_algorithm() {
        // all_reduce with a tree selection must equal a direct
        // tree_all_reduce over the ring's rank order.
        let costs = paper_costs();
        let sel = Selection {
            algorithm: Algorithm::Tree,
            ..Selection::PAPER
        };
        let (topo, mut g1, net1, c1, r1, _devs) = fixture(8);
        let ring = Ring::build(&topo, 8);
        let _ = all_reduce(
            &mut g1,
            &net1,
            &topo,
            &ring,
            1 << 20,
            &r1,
            &c1,
            &costs,
            &sel,
            "t",
        )
        .unwrap();
        let via_dispatch = Engine::new().run(&g1).unwrap().makespan();

        let (topo2, mut g2, net2, c2, r2, _devs2) = fixture(8);
        let ring2 = Ring::build(&topo2, 8);
        let _ = tree_all_reduce(
            &mut g2,
            &net2,
            &topo2,
            ring2.devices(),
            1 << 20,
            &r2,
            &c2,
            &costs,
            &sel,
            "t",
        )
        .unwrap();
        let direct = Engine::new().run(&g2).unwrap().makespan();
        assert_eq!(via_dispatch, direct);
    }
}

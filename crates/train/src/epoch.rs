//! Epoch-level timing simulation of data-parallel training.
//!
//! Lowers one training configuration (workload x batch x GPU count x
//! communication method) onto the discrete-event engine: CUDA API calls
//! on per-GPU host threads, FP/BP kernels on per-GPU compute streams,
//! gradient/weight movement on per-direction link resources, following
//! the schedule of the paper's Fig. 1 with MXNet's BP/WU overlap
//! (gradient buckets communicate as soon as their backward kernel
//! finishes).
//!
//! Three pipelined iterations are simulated in detail; the steady-state
//! iteration time (iteration 3 minus iteration 2) is extrapolated to
//! the full epoch. This matches the paper's own observation that "the
//! time spent during each of the three stages within an epoch will
//! remain the same" (§IV-B).
//!
//! [`EpochRequest::run`] is the one entry point: it validates the
//! request and returns a typed [`EpochError`] instead of panicking.
//! [`simulate_epoch_lowered`] is its panicking shim.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Range, RangeInclusive};

use voltascope_comm::tuner::TunerMemo;
use voltascope_comm::{
    collective, CommError, CommMethod, LinkNetwork, ReductionTree, Ring, Selection,
};
use voltascope_dnn::{GradientBucket, Stage};
use voltascope_gpu::{ApiCall, ApiCostModel, GpuSpec, KernelCostModel};
use voltascope_sim::{
    DynamicEvent, Engine, ResourceId, Schedule, SimError, SimSpan, SimTime, TaskGraph, TaskId,
    Trace,
};
use voltascope_topo::{dgx1_v100, Device, FaultError, FaultSpec, Topology};
use voltascope_workload::{LowerError, LoweredWorkload};

use crate::dataset::{DatasetSpec, ScalingMode};
use crate::dynamic::MidEpochFault;

/// The simulated hardware/software platform.
#[derive(Debug, Clone)]
pub struct SystemModel {
    /// Interconnect topology.
    pub topo: Topology,
    /// GPU hardware spec.
    pub gpu: GpuSpec,
    /// Kernel execution cost model.
    pub kernels: KernelCostModel,
    /// CUDA runtime API cost model.
    pub api: ApiCostModel,
    /// NCCL backend cost model.
    pub nccl: collective::NcclCosts,
    /// Host-side per-GPU per-iteration dispatch cost (data iterator +
    /// kvstore push/pull bookkeeping), serialised on MXNet's single
    /// scheduling thread. This is what caps LeNet's multi-GPU speedup:
    /// at 8 GPUs roughly a millisecond of serial host work per
    /// iteration cannot be parallelised away (cf. the cudaStream-
    /// Synchronize discussion of §V-C).
    pub host_dispatch: SimSpan,
    /// Host-side orchestration cost per P2P WU transfer (kvstore
    /// `device` mode issues each per-key, per-pair copy individually:
    /// event wait + cudaMemcpyPeerAsync + completion callback). Charged
    /// on the source GPU's host thread; with 57-190 gradient buckets
    /// this is the per-key tax that lets NCCL's grouped collectives
    /// win on the deep networks (§V-A).
    pub p2p_issue: SimSpan,
    /// Whether gradient communication for a layer may start as soon as
    /// that layer's backward kernel finishes (`true`), or only after
    /// the whole backward pass (`false`). The paper notes MXNet
    /// "supports pipelining of WU and BP" but that only *some* latency
    /// is hidden (§II-B, §V-C footnote 6); the 2018-era kvstore pull
    /// blocked per iteration, so the calibrated default is `false`.
    /// Flipping this is the overlap ablation of DESIGN.md §5.
    pub bp_wu_overlap: bool,
    /// Per-GPU compute slowdown factors (>= 1): a straggler or
    /// thermally-throttled device runs all its kernels this much
    /// slower. Devices not listed run at full speed. Populated by
    /// [`SystemModel::with_faults`]; empty on a healthy system.
    pub gpu_slowdown: BTreeMap<Device, f64>,
    /// Concurrent kernels a GPU's compute resource admits. The
    /// calibrated default is 1 — one serial compute stream per GPU,
    /// matching the MXNet behaviour the paper profiles, under which
    /// DAG-shaped workloads still serialise. Raising it lets
    /// independent branches of a DAG-lowered workload (v2 `dep` edges)
    /// overlap, modelling multi-stream execution; linear chains are
    /// unaffected because their kernels are dependency-serialised.
    pub compute_streams: u32,
}

impl SystemModel {
    /// The paper's Volta-based DGX-1 with default calibration.
    pub fn dgx1() -> Self {
        let gpu = GpuSpec::tesla_v100();
        let kernels = KernelCostModel::new(&gpu);
        SystemModel {
            topo: dgx1_v100(),
            gpu,
            kernels,
            api: ApiCostModel::default(),
            nccl: collective::NcclCosts::default(),
            host_dispatch: SimSpan::from_micros(130),
            p2p_issue: SimSpan::from_micros(70),
            bp_wu_overlap: false,
            gpu_slowdown: BTreeMap::new(),
            compute_streams: 1,
        }
    }

    /// Derives the degraded system described by `faults`: the topology
    /// is rewired around dead/downgraded links (see
    /// [`Topology::apply`]) and per-GPU straggler factors are recorded
    /// for the kernel model. An empty fault spec returns an identical
    /// system.
    ///
    /// # Panics
    ///
    /// Panics with the [`FaultError`]'s message when `faults` is
    /// invalid for the topology ([`Topology::try_apply`]).
    pub fn with_faults(&self, faults: &FaultSpec) -> SystemModel {
        self.try_with_faults(faults)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`SystemModel::with_faults`], returning the spec's
    /// [`FaultError`] instead of panicking.
    pub(crate) fn try_with_faults(&self, faults: &FaultSpec) -> Result<SystemModel, FaultError> {
        let mut sys = self.clone();
        sys.topo = self.topo.try_apply(faults)?;
        for (&g, &f) in faults.gpu_slowdowns() {
            *sys.gpu_slowdown.entry(g).or_insert(1.0) *= f;
        }
        Ok(sys)
    }

    /// Kernel cost model for device `g`, accounting for any straggler
    /// slowdown. Healthy devices get a plain copy of the shared model,
    /// so fault-free simulations are bit-identical to a system without
    /// the fault machinery.
    pub(crate) fn kernels_of(&self, g: Device) -> KernelCostModel {
        match self.gpu_slowdown.get(&g) {
            Some(&f) if f != 1.0 => self.kernels.slowed(f),
            _ => self.kernels.clone(),
        }
    }
}

/// One training configuration to simulate.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Per-GPU mini-batch size (the paper sweeps 16/32/64).
    pub batch_per_gpu: usize,
    /// Number of GPUs (1/2/4/8).
    pub gpu_count: usize,
    /// Communication method for the WU stage.
    pub comm: CommMethod,
    /// Strong or weak scaling.
    pub scaling: ScalingMode,
    /// Dataset size description.
    pub dataset: DatasetSpec,
    /// Gradient-bucket fusion threshold in bytes: consecutive per-layer
    /// buckets (in backward-completion order) are merged until each
    /// fused bucket reaches this size. `0` keeps MXNet's per-layer
    /// buckets (the paper's behaviour); larger values trade per-bucket
    /// overhead against pipelining granularity — the bucket-size
    /// ablation of DESIGN.md SS5 and the optimisation later popularised
    /// by Horovod/DDP.
    pub bucket_fusion_bytes: u64,
}

impl TrainConfig {
    /// A strong-scaling ImageNet-256K configuration (the paper's
    /// default protocol).
    pub fn strong(batch_per_gpu: usize, gpu_count: usize, comm: CommMethod) -> Self {
        TrainConfig {
            batch_per_gpu,
            gpu_count,
            comm,
            scaling: ScalingMode::Strong,
            dataset: DatasetSpec::imagenet_256k(),
            bucket_fusion_bytes: 0,
        }
    }
}

/// Results of simulating one epoch.
#[derive(Debug, Clone)]
pub struct EpochReport {
    /// Iterations (mini-batches per GPU) in the epoch.
    pub iterations: u64,
    /// Steady-state duration of one iteration.
    pub iter_time: SimSpan,
    /// Full epoch duration (setup + pipeline fill + steady iterations).
    pub epoch_time: SimSpan,
    /// Wall time per iteration during which FP or BP kernels were
    /// executing on at least one GPU.
    pub fp_bp_iter: SimSpan,
    /// Exposed (non-overlapped) weight-update time per iteration.
    pub wu_iter: SimSpan,
    /// Per-iteration totals of every `api.*` category (call durations).
    pub api_iter: BTreeMap<String, SimSpan>,
    /// Per-iteration, per-GPU average wall time attributed to
    /// `cudaStreamSynchronize`, including the time the host thread sits
    /// blocked inside the call (what nvprof reports for it).
    pub sync_wall_iter: SimSpan,
    /// Mean compute-stream utilisation across GPUs in steady state.
    pub compute_utilization: f64,
    /// Steady-state iteration trace (times rebased to the iteration
    /// start) for profiler reports.
    pub iter_trace: Trace,
    /// The schedule's blocking chain through the middle (steady-state)
    /// iteration, oldest first: each task was what its successor
    /// actually waited on last — dependency or resource contention —
    /// so this is the simulated critical path. Labels are the
    /// middle-iteration task labels with the iteration prefix
    /// stripped (e.g. `fp.conv1@gpu0`).
    pub critical_chain: Vec<String>,
}

impl EpochReport {
    /// FP+BP time over the whole epoch.
    pub fn fp_bp_epoch(&self) -> SimSpan {
        self.fp_bp_iter * self.iterations
    }

    /// Exposed WU time over the whole epoch.
    pub fn wu_epoch(&self) -> SimSpan {
        self.wu_iter * self.iterations
    }

    /// `cudaStreamSynchronize` share of the epoch, in percent
    /// (Table III's metric).
    pub fn sync_percent(&self) -> f64 {
        100.0 * (self.sync_wall_iter * self.iterations).ratio(self.epoch_time)
    }
}

/// Why an [`EpochRequest`] could not be simulated.
#[derive(Debug, Clone, PartialEq)]
pub enum EpochError {
    /// The workload could not be lowered.
    Lower(LowerError),
    /// NCCL tuning or a collective's emission failed.
    Comm(CommError),
    /// The fault spec is invalid for the topology.
    Fault(FaultError),
    /// The engine could not schedule the epoch's task graph.
    Sim(SimError),
    /// The configuration asks for a per-GPU batch of zero.
    ZeroBatch,
    /// The workload was lowered for a different batch than the
    /// configuration asks for.
    BatchMismatch {
        /// The batch the workload was lowered for.
        workload: usize,
        /// The batch the configuration asks for.
        config: usize,
    },
    /// The GPU count is zero or more than the topology has.
    GpuCount {
        /// The requested GPU count.
        requested: usize,
        /// The topology's GPU count.
        available: usize,
    },
    /// A mid-epoch fault fraction that is NaN, infinite or negative.
    FaultFraction(f64),
    /// A hand-built workload with no kernels.
    NoKernels(String),
    /// A fused gradient bucket that no `bp.<layer>` kernel produces.
    OrphanBucket(String),
    /// A DAG whose layer count disagrees with the kernels, or whose
    /// edges name a layer it does not have.
    DagMismatch {
        /// Layers in the DAG.
        layers: usize,
        /// Kernels in the workload (two per layer expected).
        kernels: usize,
    },
    /// The epoch model's own `u64` or [`SimSpan`] arithmetic
    /// overflowed; names the quantity.
    Overflow(&'static str),
}

impl fmt::Display for EpochError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EpochError::Lower(e) => e.fmt(f),
            EpochError::Comm(e) => e.fmt(f),
            EpochError::Fault(e) => e.fmt(f),
            EpochError::Sim(e) => e.fmt(f),
            EpochError::ZeroBatch => write!(f, "batch size must be positive"),
            EpochError::BatchMismatch { workload, config } => write!(
                f,
                "workload lowered for batch {workload} but config asks for {config}"
            ),
            EpochError::GpuCount {
                requested,
                available,
            } => write!(
                f,
                "gpu_count {requested} out of range (the topology has {available})"
            ),
            EpochError::FaultFraction(x) => {
                write!(f, "fault fraction {x} must be finite and non-negative")
            }
            EpochError::NoKernels(w) => write!(f, "workload `{w}` has no kernels"),
            EpochError::OrphanBucket(b) => {
                write!(f, "gradient bucket `{b}` has no backward kernel")
            }
            EpochError::DagMismatch { layers, kernels } => {
                write!(f, "a DAG of {layers} layers does not fit {kernels} kernels")
            }
            EpochError::Overflow(what) => write!(f, "{what} overflows u64"),
        }
    }
}

impl std::error::Error for EpochError {}

impl From<LowerError> for EpochError {
    fn from(e: LowerError) -> Self {
        EpochError::Lower(e)
    }
}

impl From<CommError> for EpochError {
    fn from(e: CommError) -> Self {
        EpochError::Comm(e)
    }
}

impl From<FaultError> for EpochError {
    fn from(e: FaultError) -> Self {
        EpochError::Fault(e)
    }
}

impl From<SimError> for EpochError {
    fn from(e: SimError) -> Self {
        EpochError::Sim(e)
    }
}

/// One epoch of data-parallel training to simulate: the platform, the
/// lowered workload (a [`WorkloadSpec`](voltascope_workload::WorkloadSpec)
/// or a built model lowered at the config's batch), the configuration,
/// an optional fault striking partway through, and the memo the NCCL
/// tuning decisions are priced through. A sweep passes one memo to
/// every cell so each distinct decision is simulated once; the report
/// does not depend on what the memo holds. A one-off caller passes
/// `&TunerMemo::new()`, which does not allocate.
///
/// # Example
///
/// ```
/// use voltascope_comm::{tuner::TunerMemo, CommMethod};
/// use voltascope_dnn::zoo;
/// use voltascope_train::{EpochError, EpochRequest, SystemModel, TrainConfig};
/// use voltascope_workload::lower_model;
///
/// let sys = SystemModel::dgx1();
/// let lenet = lower_model(&zoo::lenet(), 16).unwrap();
/// let tuner = TunerMemo::new();
/// let epoch = |gpus| {
///     let cfg = TrainConfig::strong(16, gpus, CommMethod::P2p);
///     EpochRequest { sys: &sys, workload: &lenet, cfg: &cfg, fault: None, tuner: &tuner }.run()
/// };
/// let (one, four) = (epoch(1).unwrap(), epoch(4).unwrap());
/// // More GPUs train faster, but sublinearly for tiny LeNet.
/// assert!(four.epoch_time < one.epoch_time);
/// assert!(four.epoch_time > one.epoch_time / 4);
/// // The DGX-1 has eight GPUs.
/// assert!(matches!(epoch(9), Err(EpochError::GpuCount { requested: 9, .. })));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct EpochRequest<'a> {
    /// The simulated platform. With a `fault`, the healthy one.
    pub sys: &'a SystemModel,
    /// The workload, lowered for `cfg.batch_per_gpu`.
    pub workload: &'a LoweredWorkload,
    /// The training configuration.
    pub cfg: &'a TrainConfig,
    /// A fault striking partway through the epoch (see
    /// [`crate::dynamic`]).
    pub fault: Option<&'a MidEpochFault>,
    /// The memo NCCL tuning decisions are priced through.
    pub tuner: &'a TunerMemo,
}

impl EpochRequest<'_> {
    /// Simulates the epoch. With a `fault`, the report's steady-state
    /// columns (`iter_time`, `iter_trace`, utilisation, ...) describe
    /// the post-fault regime and `epoch_time` is the piecewise epoch;
    /// a fault that never fires returns the healthy report, one that
    /// fires at iteration 0 the statically degraded one.
    ///
    /// # Errors
    ///
    /// Any [`EpochError`]: a degenerate configuration or hand-built
    /// workload, an invalid fault, a failed tuning decision, or an
    /// overflow of the epoch model's arithmetic.
    pub fn run(&self) -> Result<EpochReport, EpochError> {
        let (cfg, workload) = (self.cfg, self.workload);
        if cfg.batch_per_gpu == 0 {
            return Err(EpochError::ZeroBatch);
        }
        if workload.batch != cfg.batch_per_gpu {
            return Err(EpochError::BatchMismatch {
                workload: workload.batch,
                config: cfg.batch_per_gpu,
            });
        }
        let available = self.sys.topo.gpu_count();
        if cfg.gpu_count == 0 || cfg.gpu_count > available {
            return Err(EpochError::GpuCount {
                requested: cfg.gpu_count,
                available,
            });
        }
        if workload.buckets.is_empty() {
            return Err(LowerError::NoParameters(workload.name.clone()).into());
        }
        if let Some(dag) = &workload.dag {
            let n = dag.preds.len();
            let in_range = dag.preds.iter().chain(&dag.succs).flatten().all(|&l| l < n);
            if 2 * n != workload.kernels.len() || dag.succs.len() != n || !in_range {
                return Err(EpochError::DagMismatch {
                    layers: n,
                    kernels: workload.kernels.len(),
                });
            }
        }
        match self.fault {
            None => {
                let epoch = assemble(self)?;
                let schedule = Engine::new().run(&epoch.graph)?;
                epoch.extract(cfg, &schedule)
            }
            Some(fault) => crate::dynamic::run_faulted(self, fault),
        }
    }
}

/// Simulates one epoch of data-parallel training from an
/// already-lowered workload: [`EpochRequest::run`] without a fault and
/// with a call-local tuner memo.
///
/// # Panics
///
/// Panics with the [`EpochError`]'s message where
/// [`EpochRequest::run`] returns one.
pub fn simulate_epoch_lowered(
    sys: &SystemModel,
    workload: &LoweredWorkload,
    cfg: &TrainConfig,
) -> EpochReport {
    let tuner = TunerMemo::new();
    let request = EpochRequest {
        sys,
        workload,
        cfg,
        fault: None,
        tuner: &tuner,
    };
    request.run().unwrap_or_else(|e| panic!("{e}"))
}

/// Bucket fusion: merges consecutive per-layer gradient buckets (in
/// backward-completion order) until each fused bucket reaches
/// `threshold` bytes; a tail that never reaches it joins the previous
/// fused bucket. A threshold of `0` keeps the per-layer buckets.
/// Returns each fused bucket, named `bucket{i}`, with the range of
/// `layer_buckets` it holds; it is ready when its last member's
/// backward kernel finishes.
///
/// # Errors
///
/// [`EpochError::Overflow`] when a fused bucket's bytes overflow `u64`.
pub fn fuse_buckets(
    layer_buckets: &[GradientBucket],
    threshold: u64,
) -> Result<Vec<(GradientBucket, Range<usize>)>, EpochError> {
    let overflow = || EpochError::Overflow("fused gradient bucket bytes");
    let mut fused: Vec<(GradientBucket, Range<usize>)> = Vec::new();
    let (mut start, mut acc) = (0, 0u64);
    for (i, b) in layer_buckets.iter().enumerate() {
        acc = acc.checked_add(b.bytes).ok_or_else(overflow)?;
        if acc >= threshold.max(1) {
            let name = format!("bucket{}", fused.len());
            fused.push((GradientBucket { name, bytes: acc }, start..i + 1));
            (start, acc) = (i + 1, 0);
        }
    }
    if start < layer_buckets.len() {
        match fused.last_mut() {
            Some((last, members)) => {
                last.bytes = last.bytes.checked_add(acc).ok_or_else(overflow)?;
                members.end = layer_buckets.len();
            }
            None => {
                let name = "bucket0".to_string();
                fused.push((GradientBucket { name, bytes: acc }, 0..layer_buckets.len()));
            }
        }
    }
    Ok(fused)
}

/// `Σ span × count`, or [`EpochError::Overflow`] when it leaves the
/// `u64` nanosecond range.
pub(crate) fn epoch_span(terms: &[(SimSpan, u64)]) -> Result<SimSpan, EpochError> {
    terms
        .iter()
        .try_fold(0u64, |acc, &(span, n)| {
            span.as_nanos().checked_mul(n)?.checked_add(acc)
        })
        .map(SimSpan::from_nanos)
        .ok_or(EpochError::Overflow("epoch time"))
}

/// The three iteration-marker finish instants (pipeline fill `t0`,
/// then the steady-state window ends `t1`, `t2`) of an already
/// validated request's lowering, run with a mid-run dynamic-event
/// hook: `events` sees the assembled task graph (to resolve resources
/// by name) and returns the [`DynamicEvent`]s to inject; the engine
/// then runs via [`Engine::run_with_events`]. With no events the run
/// is [`EpochRequest::run`]'s fault-free one ([`Engine::run`]), so the
/// healthy path cannot drift. Derives no report: the mid-epoch fault
/// model in [`crate::dynamic`] needs only these instants from its
/// healthy and transition runs. Ignores `req.fault`.
pub(crate) fn marker_instants(
    req: &EpochRequest<'_>,
    events: impl FnOnce(&TaskGraph) -> Result<Vec<DynamicEvent>, FaultError>,
) -> Result<[SimTime; 3], EpochError> {
    let epoch = assemble(req)?;
    let dynamic = events(&epoch.graph)?;
    let schedule = Engine::new().run_with_events(&epoch.graph, &dynamic)?;
    Ok(epoch.markers.map(|m| schedule.finish_time(m)))
}

/// The task graph of one epoch's three pipelined iterations, with the
/// tasks its report is read from.
struct EpochGraph {
    graph: TaskGraph,
    /// Each iteration's `iter.done` marker, in iteration order.
    markers: [TaskId; 3],
    /// (sync task, host predecessor) pairs of the middle iteration,
    /// for blocking-time attribution.
    sync_pairs: Vec<(TaskId, TaskId)>,
}

/// Lowers an already validated request to its [`EpochGraph`].
fn assemble(req: &EpochRequest<'_>) -> Result<EpochGraph, EpochError> {
    let (sys, workload, cfg, tuner) = (req.sys, req.workload, req.cfg, req.tuner);
    let mut graph = TaskGraph::new();
    let net = LinkNetwork::register(&mut graph, &sys.topo);
    let gpus: Vec<Device> = (0..cfg.gpu_count).map(|g| Device::gpu(g as u8)).collect();
    let compute: BTreeMap<Device, ResourceId> = gpus
        .iter()
        .map(|&d| {
            (
                d,
                graph.add_resource(format!("{d}.compute"), sys.compute_streams.max(1)),
            )
        })
        .collect();
    let host: BTreeMap<Device, ResourceId> = gpus
        .iter()
        .map(|&d| (d, graph.add_resource(format!("{d}.host"), 1)))
        .collect();
    let scheduler = graph.add_resource("host.scheduler", 1);
    // Per-device kernel models: healthy GPUs share the system model's
    // numbers, stragglers get a uniformly slowed copy.
    let kmodels: BTreeMap<Device, KernelCostModel> =
        gpus.iter().map(|&d| (d, sys.kernels_of(d))).collect();

    let kernels = &workload.kernels;
    let fused = fuse_buckets(&workload.buckets, cfg.bucket_fusion_bytes)?;
    // Which fused bucket each layer's gradients travel in.
    let mut bucket_index: BTreeMap<&str, usize> = BTreeMap::new();
    for (i, (_, members)) in fused.iter().enumerate() {
        for b in &workload.buckets[members.clone()] {
            bucket_index.insert(&b.name, i);
        }
    }
    let buckets: Vec<GradientBucket> = fused.into_iter().map(|(b, _)| b).collect();
    // The weight-update kernels move up to 5x a bucket's bytes.
    if buckets.iter().any(|b| b.bytes.checked_mul(5).is_none()) {
        return Err(EpochError::Overflow("weight-update traffic"));
    }
    let batch_bytes = (cfg.batch_per_gpu as u64)
        .checked_mul(DatasetSpec::image_bytes(&workload.input_shape))
        .ok_or(EpochError::Overflow("mini-batch bytes"))?;
    let ring = Ring::build(&sys.topo, cfg.gpu_count);
    let tree = ReductionTree::new(cfg.gpu_count);
    // Tune the NCCL (algorithm, protocol, channels) per distinct
    // bucket size once — bucket sizes are identical across the three
    // pipelined iterations, decisions another epoch already priced
    // come from the memo, and with the calibrated singleton space the
    // tuner short-circuits without simulating anything. Built on the
    // (possibly degraded) topology, so a dead NVLink renegotiates the
    // choice along with the ring.
    let nccl_sel: BTreeMap<u64, (Selection, Selection)> = match cfg.comm {
        CommMethod::Nccl => buckets
            .iter()
            .map(|b| b.bytes)
            .collect::<std::collections::BTreeSet<u64>>()
            .into_iter()
            .map(|bytes| {
                let ar = tuner.choose_all_reduce(&sys.topo, &ring, bytes, &sys.nccl)?;
                let bc = tuner.choose_broadcast(&sys.topo, &ring, bytes, &sys.nccl)?;
                Ok((bytes, (ar, bc)))
            })
            .collect::<Result<_, CommError>>()?,
        CommMethod::P2p => BTreeMap::new(),
    };

    // ---- Prologue: NCCL setup + initial model distribution. ----
    let setup = match cfg.comm {
        CommMethod::Nccl => {
            let t = graph
                .task("setup.nccl")
                .lasting(sys.nccl.epoch_setup)
                .category("setup")
                .build();
            Some(t)
        }
        CommMethod::P2p => None,
    };
    let mut weights_ready: Vec<TaskId> = gpus
        .iter()
        .map(|&g| {
            let deps: Vec<TaskId> = setup.into_iter().collect();
            net.transfer(
                &mut graph,
                &sys.topo,
                sys.topo.home_cpu(g),
                g,
                workload.param_bytes,
                &deps,
                "setup.weights",
                format_args!("init.weights@{g}"),
            )
        })
        .collect();

    // ---- Three pipelined iterations. ----
    const ITERS: usize = 3;
    let mut markers = [TaskId::from_index(0); ITERS];
    // (sync task, host predecessor) pairs of the middle iteration, for
    // blocking-time attribution.
    let mut sync_pairs: Vec<(TaskId, TaskId)> = Vec::new();

    for (it, iter_done) in markers.iter_mut().enumerate() {
        let p = format!("it{it}");
        // Per GPU, per bucket: the BP kernel that produced the bucket.
        let mut bucket_ready: Vec<Vec<Option<TaskId>>> =
            vec![vec![None; buckets.len()]; cfg.gpu_count];
        let mut host_tail: Vec<TaskId> = Vec::with_capacity(cfg.gpu_count);

        for (gi, &g) in gpus.iter().enumerate() {
            // Per-GPU iteration dispatch on the shared scheduler thread
            // (data iterator + kvstore bookkeeping).
            let dispatch = graph
                .task(format_args!("{p}/dispatch@{g}"))
                .on(scheduler)
                .lasting(sys.host_dispatch)
                .category("api.kvstoreDispatch")
                .after(weights_ready[gi])
                .build();
            // Mini-batch H2D (prefetched; PCIe contention is modelled by
            // the link resource itself).
            let issue = graph
                .task(format_args!("{p}/h2d.issue@{g}"))
                .on(host[&g])
                .lasting(sys.api.cost(ApiCall::MemcpyAsync))
                .category(ApiCall::MemcpyAsync.category())
                .after(dispatch)
                .build();
            let h2d = net.transfer(
                &mut graph,
                &sys.topo,
                sys.topo.home_cpu(g),
                g,
                batch_bytes,
                &[issue],
                "h2d",
                format_args!("{p}/data@{g}"),
            );

            let mut host_prev = issue;
            let mut kernel_prev: Option<TaskId> = None;
            let mut kernel_ids: Vec<TaskId> = Vec::with_capacity(kernels.len());
            for (ki, kd) in kernels.iter().enumerate() {
                let launch = graph
                    .task(format_args!("{p}/launch.{}@{g}", kd.name))
                    .on(host[&g])
                    .lasting(sys.api.cost(ApiCall::LaunchKernel))
                    .category(ApiCall::LaunchKernel.category())
                    .after(host_prev)
                    .build();
                host_prev = launch;
                let duration =
                    kmodels[&g].kernel_time_with_bytes(kd.flops as f64, kd.bytes, kd.tensor_cores);
                let category = match kd.stage {
                    Stage::Forward => "fp",
                    Stage::Backward => "bp",
                };
                let mut builder = graph
                    .task(format_args!("{p}/{}@{g}", kd.name))
                    .on(compute[&g])
                    .lasting(duration)
                    .category(category)
                    .after(launch);
                match &workload.dag {
                    // Linear chain: each kernel follows the previous
                    // one in issue order, the first follows the data.
                    None => {
                        if let Some(prev) = kernel_prev {
                            builder = builder.after(prev);
                        } else {
                            builder = builder.after(h2d).after(dispatch);
                        }
                    }
                    // DAG mode: data-dependency edges are wired after
                    // the loop (they can point forward in issue
                    // order); only the external-input gate is known
                    // here. Kernel index `ki < n` is FP of layer `ki`.
                    Some(dag) => {
                        if ki < dag.preds.len() && dag.preds[ki].is_empty() {
                            builder = builder.after(h2d).after(dispatch);
                        }
                    }
                }
                let kernel = builder.build();
                kernel_prev = Some(kernel);
                kernel_ids.push(kernel);
                if kd.stage == Stage::Backward {
                    if let Some(&bi) = kd
                        .name
                        .strip_prefix("bp.")
                        .and_then(|n| bucket_index.get(n))
                    {
                        bucket_ready[gi][bi] = Some(kernel);
                    }
                }
            }
            let last_issued =
                kernel_prev.ok_or_else(|| EpochError::NoKernels(workload.name.clone()))?;
            let last_kernel = match &workload.dag {
                None => last_issued,
                Some(dag) => {
                    // FP of layer `li` sits at kernel index `li`, its
                    // BP at `2n - 1 - li` (BP kernels are emitted in
                    // reverse layer order).
                    let n = dag.preds.len();
                    for li in 0..n {
                        for &pr in &dag.preds[li] {
                            graph.add_dep(kernel_ids[pr], kernel_ids[li]);
                        }
                        let bp = kernel_ids[2 * n - 1 - li];
                        // BP needs the layer's own activations and the
                        // gradients flowing back from every consumer;
                        // output layers (no consumers) start straight
                        // after their FP.
                        graph.add_dep(kernel_ids[li], bp);
                        for &sc in &dag.succs[li] {
                            graph.add_dep(kernel_ids[2 * n - 1 - sc], bp);
                        }
                    }
                    // The backward pass has no single final kernel in
                    // DAG mode; a zero-cost marker joins all BP nodes
                    // for end-of-compute gating.
                    graph
                        .task(format_args!("{p}/bp.done@{g}"))
                        .category("marker")
                        .after_all(kernel_ids[n..].iter().copied())
                        .build()
                }
            };
            if !sys.bp_wu_overlap {
                // Communication waits for the full backward pass.
                for slot in bucket_ready[gi].iter_mut() {
                    *slot = Some(last_kernel);
                }
            }
            // End-of-compute stream synchronisation.
            let sync = graph
                .task(format_args!("{p}/sync.fpbp@{g}"))
                .on(host[&g])
                .lasting(sys.api.cost(ApiCall::StreamSynchronize))
                .category(ApiCall::StreamSynchronize.category())
                .after(host_prev)
                .after(last_kernel)
                .build();
            if it == 1 {
                sync_pairs.push((sync, host_prev));
            }
            host_tail.push(sync);
        }

        let bucket_ready: Vec<Vec<TaskId>> = bucket_ready
            .into_iter()
            .map(|v| {
                v.into_iter()
                    .zip(&buckets)
                    .map(|(ready, b)| ready.ok_or_else(|| EpochError::OrphanBucket(b.name.clone())))
                    .collect()
            })
            .collect::<Result<_, _>>()?;

        // ---- WU stage. ----
        let wu_done: Vec<Vec<TaskId>> = match cfg.comm {
            CommMethod::P2p => build_p2p_wu(
                &mut graph,
                &net,
                sys,
                &kmodels,
                &buckets,
                &gpus,
                &compute,
                &host,
                &tree,
                &bucket_ready,
                &p,
            ),
            CommMethod::Nccl => {
                // Grouped-collective marshalling on the scheduler thread,
                // once per GPU per iteration, gating the collectives.
                // Single-GPU runs skip it: no cross-device group exists
                // (the per-bucket kernel overheads still apply, which is
                // Table II's single-GPU NCCL overhead).
                let mut gated = bucket_ready.clone();
                for (gi, &g) in gpus.iter().enumerate().filter(|_| cfg.gpu_count > 1) {
                    let group = graph
                        .task(format_args!("{p}/nccl.group@{g}"))
                        .on(scheduler)
                        .lasting(sys.nccl.group_call_overhead)
                        .category("api.ncclGroupLaunch")
                        .after(gated[gi][0])
                        .build();
                    for slot in gated[gi].iter_mut() {
                        let merged = graph
                            .task(format_args!("{p}/nccl.gate@{g}"))
                            .category("marker")
                            .after(*slot)
                            .after(group)
                            .build();
                        *slot = merged;
                    }
                }
                build_nccl_wu(
                    &mut graph, &net, sys, &kmodels, &buckets, &gpus, &compute, &ring, &nccl_sel,
                    &gated, &p,
                )?
            }
        };

        // Per-GPU weights-ready barrier + end-of-iteration sync.
        let mut iter_done_per_gpu = Vec::with_capacity(cfg.gpu_count);
        for (gi, &g) in gpus.iter().enumerate() {
            let barrier = graph
                .task(format_args!("{p}/weights.ready@{g}"))
                .category("marker")
                .after_all(wu_done[gi].iter().copied())
                .build();
            weights_ready[gi] = barrier;
            let sync = graph
                .task(format_args!("{p}/sync.wu@{g}"))
                .on(host[&g])
                .lasting(sys.api.cost(ApiCall::StreamSynchronize))
                .category(ApiCall::StreamSynchronize.category())
                .after(host_tail[gi])
                .after(barrier)
                .build();
            if it == 1 {
                sync_pairs.push((sync, host_tail[gi]));
            }
            iter_done_per_gpu.push(sync);
        }
        let marker = graph
            .task(format_args!("{p}/iter.done"))
            .category("marker")
            .after_all(iter_done_per_gpu)
            .build();
        *iter_done = marker;
    }

    Ok(EpochGraph {
        graph,
        markers,
        sync_pairs,
    })
}

impl EpochGraph {
    /// The middle (steady-state) iteration's task ids: every task
    /// built after the fill iteration's marker, up to and including
    /// the middle iteration's own.
    fn middle_iteration(&self) -> RangeInclusive<usize> {
        self.markers[0].index() + 1..=self.markers[1].index()
    }

    /// Reads the report from `schedule`, a run of this graph.
    fn extract(&self, cfg: &TrainConfig, schedule: &Schedule) -> Result<EpochReport, EpochError> {
        let graph = &self.graph;
        let window = self.middle_iteration();
        // The blocking chain runs earliest-first through whatever each
        // task waited on; keep the steady-state slice.
        let critical_chain: Vec<String> = schedule
            .critical_chain()
            .into_iter()
            .filter(|t| window.contains(&t.index()))
            .map(|t| {
                let label = graph.label(t);
                label.strip_prefix("it1/").unwrap_or(label).to_string()
            })
            .collect();
        let [t0, t1, t2] = self.markers.map(|m| schedule.finish_time(m));
        let iter_time = t2 - t1;
        let iterations = cfg
            .dataset
            .iterations(cfg.scaling, cfg.batch_per_gpu, cfg.gpu_count);
        // Epoch = first (fill) iteration + steady-state repetitions.
        let epoch_time = epoch_span(&[
            (t0 - SimTime::ZERO, 1),
            (iter_time, iterations.saturating_sub(1)),
        ])?;

        let mut iter_trace = schedule.trace(graph, window);
        // FP+BP attribution: the mean per-GPU compute-stream busy time
        // (each stream is serial, so busy == sum of kernel durations).
        // Everything else in the iteration — communication, update
        // kernels, synchronisation stalls — is the exposed WU stage,
        // matching the paper's accounting where hidden (overlapped)
        // communication is not charged to WU (§V-C footnote 6).
        let mut compute_busy_total = SimSpan::ZERO;
        let mut api_iter: BTreeMap<String, SimSpan> = BTreeMap::new();
        for e in iter_trace.events() {
            if e.category == "fp" || e.category == "bp" {
                add_span(&mut compute_busy_total, e.duration(), "compute busy time")?;
            } else if e.category.starts_with("api.") {
                match api_iter.get_mut(e.category) {
                    Some(total) => add_span(total, e.duration(), "API call time")?,
                    None => {
                        api_iter.insert(e.category.to_string(), e.duration());
                    }
                }
            }
        }
        let fp_bp_iter = compute_busy_total / cfg.gpu_count as u64;
        let wu_iter = iter_time.saturating_sub(fp_bp_iter);

        let mut sync_wall_total = SimSpan::ZERO;
        for &(sync, prev) in &self.sync_pairs {
            let blocked = schedule.finish_time(sync)
                - schedule.finish_time(prev).min(schedule.start_time(sync));
            add_span(&mut sync_wall_total, blocked, "stream-synchronize time")?;
        }
        // Average over the per-GPU host threads (each thread makes the
        // same calls; nvprof reports per-thread shares).
        let sync_wall_iter = sync_wall_total / cfg.gpu_count as u64;

        let compute_utilization = if iter_time.is_zero() {
            0.0
        } else {
            compute_busy_total.ratio(iter_time) / cfg.gpu_count as f64
        };

        // Profiler reports read the iteration from time zero.
        iter_trace.rebase();
        Ok(EpochReport {
            iterations,
            iter_time,
            epoch_time,
            fp_bp_iter,
            wu_iter,
            api_iter,
            sync_wall_iter,
            compute_utilization,
            iter_trace,
            critical_chain,
        })
    }
}

/// `total += span`, or [`EpochError::Overflow`] naming `what`.
fn add_span(total: &mut SimSpan, span: SimSpan, what: &'static str) -> Result<(), EpochError> {
    *total = total.checked_add(span).ok_or(EpochError::Overflow(what))?;
    Ok(())
}

/// MXNet `device` kvstore: tree-reduce every gradient bucket onto GPU0,
/// update there, tree-broadcast the weights back (paper §II-B, §V-A).
#[allow(clippy::too_many_arguments)]
fn build_p2p_wu(
    graph: &mut TaskGraph,
    net: &LinkNetwork,
    sys: &SystemModel,
    kmodels: &BTreeMap<Device, KernelCostModel>,
    buckets: &[GradientBucket],
    gpus: &[Device],
    compute: &BTreeMap<Device, ResourceId>,
    host: &BTreeMap<Device, ResourceId>,
    tree: &ReductionTree,
    bucket_ready: &[Vec<TaskId>],
    prefix: &str,
) -> Vec<Vec<TaskId>> {
    let n = gpus.len();
    let mut done: Vec<Vec<TaskId>> = vec![Vec::with_capacity(buckets.len()); n];

    for (bi, bucket) in buckets.iter().enumerate() {
        let mut cur: Vec<TaskId> = (0..n).map(|g| bucket_ready[g][bi]).collect();

        for round in tree.reduce_steps() {
            for (from, to) in round {
                let issue = graph
                    .task(format_args!(
                        "{prefix}/wu.issue.{}.{from}>{to}",
                        bucket.name
                    ))
                    .on(host[&gpus[from]])
                    .lasting(sys.p2p_issue)
                    .category("api.kvstorePush")
                    .after(cur[from])
                    .build();
                let xfer = net.transfer_hardware(
                    graph,
                    &sys.topo,
                    gpus[from],
                    gpus[to],
                    bucket.bytes,
                    &[issue, cur[to]],
                    "wu.p2p.reduce",
                    format_args!("{prefix}/wu.grad.{}.{from}>{to}", bucket.name),
                );
                let add = graph
                    .task(format_args!("{prefix}/wu.add.{}@{to}", bucket.name))
                    .on(compute[&gpus[to]])
                    // Read both operands, write the sum: 3x bucket bytes.
                    .lasting(kmodels[&gpus[to]].elementwise_kernel_time(3 * bucket.bytes))
                    .category("wu.p2p.add")
                    .after(xfer)
                    .build();
                cur[to] = add;
            }
        }

        // SGD update on the parameter-server GPU: elementwise over
        // weights, gradients and momentum (~5x bucket bytes traffic).
        let upd = graph
            .task(format_args!("{prefix}/wu.update.{}", bucket.name))
            .on(compute[&gpus[0]])
            .lasting(kmodels[&gpus[0]].elementwise_kernel_time(5 * bucket.bytes))
            .category("wu.update")
            .after(cur[0])
            .build();

        let mut bcur: Vec<TaskId> = vec![upd; n];
        for round in tree.broadcast_steps() {
            for (from, to) in round {
                let issue = graph
                    .task(format_args!(
                        "{prefix}/wu.bissue.{}.{from}>{to}",
                        bucket.name
                    ))
                    .on(host[&gpus[from]])
                    .lasting(sys.p2p_issue)
                    .category("api.kvstorePull")
                    .after(bcur[from])
                    .build();
                let xfer = net.transfer(
                    graph,
                    &sys.topo,
                    gpus[from],
                    gpus[to],
                    bucket.bytes,
                    &[issue],
                    "wu.p2p.bcast",
                    format_args!("{prefix}/wu.weights.{}.{from}>{to}", bucket.name),
                );
                bcur[to] = xfer;
            }
        }
        for g in 0..n {
            done[g].push(bcur[g]);
        }
    }
    done
}

/// NCCL backend: per-bucket ring AllReduce of gradients, SGD update on
/// GPU0, ring Broadcast of updated weights (paper §II-C, §V-B).
#[allow(clippy::too_many_arguments)]
fn build_nccl_wu(
    graph: &mut TaskGraph,
    net: &LinkNetwork,
    sys: &SystemModel,
    kmodels: &BTreeMap<Device, KernelCostModel>,
    buckets: &[GradientBucket],
    gpus: &[Device],
    compute: &BTreeMap<Device, ResourceId>,
    ring: &Ring,
    selections: &BTreeMap<u64, (Selection, Selection)>,
    bucket_ready: &[Vec<TaskId>],
    prefix: &str,
) -> Result<Vec<Vec<TaskId>>, EpochError> {
    let n = gpus.len();
    let mut done: Vec<Vec<TaskId>> = vec![Vec::with_capacity(buckets.len()); n];

    for (bi, bucket) in buckets.iter().enumerate() {
        let ready: collective::PerGpuDone = gpus
            .iter()
            .enumerate()
            .map(|(g, &d)| (d, bucket_ready[g][bi]))
            .collect();
        let (sel_ar, sel_bc) = selections.get(&bucket.bytes).unwrap_or_else(|| {
            panic!("no tuned NCCL selection for a {}-byte bucket", bucket.bytes)
        });
        // (bucket sizes drive both transfer and update costs below)
        let reduced = collective::all_reduce(
            graph,
            net,
            &sys.topo,
            ring,
            bucket.bytes,
            &ready,
            compute,
            &sys.nccl,
            sel_ar,
            format_args!("{prefix}/wu.ar.{}", bucket.name),
        )?;
        let upd = graph
            .task(format_args!("{prefix}/wu.update.{}", bucket.name))
            .on(compute[&gpus[0]])
            .lasting(kmodels[&gpus[0]].elementwise_kernel_time(5 * bucket.bytes))
            .category("wu.update")
            .after(reduced[&gpus[0]])
            .build();
        let ready2: collective::PerGpuDone = gpus
            .iter()
            .map(|&d| (d, if d == gpus[0] { upd } else { reduced[&d] }))
            .collect();
        let bc = collective::broadcast(
            graph,
            net,
            &sys.topo,
            ring,
            bucket.bytes,
            &ready2,
            compute,
            &sys.nccl,
            sel_bc,
            format_args!("{prefix}/wu.bc.{}", bucket.name),
        )?;
        for (g, &d) in gpus.iter().enumerate() {
            done[g].push(bc[&d]);
        }
    }
    Ok(done)
}

#[cfg(test)]
mod tests {
    use super::*;
    use voltascope_dnn::{zoo, Model};
    use voltascope_workload::lower_model;

    /// The shim on a built model, lowered at the config's batch.
    pub(super) fn epoch(sys: &SystemModel, model: &Model, cfg: &TrainConfig) -> EpochReport {
        simulate_epoch_lowered(sys, &lower_model(model, cfg.batch_per_gpu).unwrap(), cfg)
    }

    fn quick_dataset() -> DatasetSpec {
        DatasetSpec {
            name: "small".into(),
            images: 1024,
            classes: 10,
        }
    }

    fn cfg(batch: usize, gpus: usize, comm: CommMethod) -> TrainConfig {
        TrainConfig {
            batch_per_gpu: batch,
            gpu_count: gpus,
            comm,
            scaling: ScalingMode::Strong,
            dataset: quick_dataset(),
            bucket_fusion_bytes: 0,
        }
    }

    #[test]
    fn multi_gpu_reduces_epoch_time() {
        let sys = SystemModel::dgx1();
        let model = zoo::lenet();
        let r1 = epoch(&sys, &model, &cfg(16, 1, CommMethod::P2p));
        let r2 = epoch(&sys, &model, &cfg(16, 2, CommMethod::P2p));
        let r4 = epoch(&sys, &model, &cfg(16, 4, CommMethod::P2p));
        assert!(r2.epoch_time < r1.epoch_time);
        assert!(r4.epoch_time < r2.epoch_time);
        // Sublinear for LeNet: communication cannot be hidden.
        let speedup4 = r1.epoch_time.as_secs_f64() / r4.epoch_time.as_secs_f64();
        assert!(speedup4 < 4.0, "speedup {speedup4}");
    }

    #[test]
    fn larger_batches_reduce_epoch_time() {
        let sys = SystemModel::dgx1();
        let model = zoo::lenet();
        let b16 = epoch(&sys, &model, &cfg(16, 2, CommMethod::P2p));
        let b32 = epoch(&sys, &model, &cfg(32, 2, CommMethod::P2p));
        let b64 = epoch(&sys, &model, &cfg(64, 2, CommMethod::P2p));
        assert!(b32.epoch_time < b16.epoch_time);
        assert!(b64.epoch_time < b32.epoch_time);
    }

    #[test]
    fn nccl_loses_on_a_single_gpu() {
        // Table II: the NCCL code path is pure overhead at GPU count 1.
        let sys = SystemModel::dgx1();
        let model = zoo::lenet();
        let p2p = epoch(&sys, &model, &cfg(16, 1, CommMethod::P2p));
        let nccl = epoch(&sys, &model, &cfg(16, 1, CommMethod::Nccl));
        assert!(nccl.epoch_time > p2p.epoch_time);
    }

    #[test]
    fn wu_exists_only_with_multiple_gpus_meaningfully() {
        let sys = SystemModel::dgx1();
        let model = zoo::lenet();
        let r1 = epoch(&sys, &model, &cfg(16, 1, CommMethod::P2p));
        let r4 = epoch(&sys, &model, &cfg(16, 4, CommMethod::P2p));
        // Single-GPU WU is just the update kernels: far below FP+BP.
        assert!(r1.wu_iter < r1.fp_bp_iter / 2);
        assert!(r4.wu_iter > r1.wu_iter);
    }

    #[test]
    fn report_identities_hold() {
        let sys = SystemModel::dgx1();
        let model = zoo::lenet();
        let r = epoch(&sys, &model, &cfg(32, 2, CommMethod::Nccl));
        assert_eq!(r.fp_bp_iter + r.wu_iter, r.iter_time);
        assert!(r.compute_utilization > 0.0 && r.compute_utilization < 1.0);
        assert!(!r.iter_trace.is_empty());
        assert!(r.sync_percent() >= 0.0);
        assert_eq!(r.fp_bp_epoch(), r.fp_bp_iter * r.iterations);
    }

    #[test]
    fn weak_scaling_keeps_iterations_constant() {
        let sys = SystemModel::dgx1();
        let model = zoo::lenet();
        let mut weak = cfg(16, 4, CommMethod::P2p);
        weak.scaling = ScalingMode::Weak;
        let strong = epoch(&sys, &model, &cfg(16, 4, CommMethod::P2p));
        let weak = epoch(&sys, &model, &weak);
        assert_eq!(weak.iterations, strong.iterations * 4);
        assert_eq!(weak.iter_time, strong.iter_time);
    }

    #[test]
    fn simulation_is_deterministic() {
        let sys = SystemModel::dgx1();
        let model = zoo::lenet();
        let a = epoch(&sys, &model, &cfg(16, 4, CommMethod::Nccl));
        let b = epoch(&sys, &model, &cfg(16, 4, CommMethod::Nccl));
        assert_eq!(a.epoch_time, b.epoch_time);
        assert_eq!(a.iter_time, b.iter_time);
    }

    #[test]
    #[should_panic(expected = "gpu_count 9 out of range")]
    fn too_many_gpus_panic_in_the_shim() {
        let sys = SystemModel::dgx1();
        let model = zoo::lenet();
        let _ = epoch(&sys, &model, &cfg(16, 9, CommMethod::P2p));
    }

    #[test]
    fn empty_faults_change_nothing() {
        let sys = SystemModel::dgx1();
        let degraded = sys.with_faults(&FaultSpec::new());
        let model = zoo::lenet();
        let a = epoch(&sys, &model, &cfg(16, 4, CommMethod::Nccl));
        let b = epoch(&degraded, &model, &cfg(16, 4, CommMethod::Nccl));
        assert_eq!(a.epoch_time, b.epoch_time);
        assert_eq!(a.iter_time, b.iter_time);
    }

    #[test]
    fn straggler_gpu_slows_the_whole_iteration() {
        // Data parallelism synchronises every iteration, so one GPU at
        // 2x kernel time drags all four towards its pace.
        let sys = SystemModel::dgx1();
        let slow = sys.with_faults(&FaultSpec::new().slow_gpu(Device::gpu(3), 2.0));
        let model = zoo::alexnet();
        let healthy = epoch(&sys, &model, &cfg(16, 4, CommMethod::Nccl));
        let degraded = epoch(&slow, &model, &cfg(16, 4, CommMethod::Nccl));
        assert!(
            degraded.iter_time > healthy.iter_time,
            "straggler did not slow the iteration: {} vs {}",
            degraded.iter_time,
            healthy.iter_time
        );
        // But nowhere near 2x the whole epoch either: only GPU3's
        // kernels run slow, and a single-GPU run without it is
        // unaffected entirely.
        let healthy1 = epoch(&sys, &model, &cfg(16, 1, CommMethod::P2p));
        let degraded1 = epoch(&slow, &model, &cfg(16, 1, CommMethod::P2p));
        assert_eq!(healthy1.epoch_time, degraded1.epoch_time);
    }

    /// Two heavy parallel branches between a stem and a join.
    fn branchy() -> voltascope_workload::WorkloadSpec {
        let text = "workload v2\nname Branchy\ninput 64 64\n\
                    layer stem conv 0 800000000 1600000000 16384 1048576 4096 0\n\
                    layer left conv 0 900000000 1800000000 1048576 1048576 8192 0\n\
                    dep left stem\n\
                    layer right conv 0 900000000 1800000000 1048576 1048576 8192 0\n\
                    dep right stem\n\
                    layer join concat 0 1000000 2000000 2097152 2097152 4096 0\n\
                    dep join left right\n\
                    end\n";
        voltascope_workload::WorkloadSpec::parse(text).unwrap()
    }

    /// Asserts that the middle-iteration window of `req`'s graph, run
    /// under the dynamic events `events` returns, holds exactly the
    /// graph's `it1/` tasks in `(start, id)` order — the set the
    /// report's trace and critical chain were once selected by label.
    fn assert_window_is_it1(
        req: &EpochRequest<'_>,
        events: impl FnOnce(&TaskGraph) -> Vec<DynamicEvent>,
    ) {
        let epoch = assemble(req).unwrap();
        let graph = &epoch.graph;
        let dynamic = events(graph);
        let schedule = Engine::new().run_with_events(graph, &dynamic).unwrap();
        let mut it1: Vec<TaskId> = graph
            .tasks()
            .map(|(id, _)| id)
            .filter(|&id| graph.label(id).starts_with("it1/"))
            .collect();
        it1.sort_by_key(|&t| (schedule.start_time(t), t));
        let want: Vec<(TaskId, &str)> = it1.iter().map(|&t| (t, graph.label(t))).collect();
        let window = schedule.trace(graph, epoch.middle_iteration());
        let got: Vec<(TaskId, &str)> = window.events().iter().map(|e| (e.task, e.label)).collect();
        assert!(!got.is_empty());
        assert_eq!(
            got, want,
            "{} on {} GPUs",
            req.workload.name, req.cfg.gpu_count
        );
    }

    #[test]
    fn the_middle_iteration_window_is_exactly_the_it1_tasks() {
        use voltascope_workload::lower;
        let sys = SystemModel::dgx1();
        let tuner = TunerMemo::new();
        let request = |workload, cfg| EpochRequest {
            sys: &sys,
            workload,
            cfg,
            fault: None,
            tuner: &tuner,
        };
        let configs: Vec<TrainConfig> = [CommMethod::P2p, CommMethod::Nccl]
            .into_iter()
            .flat_map(|comm| [1, 2, 8].map(|gpus| cfg(16, gpus, comm)))
            .chain([TrainConfig {
                bucket_fusion_bytes: 16 << 20,
                ..cfg(16, 4, CommMethod::Nccl)
            }])
            .collect();
        let models = [zoo::lenet(), zoo::alexnet()].map(|m| lower_model(&m, 16).unwrap());
        for lowered in &models {
            for c in &configs {
                assert_window_is_it1(&request(lowered, c), |_| Vec::new());
            }
        }
        // A DAG workload on two compute streams.
        let mut two_streams = SystemModel::dgx1();
        two_streams.compute_streams = 2;
        let dag = lower(&branchy(), 16).unwrap();
        let c = cfg(16, 2, CommMethod::Nccl);
        assert_window_is_it1(
            &EpochRequest {
                sys: &two_streams,
                ..request(&dag, &c)
            },
            |_| Vec::new(),
        );
        // The transition run of a mid-epoch fault: GPU3's NVLinks die
        // halfway through the middle iteration.
        let alexnet = lower_model(&zoo::alexnet(), 16).unwrap();
        let c = cfg(16, 8, CommMethod::Nccl);
        let healthy = request(&alexnet, &c);
        let [t0, t1, t2] = marker_instants(&healthy, |_| Ok(Vec::new())).unwrap();
        let at = t0 + (t2 - t1) / 2;
        let spec = FaultSpec::new().kill_nvlinks_of(Device::gpu(3));
        assert_window_is_it1(&healthy, |graph| {
            crate::dynamic::lower_fault_events(graph, &sys.topo, &spec, at).unwrap()
        });
    }

    #[test]
    fn dag_branches_overlap_with_multiple_streams() {
        use voltascope_workload::lower;
        // Two heavy parallel branches between stem and join. Linear
        // twin: same layers, deps stripped (the v1 chain).
        let spec = branchy();
        let mut linear = spec.clone();
        for l in &mut linear.layers {
            l.deps = None;
        }
        let dag_lw = lower(&spec, 16).unwrap();
        let lin_lw = lower(&linear, 16).unwrap();
        assert!(dag_lw.dag.is_some());
        assert!(lin_lw.dag.is_none());

        let mut sys = SystemModel::dgx1();
        let c = cfg(16, 1, CommMethod::P2p);
        // One stream: branches serialise; the DAG changes nothing
        // observable in iteration time.
        let one_dag = simulate_epoch_lowered(&sys, &dag_lw, &c);
        let one_lin = simulate_epoch_lowered(&sys, &lin_lw, &c);
        assert_eq!(one_dag.iter_time, one_lin.iter_time);
        // Two streams: left and right overlap in FP and BP. The linear
        // twin runs at the same capacity so the comparison isolates
        // the branch overlap (WU kernels share the compute resource,
        // so capacity alone shifts both runs equally).
        sys.compute_streams = 2;
        let two_dag = simulate_epoch_lowered(&sys, &dag_lw, &c);
        let two_lin = simulate_epoch_lowered(&sys, &lin_lw, &c);
        assert!(
            two_dag.iter_time < two_lin.iter_time,
            "branches did not overlap: {} vs {}",
            two_dag.iter_time,
            two_lin.iter_time
        );
        // In each direction the critical chain threads exactly one of
        // the two parallel branches (the other overlaps off-path).
        let has = |lbl: &str| two_dag.critical_chain.iter().any(|l| l.contains(lbl));
        assert!(
            has("fp.left@") ^ has("fp.right@"),
            "{:?}",
            two_dag.critical_chain
        );
        assert!(
            has("bp.left@") ^ has("bp.right@"),
            "{:?}",
            two_dag.critical_chain
        );
    }

    #[test]
    fn critical_chain_is_reported_for_the_steady_iteration() {
        let sys = SystemModel::dgx1();
        let model = zoo::lenet();
        let r = epoch(&sys, &model, &cfg(16, 2, CommMethod::P2p));
        assert!(!r.critical_chain.is_empty());
        // Labels are it1-scoped with the prefix stripped.
        assert!(r.critical_chain.iter().all(|l| !l.starts_with("it")));
    }

    #[test]
    fn dead_nvlink_interface_slows_nccl_training() {
        // All of GPU3's NVLink bricks dead: the 8-GPU ring cannot avoid
        // it, so three hops fall back to host bouncing and the NCCL
        // epoch stretches.
        let sys = SystemModel::dgx1();
        let dead = sys.with_faults(&FaultSpec::new().kill_nvlinks_of(Device::gpu(3)));
        let model = zoo::alexnet();
        let healthy = epoch(&sys, &model, &cfg(16, 8, CommMethod::Nccl));
        let degraded = epoch(&dead, &model, &cfg(16, 8, CommMethod::Nccl));
        assert!(
            degraded.epoch_time > healthy.epoch_time,
            "dead NVLink interface did not slow NCCL: {} vs {}",
            degraded.epoch_time,
            healthy.epoch_time
        );
    }
}

#[cfg(test)]
mod fusion_tests {
    use super::tests::epoch;
    use super::*;
    use voltascope_dnn::zoo;

    fn cfg_fused(fusion: u64) -> TrainConfig {
        cfg_fused_with(fusion, CommMethod::Nccl)
    }

    fn cfg_fused_with(fusion: u64, comm: CommMethod) -> TrainConfig {
        TrainConfig {
            batch_per_gpu: 16,
            gpu_count: 4,
            comm,
            scaling: ScalingMode::Strong,
            dataset: DatasetSpec {
                name: "small".into(),
                images: 1024,
                classes: 10,
            },
            bucket_fusion_bytes: fusion,
        }
    }

    #[test]
    fn fusion_cuts_p2p_per_key_orchestration() {
        // P2P pays per-transfer kvstore orchestration, so merging 107
        // ResNet buckets into a handful must shorten the WU stage.
        let sys = SystemModel::dgx1();
        let model = zoo::resnet50();
        let per_layer = epoch(&sys, &model, &cfg_fused_with(0, CommMethod::P2p));
        let fused = epoch(&sys, &model, &cfg_fused_with(16 << 20, CommMethod::P2p));
        assert!(
            fused.wu_iter < per_layer.wu_iter,
            "fused {} vs per-layer {}",
            fused.wu_iter,
            per_layer.wu_iter
        );
    }

    #[test]
    fn nccl_fusion_trades_overhead_against_pipelining() {
        // NCCL's ring is bandwidth-bound for ResNet at 4 GPUs: fusion
        // removes per-bucket overheads that were already hidden, while
        // coarser buckets lose AllReduce/Broadcast pipelining — the WU
        // stage shifts only mildly in either direction.
        let sys = SystemModel::dgx1();
        let model = zoo::resnet50();
        let per_layer = epoch(&sys, &model, &cfg_fused(0));
        let fused = epoch(&sys, &model, &cfg_fused(16 << 20));
        let ratio = fused.wu_iter.as_secs_f64() / per_layer.wu_iter.as_secs_f64();
        assert!(
            (0.5..1.5).contains(&ratio),
            "fusion changed NCCL WU by {ratio:.2}x"
        );
    }

    #[test]
    fn fusion_preserves_total_gradient_volume() {
        // Whatever the fusion threshold, the bytes communicated per
        // iteration stay the model's parameter bytes; epoch time is
        // finite and deterministic.
        let sys = SystemModel::dgx1();
        let model = zoo::lenet();
        for fusion in [0u64, 1 << 10, 1 << 20, u64::MAX / 2] {
            let r = epoch(&sys, &model, &cfg_fused(fusion));
            assert!(!r.epoch_time.is_zero());
        }
    }

    #[test]
    fn fusion_groups_consecutive_buckets_and_merges_the_tail() {
        let layer = |name: &str, bytes| GradientBucket {
            name: name.into(),
            bytes,
        };
        let buckets = [layer("d", 3), layer("c", 2), layer("b", 4), layer("a", 1)];
        let fused = |threshold| -> Vec<(u64, Range<usize>)> {
            let f = fuse_buckets(&buckets, threshold).unwrap();
            f.into_iter().map(|(b, r)| (b.bytes, r)).collect()
        };
        assert_eq!(fused(0), [(3, 0..1), (2, 1..2), (4, 2..3), (1, 3..4)]);
        // {d, c} reaches 5; {b, a} does too; nothing is left over.
        assert_eq!(fused(5), [(5, 0..2), (5, 2..4)]);
        // {d, c, b} passes 6; the short tail {a} joins it.
        assert_eq!(fused(6), [(10, 0..4)]);
        assert_eq!(fused(u64::MAX), [(10, 0..4)]);
        assert_eq!(fuse_buckets(&buckets, 0).unwrap()[2].0.name, "bucket2");
        let huge = [layer("x", u64::MAX), layer("y", 1)];
        assert_eq!(
            fuse_buckets(&huge, u64::MAX).unwrap_err(),
            EpochError::Overflow("fused gradient bucket bytes")
        );
    }

    #[test]
    fn full_fusion_behaves_like_single_bucket() {
        let sys = SystemModel::dgx1();
        let model = zoo::lenet();
        let one = epoch(&sys, &model, &cfg_fused(u64::MAX / 2));
        let per_layer = epoch(&sys, &model, &cfg_fused(0));
        // A single bucket loses all BP/WU pipelining granularity but
        // pays the per-collective overhead once.
        assert_ne!(one.iter_time, per_layer.iter_time);
    }
}

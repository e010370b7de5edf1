//! Pipeline-parallel training simulation (GPipe-style schedule).
//!
//! Data parallelism ([`crate::EpochRequest`]) replicates the whole
//! model per GPU; pipeline parallelism instead places contiguous layer
//! ranges ("stages") on different GPUs and streams micro-batches
//! through them. A `.workload` file opts in by declaring an
//! `axis pipeline <stages>` and tagging each layer with its stage —
//! no Rust module required.
//!
//! The schedule simulated here is the classic synchronous GPipe
//! pipeline: all micro-batch forward passes flow stage to stage over
//! the real interconnect topology, then the backward passes return in
//! reverse, and each stage finally applies its local weight update.
//! Cross-stage activation (and activation-gradient) traffic uses the
//! boundary layer's output bytes at the micro-batch size; there is no
//! gradient all-reduce — parameters are partitioned, not replicated.
//! The pipeline "bubble" (head/tail idleness of `S - 1` stage slots
//! out of `M + S - 1`) emerges from the task graph rather than being
//! assumed.

use voltascope_sim::{Engine, SimSpan, TaskGraph, TaskId};
use voltascope_topo::Device;
use voltascope_workload::{lower, LowerError, WorkloadSpec};

use crate::epoch::SystemModel;

/// One pipeline-parallel training configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Samples per micro-batch.
    pub microbatch: usize,
    /// Micro-batches per iteration (the mini-batch is
    /// `microbatch * microbatches`).
    pub microbatches: usize,
}

/// Why a workload could not be scheduled as a pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// The workload itself failed to lower (empty, zero-cost, ...).
    Lower(LowerError),
    /// The config asks for zero micro-batches.
    ZeroMicrobatches,
    /// A declared stage has no layers assigned to it.
    EmptyStage(usize),
    /// More stages than the topology has GPUs.
    TooManyStages {
        /// Stages the workload declares.
        stages: usize,
        /// GPUs the topology offers.
        gpus: usize,
    },
    /// Aggregating the stage's per-layer counts (each individually
    /// valid at the micro-batch size) does not fit in `u64`.
    ArithmeticOverflow {
        /// The stage whose aggregate overflows.
        stage: usize,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Lower(e) => write!(f, "{e}"),
            PipelineError::ZeroMicrobatches => write!(f, "micro-batch count must be positive"),
            PipelineError::EmptyStage(s) => write!(f, "pipeline stage {s} has no layers"),
            PipelineError::TooManyStages { stages, gpus } => {
                write!(f, "{stages} pipeline stages out of range for {gpus} GPUs")
            }
            PipelineError::ArithmeticOverflow { stage } => {
                write!(f, "aggregating pipeline stage {stage} overflows u64")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<LowerError> for PipelineError {
    fn from(e: LowerError) -> Self {
        PipelineError::Lower(e)
    }
}

/// Results of simulating one pipeline-parallel iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineReport {
    /// Pipeline depth (stages == GPUs used).
    pub stages: usize,
    /// Micro-batches per iteration.
    pub microbatches: usize,
    /// Makespan of one iteration (all FP + BP + per-stage WU).
    pub iter_time: SimSpan,
    /// Per-stage compute busy time within the iteration.
    pub stage_busy: Vec<SimSpan>,
    /// Idle fraction of the stage-time rectangle:
    /// `1 - sum(stage_busy) / (stages * iter_time)`.
    pub bubble_fraction: f64,
}

/// Simulates one iteration of GPipe-style pipeline-parallel training
/// of `spec` on the first `spec.pipeline_stages` GPUs of `sys`.
///
/// # Example
///
/// ```
/// use voltascope_train::{simulate_pipeline_epoch, PipelineConfig, SystemModel};
/// use voltascope_workload::WorkloadSpec;
///
/// let spec = WorkloadSpec::parse(
///     "workload v1\nname PP\ninput 256\naxis pipeline 2\n\
///      layer a fc 0 1000000 2000000 1024 1024 4096 1\n\
///      layer b fc 1 1000000 2000000 1024 1024 4096 1\nend\n",
/// )
/// .unwrap();
/// let sys = SystemModel::dgx1();
/// let two = simulate_pipeline_epoch(&sys, &spec, &PipelineConfig { microbatch: 8, microbatches: 2 }).unwrap();
/// let eight = simulate_pipeline_epoch(&sys, &spec, &PipelineConfig { microbatch: 8, microbatches: 8 }).unwrap();
/// // More micro-batches amortise the fill/drain bubble.
/// assert!(eight.bubble_fraction < two.bubble_fraction);
/// ```
pub fn simulate_pipeline_epoch(
    sys: &SystemModel,
    spec: &WorkloadSpec,
    cfg: &PipelineConfig,
) -> Result<PipelineReport, PipelineError> {
    // Shared validation with the data-parallel path (batch 0, empty
    // workload, zero-cost layers, no parameters).
    let _ = lower(spec, cfg.microbatch)?;
    if cfg.microbatches == 0 {
        return Err(PipelineError::ZeroMicrobatches);
    }
    let stages = spec.pipeline_stages;
    if stages > sys.topo.gpu_count() {
        return Err(PipelineError::TooManyStages {
            stages,
            gpus: sys.topo.gpu_count(),
        });
    }

    // ---- Per-stage aggregation at the micro-batch size. ----
    let mb = cfg.microbatch as u64;
    struct StageProfile {
        fp_flops: f64,
        fp_bytes: u64,
        bp_flops: f64,
        bp_bytes: u64,
        param_bytes: u64,
        tensor_cores: bool,
        /// Summed output bytes of the stage's boundary layers — those
        /// with no successor inside the stage: the activation (and
        /// activation-gradient) volume crossing to the next stage.
        /// With explicit v2 `dep` edges a stage can end in parallel
        /// branches, all of which cross; for a linear chain this is
        /// the final layer's output, as before.
        boundary_bytes: u64,
    }
    // Effective layer edges (explicit `dep` or linear default);
    // `intra_succ[i]` marks layers consumed by a later layer of their
    // own stage — everything else is stage boundary.
    let deps = spec
        .resolved_deps()
        .map_err(|e| PipelineError::Lower(e.into()))?;
    let mut intra_succ = vec![false; spec.layers.len()];
    for (i, ps) in deps.iter().enumerate() {
        for &p in ps {
            if spec.layers[p].stage == spec.layers[i].stage {
                intra_succ[p] = true;
            }
        }
    }
    let mut profiles = Vec::with_capacity(stages);
    for s in 0..stages {
        let layers: Vec<(usize, &voltascope_workload::LayerSpec)> = spec
            .layers
            .iter()
            .enumerate()
            .filter(|(_, l)| l.stage == s)
            .collect();
        if layers.is_empty() {
            return Err(PipelineError::EmptyStage(s));
        }
        // Each per-layer product is already validated by `lower` above;
        // the stage-level sums are what can still overflow.
        let ovf = || PipelineError::ArithmeticOverflow { stage: s };
        let mut fp_bytes = 0u64;
        let mut bp_bytes = 0u64;
        let mut param_bytes = 0u64;
        let mut boundary = 0u64;
        for &(i, l) in &layers {
            let act = mb * (l.in_bytes + l.out_bytes);
            fp_bytes = fp_bytes.checked_add(act).ok_or_else(ovf)?;
            bp_bytes = bp_bytes.checked_add(2 * act).ok_or_else(ovf)?;
            param_bytes = param_bytes.checked_add(l.param_bytes).ok_or_else(ovf)?;
            if !intra_succ[i] {
                boundary = boundary
                    .checked_add(mb.checked_mul(l.out_bytes).ok_or_else(ovf)?)
                    .ok_or_else(ovf)?;
            }
        }
        profiles.push(StageProfile {
            fp_flops: layers.iter().map(|(_, l)| (mb * l.fp_flops) as f64).sum(),
            fp_bytes,
            bp_flops: layers.iter().map(|(_, l)| (mb * l.bp_flops) as f64).sum(),
            bp_bytes,
            param_bytes,
            tensor_cores: layers.iter().any(|(_, l)| l.tensor_cores),
            boundary_bytes: boundary,
        });
    }

    // ---- Task graph: stage s lives on Device::gpu(s). ----
    let mut graph = TaskGraph::new();
    let net = voltascope_comm::LinkNetwork::register(&mut graph, &sys.topo);
    let gpus: Vec<Device> = (0..stages).map(|s| Device::gpu(s as u8)).collect();
    let compute: Vec<_> = gpus
        .iter()
        .map(|&d| graph.add_resource(format!("{d}.compute"), 1))
        .collect();
    let kmodels: Vec<_> = gpus.iter().map(|&d| sys.kernels_of(d)).collect();
    let fp_dur: Vec<SimSpan> = profiles
        .iter()
        .enumerate()
        .map(|(s, p)| kmodels[s].kernel_time_with_bytes(p.fp_flops, p.fp_bytes, p.tensor_cores))
        .collect();
    let bp_dur: Vec<SimSpan> = profiles
        .iter()
        .enumerate()
        .map(|(s, p)| kmodels[s].kernel_time_with_bytes(p.bp_flops, p.bp_bytes, p.tensor_cores))
        .collect();

    let m = cfg.microbatches;
    // fp[s][k]: forward of micro-batch k on stage s.
    let mut fp: Vec<Vec<Option<TaskId>>> = vec![vec![None; m]; stages];
    for k in 0..m {
        for s in 0..stages {
            // Activations arrive from the previous stage.
            let xfer = (s > 0).then(|| {
                net.transfer(
                    &mut graph,
                    &sys.topo,
                    gpus[s - 1],
                    gpus[s],
                    profiles[s - 1].boundary_bytes,
                    &[fp[s - 1][k].expect("built in order")],
                    "pp.act",
                    format_args!("pp.act.mb{k}.s{}>{s}", s - 1),
                )
            });
            let mut builder = graph
                .task(format_args!("pp.fp.mb{k}@s{s}"))
                .on(compute[s])
                .lasting(fp_dur[s])
                .category("fp");
            // Serial compute stream per stage.
            if k > 0 {
                builder = builder.after(fp[s][k - 1].expect("built in order"));
            }
            if let Some(xfer) = xfer {
                builder = builder.after(xfer);
            }
            fp[s][k] = Some(builder.build());
        }
    }
    // bp[s][k]: backward of micro-batch k on stage s (reverse flow).
    let mut bp: Vec<Vec<Option<TaskId>>> = vec![vec![None; m]; stages];
    for k in 0..m {
        for s in (0..stages).rev() {
            // Activation gradients arrive from the next stage.
            let xfer = (s + 1 < stages).then(|| {
                net.transfer(
                    &mut graph,
                    &sys.topo,
                    gpus[s + 1],
                    gpus[s],
                    profiles[s].boundary_bytes,
                    &[bp[s + 1][k].expect("built in order")],
                    "pp.grad",
                    format_args!("pp.grad.mb{k}.s{}>{s}", s + 1),
                )
            });
            let mut builder = graph
                .task(format_args!("pp.bp.mb{k}@s{s}"))
                .on(compute[s])
                .lasting(bp_dur[s])
                .category("bp")
                .after(fp[s][m - 1].expect("built"));
            if k > 0 {
                builder = builder.after(bp[s][k - 1].expect("built in order"));
            }
            if let Some(xfer) = xfer {
                builder = builder.after(xfer);
            }
            bp[s][k] = Some(builder.build());
        }
    }
    // Per-stage local weight update (parameters are partitioned, so no
    // cross-GPU gradient reduction).
    let upd_dur: Vec<SimSpan> = profiles
        .iter()
        .enumerate()
        .map(|(s, p)| kmodels[s].elementwise_kernel_time(5 * p.param_bytes))
        .collect();
    let mut updates = Vec::with_capacity(stages);
    for s in 0..stages {
        updates.push(
            graph
                .task(format_args!("pp.update@s{s}"))
                .on(compute[s])
                .lasting(upd_dur[s])
                .category("wu.update")
                .after(bp[s][m - 1].expect("built"))
                .build(),
        );
    }
    let done = graph
        .task("pp.iter.done")
        .category("marker")
        .after_all(updates)
        .build();

    let schedule = Engine::new()
        .run(&graph)
        .expect("pipeline graph is acyclic by construction");
    let iter_time = schedule.finish_time(done) - voltascope_sim::SimTime::ZERO;
    let stage_busy: Vec<SimSpan> = (0..stages)
        .map(|s| (fp_dur[s] + bp_dur[s]) * m as u64 + upd_dur[s])
        .collect();
    let busy_total: SimSpan = stage_busy.iter().copied().sum();
    let bubble_fraction = if iter_time.is_zero() {
        0.0
    } else {
        1.0 - busy_total.ratio(iter_time) / stages as f64
    };
    Ok(PipelineReport {
        stages,
        microbatches: m,
        iter_time,
        stage_busy,
        bubble_fraction,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_spec(stages: usize, layers_per_stage: usize) -> WorkloadSpec {
        let mut text = format!("workload v1\nname Chain\ninput 256\naxis pipeline {stages}\n");
        for s in 0..stages {
            for l in 0..layers_per_stage {
                text.push_str(&format!(
                    "layer s{s}l{l} fc {s} 50000000 100000000 4096 4096 1048576 1\n"
                ));
            }
        }
        text.push_str("end\n");
        WorkloadSpec::parse(&text).unwrap()
    }

    fn cfg(microbatch: usize, microbatches: usize) -> PipelineConfig {
        PipelineConfig {
            microbatch,
            microbatches,
        }
    }

    #[test]
    fn more_microbatches_shrink_the_bubble() {
        let sys = SystemModel::dgx1();
        let spec = chain_spec(4, 2);
        let few = simulate_pipeline_epoch(&sys, &spec, &cfg(8, 2)).unwrap();
        let many = simulate_pipeline_epoch(&sys, &spec, &cfg(8, 16)).unwrap();
        assert!(few.bubble_fraction > many.bubble_fraction);
        assert!(many.bubble_fraction > 0.0);
        // The canonical GPipe bubble is (S-1)/(M+S-1); with balanced
        // stages the simulated value lands near it (transfers add a
        // little extra idleness).
        let ideal = 3.0 / (16.0 + 3.0);
        assert!(
            (many.bubble_fraction - ideal).abs() < 0.15,
            "bubble {} vs ideal {}",
            many.bubble_fraction,
            ideal
        );
    }

    #[test]
    fn deeper_pipelines_cut_per_stage_work() {
        let sys = SystemModel::dgx1();
        let one = simulate_pipeline_epoch(&sys, &chain_spec(1, 8), &cfg(8, 8)).unwrap();
        let four = simulate_pipeline_epoch(&sys, &chain_spec(4, 2), &cfg(8, 8)).unwrap();
        // Same total work split over four GPUs: the iteration finishes
        // faster despite the bubble.
        assert!(four.iter_time < one.iter_time);
        assert_eq!(one.bubble_fraction, 0.0);
        assert_eq!(four.stages, 4);
        assert_eq!(four.stage_busy.len(), 4);
    }

    #[test]
    fn report_is_deterministic() {
        let sys = SystemModel::dgx1();
        let spec = chain_spec(4, 2);
        let a = simulate_pipeline_epoch(&sys, &spec, &cfg(8, 8)).unwrap();
        let b = simulate_pipeline_epoch(&sys, &spec, &cfg(8, 8)).unwrap();
        assert_eq!(a.iter_time, b.iter_time);
        assert_eq!(a.stage_busy, b.stage_busy);
    }

    #[test]
    fn typed_errors_for_degenerate_pipelines() {
        let sys = SystemModel::dgx1();
        let spec = chain_spec(2, 1);
        assert_eq!(
            simulate_pipeline_epoch(&sys, &spec, &cfg(8, 0)),
            Err(PipelineError::ZeroMicrobatches)
        );
        assert!(matches!(
            simulate_pipeline_epoch(&sys, &spec, &cfg(0, 4)),
            Err(PipelineError::Lower(LowerError::ZeroBatch))
        ));
        // A declared stage with no layers.
        let holey = WorkloadSpec::parse(
            "workload v1\nname Holey\ninput 4\naxis pipeline 2\n\
             layer a fc 1 100 200 16 16 64 0\nend\n",
        )
        .unwrap();
        assert_eq!(
            simulate_pipeline_epoch(&sys, &holey, &cfg(8, 4)),
            Err(PipelineError::EmptyStage(0))
        );
        // More stages than the DGX-1 has GPUs.
        let deep = chain_spec(9, 1);
        assert_eq!(
            simulate_pipeline_epoch(&sys, &deep, &cfg(8, 4)),
            Err(PipelineError::TooManyStages { stages: 9, gpus: 8 })
        );
    }

    #[test]
    fn stage_aggregation_overflow_is_typed() {
        // Each layer individually survives lowering at micro-batch 1
        // (its BP volume is 2^64 - 4), but summing the stage's BP
        // bytes overflows. Pre-fix this panicked in debug and wrapped
        // silently in release.
        let q = u64::MAX / 4;
        let spec = WorkloadSpec::parse(&format!(
            "workload v1\nname Huge\ninput 4\naxis pipeline 1\n\
             layer a fc 0 100 200 {q} {q} 4096 0\n\
             layer b fc 0 100 200 {q} {q} 0 0\nend\n"
        ))
        .unwrap();
        assert!(voltascope_workload::lower(&spec, 1).is_ok());
        assert_eq!(
            simulate_pipeline_epoch(&SystemModel::dgx1(), &spec, &cfg(1, 2)),
            Err(PipelineError::ArithmeticOverflow { stage: 0 })
        );
    }

    fn branchy_spec(branch_order: [&str; 2]) -> WorkloadSpec {
        // Stage 0 ends in two parallel branches (both cross to the
        // join on stage 1); only their file order varies.
        let [x, y] = branch_order;
        let mut text = String::from(
            "workload v2\nname Branches\ninput 256\naxis pipeline 2\n\
             layer stem fc 0 50000000 100000000 4096 1048576 1048576 1\n",
        );
        for name in [x, y] {
            let out = if name == "wide" { 8 << 20 } else { 1 << 20 };
            text.push_str(&format!(
                "layer {name} fc 0 50000000 100000000 1048576 {out} 1048576 1\ndep {name} stem\n"
            ));
        }
        text.push_str(
            "layer join fc 1 50000000 100000000 9437184 4096 1048576 1\ndep join wide narrow\nend\n",
        );
        WorkloadSpec::parse(&text).unwrap()
    }

    #[test]
    fn boundary_volume_covers_all_parallel_branches() {
        // Both branches' activations cross the stage boundary, so the
        // file order of the branch layers must not change the iteration
        // time. Pre-fix, `boundary_bytes` took the file-order-last
        // layer's out_bytes: swapping `wide` and `narrow` changed the
        // stage-crossing volume 8x and the report with it.
        let sys = SystemModel::dgx1();
        let a =
            simulate_pipeline_epoch(&sys, &branchy_spec(["wide", "narrow"]), &cfg(8, 4)).unwrap();
        let b =
            simulate_pipeline_epoch(&sys, &branchy_spec(["narrow", "wide"]), &cfg(8, 4)).unwrap();
        assert_eq!(a.iter_time, b.iter_time);
        assert_eq!(a.stage_busy, b.stage_busy);
    }
}

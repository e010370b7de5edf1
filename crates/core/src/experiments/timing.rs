//! Timing experiments: Fig. 3, Table II, Fig. 4, Table III, Fig. 5.
//!
//! Every sweep here is declared as a [`GridSpec`] (`spec`) and answered
//! by a caching [`GridService`]: each module's `grid`/`rows` entry
//! point sweeps its spec through the service, and `rows_from` derives
//! the rows from the raw [`EpochReport`] grid, so a caller that already
//! holds a swept grid can derive the same rows from it. The service's
//! executor decides how cells run; the rows do not depend on it.

use std::collections::HashSet;
use std::sync::Arc;

use voltascope_comm::CommMethod;
use voltascope_dnn::zoo::Workload;
use voltascope_profile::TextTable;
use voltascope_train::{EpochReport, ScalingMode};

use crate::grid::{Cell, GridOut, GridSpec};
use crate::harness::{Harness, Measurement};
use crate::service::GridService;
use crate::workloads::WorkloadSel;

/// The paper's batch-size sweep (alias of [`crate::grid::PAPER_BATCHES`]).
pub const BATCHES: [usize; 3] = crate::grid::PAPER_BATCHES;
/// The paper's GPU-count sweep (alias of [`crate::grid::PAPER_GPU_COUNTS`]).
pub const GPU_COUNTS: [usize; 4] = crate::grid::PAPER_GPU_COUNTS;

/// One bar of Fig. 3: a (workload, method, batch, GPUs) training time.
#[derive(Debug, Clone)]
pub struct TrainingTimeCell {
    /// Workload.
    pub workload: WorkloadSel,
    /// Communication method.
    pub comm: CommMethod,
    /// Per-GPU batch size.
    pub batch: usize,
    /// GPU count.
    pub gpus: usize,
    /// Mean +/- stddev epoch time.
    pub time: Measurement,
}

/// Reproduces Fig. 3: training time per epoch for every workload,
/// method, batch size and GPU count (strong scaling, 256K images).
///
/// # Example
///
/// ```no_run
/// use voltascope::grid::Executor;
/// use voltascope::service::GridService;
/// use voltascope::{experiments::fig3, Harness};
/// use voltascope_dnn::zoo::Workload;
///
/// let service = GridService::with_executor(Harness::paper(), Executor::Serial);
/// let cells = fig3::grid(&service, &[Workload::LeNet]);
/// assert_eq!(cells.len(), 2 * 3 * 4); // methods x batches x gpu counts
/// ```
pub mod fig3 {
    use super::*;

    /// The declarative Fig. 3 sweep for the given workloads.
    pub fn spec(workloads: &[Workload]) -> GridSpec {
        GridSpec::paper().workloads(workloads.iter().copied())
    }

    /// Computes the grid for the given workloads through a caching
    /// sweep service.
    pub fn grid(service: &GridService, workloads: &[Workload]) -> Vec<TrainingTimeCell> {
        rows_from(service.base(), &service.sweep(&spec(workloads)))
    }

    /// Derives the Fig. 3 rows from a raw report grid: the repetition
    /// protocol's jittered measurement per cell, salted by the cell key
    /// alone, so neither the executor nor the grid's extent changes a
    /// cell's measurement.
    pub fn rows_from(h: &Harness, out: &GridOut<Arc<EpochReport>>) -> Vec<TrainingTimeCell> {
        out.iter()
            .map(|(c, r)| TrainingTimeCell {
                workload: c.workload,
                comm: c.comm,
                batch: c.batch,
                gpus: c.gpus,
                time: h.measure(r.epoch_time.as_secs_f64(), c.jitter_salt()),
            })
            .collect()
    }

    /// Renders the grid as the paper prints it: one row per
    /// (workload, method, batch), one column per GPU count.
    pub fn render(cells: &[TrainingTimeCell]) -> TextTable {
        let mut table = TextTable::new([
            "Workload",
            "Method",
            "Batch",
            "1 GPU (s)",
            "2 GPUs (s)",
            "4 GPUs (s)",
            "8 GPUs (s)",
        ]);
        // Order-preserving dedup: first appearance wins, regardless of
        // how the cells are ordered (Vec::dedup would only collapse
        // *consecutive* duplicates).
        let mut seen = HashSet::new();
        let keys: Vec<(WorkloadSel, CommMethod, usize)> = cells
            .iter()
            .map(|c| (c.workload, c.comm, c.batch))
            .filter(|k| seen.insert(*k))
            .collect();
        let index: std::collections::HashMap<
            (WorkloadSel, CommMethod, usize, usize),
            &TrainingTimeCell,
        > = cells
            .iter()
            .map(|c| ((c.workload, c.comm, c.batch, c.gpus), c))
            .collect();
        for (workload, comm, batch) in keys {
            let cell = |gpus: usize| -> String {
                index
                    .get(&(workload, comm, batch, gpus))
                    .map(|c| format!("{:.1} ± {:.1}", c.time.mean_s, c.time.stddev_s))
                    .unwrap_or_else(|| "-".into())
            };
            table.row([
                workload.name().to_string(),
                comm.name().to_string(),
                batch.to_string(),
                cell(1),
                cell(2),
                cell(4),
                cell(8),
            ]);
        }
        table
    }
}

/// Reproduces Table II: NCCL overhead vs P2P on a single GPU.
pub mod table2 {
    use super::*;

    /// One row: workload, batch, overhead percentage.
    #[derive(Debug, Clone)]
    pub struct OverheadRow {
        /// Workload.
        pub workload: WorkloadSel,
        /// Per-GPU batch size.
        pub batch: usize,
        /// `100 * (T_nccl - T_p2p) / T_p2p` on one GPU.
        pub overhead_percent: f64,
    }

    /// The declarative Table II sweep: both methods on a single GPU.
    pub fn spec(workloads: &[Workload]) -> GridSpec {
        GridSpec::paper()
            .workloads(workloads.iter().copied())
            .gpu_counts([1])
    }

    /// Computes the overhead rows for the given workloads through a
    /// caching sweep service.
    pub fn rows(service: &GridService, workloads: &[Workload]) -> Vec<OverheadRow> {
        rows_from(&service.sweep(&spec(workloads)))
    }

    /// Derives the Table II rows from a raw report grid. Each P2P cell
    /// (in enumeration order, i.e. workload-major then batch) pairs
    /// with the NCCL cell of the same configuration.
    pub fn rows_from(out: &GridOut<Arc<EpochReport>>) -> Vec<OverheadRow> {
        let secs = out.index_by(|c| (c.workload, c.comm, c.batch));
        out.cells()
            .iter()
            .filter(|c| c.comm == CommMethod::P2p)
            .map(|c| {
                let p2p = secs[&(c.workload, CommMethod::P2p, c.batch)]
                    .epoch_time
                    .as_secs_f64();
                let nccl = secs[&(c.workload, CommMethod::Nccl, c.batch)]
                    .epoch_time
                    .as_secs_f64();
                OverheadRow {
                    workload: c.workload,
                    batch: c.batch,
                    overhead_percent: 100.0 * (nccl - p2p) / p2p,
                }
            })
            .collect()
    }

    /// Renders Table II.
    pub fn render(rows: &[OverheadRow]) -> TextTable {
        let mut table = TextTable::new(["Network", "Batch Size", "NCCL Overhead (%)"]);
        for r in rows {
            table.row([
                r.workload.name().to_string(),
                r.batch.to_string(),
                format!("{:.1}", r.overhead_percent),
            ]);
        }
        table
    }
}

/// Reproduces Fig. 4: epoch time broken into FP+BP and WU (NCCL).
pub mod fig4 {
    use super::*;

    /// One stacked bar.
    #[derive(Debug, Clone)]
    pub struct BreakdownCell {
        /// Workload.
        pub workload: WorkloadSel,
        /// Per-GPU batch size.
        pub batch: usize,
        /// GPU count.
        pub gpus: usize,
        /// FP+BP (computation) seconds per epoch.
        pub fp_bp_s: f64,
        /// Exposed WU (communication) seconds per epoch.
        pub wu_s: f64,
    }

    /// The declarative Fig. 4 sweep (NCCL, as in the paper).
    pub fn spec(workloads: &[Workload]) -> GridSpec {
        GridSpec::paper()
            .workloads(workloads.iter().copied())
            .comms([CommMethod::Nccl])
    }

    /// Computes the breakdown grid through a caching sweep service.
    pub fn grid(service: &GridService, workloads: &[Workload]) -> Vec<BreakdownCell> {
        rows_from(&service.sweep(&spec(workloads)))
    }

    /// Derives the Fig. 4 rows from a raw report grid.
    pub fn rows_from(out: &GridOut<Arc<EpochReport>>) -> Vec<BreakdownCell> {
        out.iter()
            .map(|(c, r)| BreakdownCell {
                workload: c.workload,
                batch: c.batch,
                gpus: c.gpus,
                fp_bp_s: r.fp_bp_epoch().as_secs_f64(),
                wu_s: r.wu_epoch().as_secs_f64(),
            })
            .collect()
    }

    /// Renders the breakdown table (X-axis = (GPU count, batch size),
    /// as in the paper).
    pub fn render(cells: &[BreakdownCell]) -> TextTable {
        let mut table = TextTable::new([
            "Workload",
            "(GPUs, Batch)",
            "FP+BP (s)",
            "WU (s)",
            "WU share (%)",
        ]);
        for c in cells {
            let total = c.fp_bp_s + c.wu_s;
            table.row([
                c.workload.name().to_string(),
                format!("({}, {})", c.gpus, c.batch),
                format!("{:.1}", c.fp_bp_s),
                format!("{:.1}", c.wu_s),
                format!("{:.1}", 100.0 * c.wu_s / total),
            ]);
        }
        table
    }
}

/// Reproduces Table III: `cudaStreamSynchronize` time share for LeNet.
pub mod table3 {
    use super::*;

    /// One row of Table III.
    #[derive(Debug, Clone)]
    pub struct SyncRow {
        /// Per-GPU batch size.
        pub batch: usize,
        /// GPU count.
        pub gpus: usize,
        /// Share of total training time spent in (or blocked on)
        /// `cudaStreamSynchronize`, in percent.
        pub percent: f64,
    }

    /// The declarative Table III sweep (LeNet with NCCL, §V-C).
    pub fn spec() -> GridSpec {
        GridSpec::paper()
            .workloads([Workload::LeNet])
            .comms([CommMethod::Nccl])
    }

    /// Computes the rows through a caching sweep service.
    pub fn rows(service: &GridService) -> Vec<SyncRow> {
        rows_from(&service.sweep(&spec()))
    }

    /// Derives the Table III rows from a raw report grid.
    pub fn rows_from(out: &GridOut<Arc<EpochReport>>) -> Vec<SyncRow> {
        out.iter()
            .map(|(c, r)| SyncRow {
                batch: c.batch,
                gpus: c.gpus,
                percent: r.sync_percent(),
            })
            .collect()
    }

    /// Renders Table III.
    pub fn render(rows: &[SyncRow]) -> TextTable {
        let mut table = TextTable::new(["Batch Size", "GPU Count", "Time (%)"]);
        for r in rows {
            table.row([
                r.batch.to_string(),
                r.gpus.to_string(),
                format!("{:.1}", r.percent),
            ]);
        }
        table
    }
}

/// Reproduces Fig. 5: weak-scaling vs strong-scaling training time.
pub mod fig5 {
    use super::*;

    /// One comparison cell: time to process 256K images per GPU-epoch
    /// under both scaling regimes.
    #[derive(Debug, Clone)]
    pub struct WeakScalingCell {
        /// Workload.
        pub workload: WorkloadSel,
        /// Communication method.
        pub comm: CommMethod,
        /// Per-GPU batch size.
        pub batch: usize,
        /// GPU count.
        pub gpus: usize,
        /// Strong-scaling epoch time (256K images total).
        pub strong_s: f64,
        /// Weak-scaling time normalised to 256K images (epoch time /
        /// GPU count), the paper's "average time for training with 256K
        /// images".
        pub weak_norm_s: f64,
        /// Weak-scaling raw epoch time (256K x GPUs images).
        pub weak_total_s: f64,
    }

    /// The declarative Fig. 5 sweep: both scaling regimes of the full
    /// paper grid.
    pub fn spec(workloads: &[Workload]) -> GridSpec {
        GridSpec::paper()
            .workloads(workloads.iter().copied())
            .scalings([ScalingMode::Strong, ScalingMode::Weak])
    }

    /// Computes the weak-scaling grid through a caching sweep service.
    pub fn grid(service: &GridService, workloads: &[Workload]) -> Vec<WeakScalingCell> {
        rows_from(&service.sweep(&spec(workloads)))
    }

    /// Derives the Fig. 5 rows from a raw report grid: each
    /// strong-scaling cell pairs with the weak-scaling cell of the same
    /// configuration.
    pub fn rows_from(out: &GridOut<Arc<EpochReport>>) -> Vec<WeakScalingCell> {
        let index = out.index();
        out.cells()
            .iter()
            .filter(|c| c.scaling == ScalingMode::Strong)
            .map(|&strong_cell| {
                let weak_cell = Cell {
                    scaling: ScalingMode::Weak,
                    ..strong_cell
                };
                let strong = index[&strong_cell].epoch_time.as_secs_f64();
                let weak = index[&weak_cell].epoch_time.as_secs_f64();
                WeakScalingCell {
                    workload: strong_cell.workload,
                    comm: strong_cell.comm,
                    batch: strong_cell.batch,
                    gpus: strong_cell.gpus,
                    strong_s: strong,
                    weak_norm_s: weak / strong_cell.gpus as f64,
                    weak_total_s: weak,
                }
            })
            .collect()
    }

    /// Renders the comparison table.
    pub fn render(cells: &[WeakScalingCell]) -> TextTable {
        let mut table = TextTable::new([
            "Workload",
            "Method",
            "Batch",
            "GPUs",
            "Strong (s)",
            "Weak/GPU (s)",
            "Weak total (s)",
        ]);
        for c in cells {
            table.row([
                c.workload.name().to_string(),
                c.comm.name().to_string(),
                c.batch.to_string(),
                c.gpus.to_string(),
                format!("{:.1}", c.strong_s),
                format!("{:.1}", c.weak_norm_s),
                format!("{:.1}", c.weak_total_s),
            ]);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Executor;

    fn service() -> GridService {
        GridService::new(Harness::paper())
    }

    #[test]
    fn fig3_lenet_shapes() {
        let cells = fig3::grid(&service(), &[Workload::LeNet]);
        assert_eq!(cells.len(), 24);
        let t = |comm: CommMethod, batch: usize, gpus: usize| -> f64 {
            cells
                .iter()
                .find(|c| c.comm == comm && c.batch == batch && c.gpus == gpus)
                .unwrap()
                .time
                .mean_s
        };
        // More GPUs -> faster, sublinearly (paper: 3.36x at 8 GPUs P2P).
        let speedup8 = t(CommMethod::P2p, 16, 1) / t(CommMethod::P2p, 16, 8);
        assert!(
            (1.5..7.0).contains(&speedup8),
            "LeNet 8-GPU P2P speedup {speedup8}"
        );
        // P2P beats NCCL for LeNet at every GPU count (§V-A).
        for gpus in GPU_COUNTS {
            assert!(
                t(CommMethod::P2p, 16, gpus) < t(CommMethod::Nccl, 16, gpus),
                "NCCL should lose on LeNet at {gpus} GPUs"
            );
        }
        // Batch scaling is near-linear (paper: 1.92x and 3.67x at 4 GPUs).
        let b_ratio = t(CommMethod::P2p, 16, 4) / t(CommMethod::P2p, 64, 4);
        assert!(
            (2.0..4.4).contains(&b_ratio),
            "batch 16->64 ratio {b_ratio}"
        );
        let table = fig3::render(&cells);
        assert_eq!(table.len(), 6);
    }

    #[test]
    fn fig3_render_survives_shuffled_cells() {
        // Regression: the old renderer used Vec::dedup on the row keys,
        // which only removes *consecutive* duplicates — a shuffled cell
        // order silently emitted duplicate rows.
        let service = GridService::with_executor(Harness::paper(), Executor::Serial);
        let mut cells = fig3::grid(&service, &[Workload::LeNet]);
        let canonical = fig3::render(&cells).render();
        // Deterministic shuffle: rotate then interleave halves.
        cells.rotate_left(7);
        let half = cells.len() / 2;
        let (a, b) = cells.split_at(half);
        let shuffled: Vec<TrainingTimeCell> = a
            .iter()
            .zip(b.iter())
            .flat_map(|(x, y)| [y.clone(), x.clone()])
            .collect();
        assert_eq!(shuffled.len(), cells.len());
        let table = fig3::render(&shuffled);
        // Same number of rows as the canonical rendering: every
        // (workload, method, batch) key appears exactly once.
        assert_eq!(table.len(), canonical.lines().count() - 2);
        // Every canonical row is still present (row order follows the
        // shuffled first-appearance order, but no row is duplicated or
        // dropped).
        let rendered = table.render();
        for line in canonical.lines().skip(2) {
            assert!(rendered.contains(line), "row missing after shuffle: {line}");
        }
    }

    #[test]
    fn table2_lenet_overhead_near_paper_value() {
        let rows = table2::rows(&service(), &[Workload::LeNet]);
        let b16 = rows.iter().find(|r| r.batch == 16).unwrap();
        // §V-B: 21.8% for LeNet at batch 16 on one GPU.
        assert!(
            (10.0..40.0).contains(&b16.overhead_percent),
            "LeNet b16 overhead {}",
            b16.overhead_percent
        );
        // §V-B: overhead grows with batch size for small networks.
        let b64 = rows.iter().find(|r| r.batch == 64).unwrap();
        assert!(
            b64.overhead_percent > b16.overhead_percent,
            "overhead should grow with batch: {} -> {}",
            b16.overhead_percent,
            b64.overhead_percent
        );
    }

    #[test]
    fn table3_sync_share_falls_with_batch() {
        let rows = table3::rows(&service());
        let pct = |batch, gpus| {
            rows.iter()
                .find(|r| r.batch == batch && r.gpus == gpus)
                .unwrap()
                .percent
        };
        // §V-C: the share decreases as the batch grows.
        assert!(pct(16, 1) > pct(64, 1));
        assert!(pct(16, 4) > pct(64, 4));
        assert!(!table3::render(&rows).is_empty());
    }

    #[test]
    fn fig4_single_gpu_wu_is_negligible() {
        let cells = fig4::grid(&service(), &[Workload::LeNet]);
        let c1 = cells.iter().find(|c| c.gpus == 1 && c.batch == 16).unwrap();
        assert!(c1.wu_s < c1.fp_bp_s, "1-GPU WU should be small");
        let c8 = cells.iter().find(|c| c.gpus == 8 && c.batch == 16).unwrap();
        assert!(c8.wu_s / (c8.wu_s + c8.fp_bp_s) > c1.wu_s / (c1.wu_s + c1.fp_bp_s));
    }

    #[test]
    fn fig5_weak_scaling_beats_strong_for_lenet() {
        // §V-E: LeNet's weak-scaling speedup exceeds strong scaling
        // because fixed per-epoch overheads amortise over more work.
        let cells = fig5::grid(&service(), &[Workload::LeNet]);
        let cell = cells
            .iter()
            .find(|c| c.comm == CommMethod::Nccl && c.batch == 16 && c.gpus == 8)
            .unwrap();
        assert!(
            cell.weak_norm_s <= cell.strong_s * 1.05,
            "weak {} vs strong {}",
            cell.weak_norm_s,
            cell.strong_s
        );
    }
}

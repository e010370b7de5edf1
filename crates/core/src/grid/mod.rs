//! # The declarative experiment grid engine
//!
//! Every result in the paper is a configuration grid — Fig. 3 alone is
//! 5 workloads × 2 communication methods × 3 batch sizes × 4 GPU
//! counts — and every cell of every grid is a pure function of its
//! configuration. This module replaces the hand-rolled nested sweep
//! loops the experiment modules used to carry with one engine:
//!
//! * [`GridSpec`] — the declarative description of a sweep: one value
//!   list per axis (workload, communication method, batch size, GPU
//!   count, scaling mode, platform variant), each defaulting to the
//!   paper's canonical choice so an experiment only names the axes it
//!   actually sweeps.
//! * [`Cell`] — one typed grid point. Cells are `Copy + Eq + Hash`, so
//!   renderers index results in O(1) instead of linearly scanning
//!   result vectors. Jitter salts are derived from the cell key alone
//!   ([`Cell::jitter_salt`]), never from execution order.
//! * [`Executor`] — pluggable execution strategy: [`Executor::Serial`]
//!   or [`Executor::Parallel`] (std `thread::scope` work-chunking over
//!   an atomic work index; the workspace deliberately has no rayon).
//!   [`Executor::from_env`] reads the `VOLTASCOPE_THREADS` override.
//! * [`GridRunner`] — pre-builds each workload's [`Model`] once per
//!   grid (shared via `Arc` across worker threads) and each platform
//!   variant's [`Harness`] once, then maps a cell function over the
//!   enumeration. Cells simulated through [`CellCtx::report`] share
//!   the runner's NCCL tuner memo, so each distinct tuning decision is
//!   simulated once per grid.
//!
//! ## Determinism
//!
//! Cell enumeration order is fixed (workload → platform → comm → batch
//! → GPUs → scaling) and results are written into slots indexed by the
//! cell's enumeration position, so [`Executor::Serial`] and
//! [`Executor::Parallel`] produce **bit-identical** result vectors for
//! any thread count — verified by `tests/determinism.rs`.
//!
//! ## Example
//!
//! ```
//! use voltascope::grid::{Executor, GridRunner, GridSpec};
//! use voltascope::Harness;
//! use voltascope_dnn::zoo::Workload;
//!
//! let spec = GridSpec::paper()
//!     .workloads([Workload::LeNet])
//!     .batches([16])
//!     .gpu_counts([1, 4]);
//! let harness = Harness::paper();
//! let runner = GridRunner::new(&harness, &spec);
//! let out = runner.run(Executor::Serial, &spec, |ctx| {
//!     ctx.harness
//!         .epoch(ctx.model(), ctx.cell.batch, ctx.cell.gpus, ctx.cell.comm, ctx.cell.scaling)
//!         .epoch_time
//! });
//! assert_eq!(out.len(), 2 * 2); // comm methods x GPU counts
//! ```

mod cell;
mod executor;
mod runner;
mod spec;

pub use cell::{Cell, FaultScenario, Platform};
pub use executor::Executor;
pub(crate) use runner::cell_report_with;
pub use runner::{cell_report, epoch_reports, harness_for, run_grid, CellCtx, GridOut, GridRunner};
pub use spec::{GridSpec, PAPER_BATCHES, PAPER_GPU_COUNTS};

#[allow(unused_imports)] // rustdoc links
use voltascope_dnn::Model;

#[allow(unused_imports)] // rustdoc links
use crate::Harness;

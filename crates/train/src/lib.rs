//! # voltascope-train — data-parallel DNN training on the simulated DGX-1
//!
//! The MXNet stand-in of the paper reproduction, with two coupled
//! halves:
//!
//! * **Real numerics** — [`DataParallel`] executes synchronous SGD
//!   (paper Fig. 1) with actual tensors: per-replica FP/BP, semantic
//!   ring-AllReduce gradient averaging, identical updates. The key
//!   invariant (N replicas on N shards == 1 replica on the full batch)
//!   is enforced by tests. [`AsyncParameterServer`] implements the ASGD
//!   alternative of §II-B, with its delayed-gradient staleness
//!   measurable.
//! * **Timing** — [`simulate_epoch`] lowers one configuration (model x
//!   batch x GPU count x [`CommMethod`](voltascope_comm::CommMethod))
//!   onto the discrete-event engine: API calls on host threads, kernels
//!   on compute streams, gradient buckets flowing over NVLink/PCIe as
//!   soon as backward produces them (MXNet's BP/WU overlap), with
//!   either the P2P parameter-server schedule or NCCL-style ring
//!   collectives.
//!
//! [`MemoryModel`] reproduces the `nvidia-smi` readings of Table IV,
//! including GPU0's batch-independent parameter-server overhead.
//!
//! # Example
//!
//! ```
//! use voltascope_comm::CommMethod;
//! use voltascope_dnn::zoo;
//! use voltascope_train::{simulate_epoch, SystemModel, TrainConfig};
//!
//! let sys = SystemModel::dgx1();
//! let model = zoo::lenet();
//! let report = simulate_epoch(&sys, &model, &TrainConfig::strong(32, 4, CommMethod::Nccl));
//! assert_eq!(report.iter_time, report.fp_bp_iter + report.wu_iter);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod async_sgd;
mod dataset;
pub mod dynamic;
mod epoch;
mod memory;
mod optimizer;
mod parallel;
mod pipeline;
mod schedule;

pub use async_sgd::AsyncParameterServer;
pub use dataset::{DatasetSpec, ScalingMode, ShuffledSampler, SyntheticDataset};
pub use dynamic::{
    simulate_epoch_dynamic, simulate_epoch_dynamic_lowered, simulate_epoch_dynamic_lowered_memo,
    DynamicEpochReport, MidEpochFault,
};
pub use epoch::{
    simulate_epoch, simulate_epoch_lowered, simulate_epoch_lowered_memo, EpochReport, SystemModel,
    TrainConfig,
};
pub use memory::{GpuRole, MemoryModel, MemoryUsage};
pub use optimizer::{Sgd, SgdState};
pub use parallel::{flatten, unflatten, DataParallel};
pub use pipeline::{simulate_pipeline_epoch, PipelineConfig, PipelineError, PipelineReport};
pub use schedule::LrSchedule;

// Compile-time guarantee for the parallel experiment grid: the platform
// model and epoch reports cross sweep worker threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SystemModel>();
    assert_send_sync::<EpochReport>();
    assert_send_sync::<MemoryModel>();
    assert_send_sync::<TrainConfig>();
};

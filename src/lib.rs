//! # dgx1-repro — umbrella crate for the IISWC 2018 DGX-1 reproduction
//!
//! Re-exports the whole `voltascope` workspace for the integration
//! tests and runnable examples that live at the repository root. See
//! the README for the tour and DESIGN.md for the architecture.
//!
//! # Example
//!
//! ```
//! use dgx1_repro::prelude::*;
//!
//! let harness = Harness::paper();
//! let model = Workload::LeNet.build();
//! let report = harness.epoch(&model, 16, 2, CommMethod::P2p, ScalingMode::Strong);
//! assert!(report.iterations > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use voltascope;
pub use voltascope_comm as comm;
pub use voltascope_dnn as dnn;
pub use voltascope_gpu as gpu;
pub use voltascope_profile as profile;
pub use voltascope_sim as sim;
pub use voltascope_topo as topo;
pub use voltascope_train as train;
pub use voltascope_workload as workload;

/// The most commonly used items, for examples and tests.
pub mod prelude {
    pub use voltascope::grid::{Cell, Executor, FaultScenario, GridRunner, GridSpec, Platform};
    pub use voltascope::service::sched::{
        Priority, SchedConfig, SchedStats, Scheduler, SubmitError, SubmitOpts, Ticket, TicketError,
        TicketStatus,
    };
    pub use voltascope::service::{persist, GridService, ServiceStats, SnapshotStatus};
    pub use voltascope::workloads::{DataWorkload, WorkloadSel};
    pub use voltascope::{experiments, Harness, Measurement};
    pub use voltascope_comm::CommMethod;
    pub use voltascope_dnn::zoo::{self, Workload};
    pub use voltascope_dnn::{Model, NetworkStats, Shape, Tensor};
    pub use voltascope_profile::{render_timeline, ProfileSummary, TextTable};
    pub use voltascope_train::{
        simulate_epoch_lowered, simulate_pipeline_epoch, AsyncParameterServer, DataParallel,
        DatasetSpec, EpochError, EpochReport, EpochRequest, GpuRole, MemoryModel, MidEpochFault,
        PipelineConfig, PipelineReport, ScalingMode, Sgd, SyntheticDataset, SystemModel,
        TrainConfig,
    };
    pub use voltascope_workload::{
        lower, lower_model, Definition, LowerError, LoweredWorkload, ParseError, WorkloadSpec,
    };
}

//! # voltascope — reproduction harness for *Profiling DNN Workloads on
//! a Volta-based DGX-1 System* (IISWC 2018)
//!
//! This crate is the top of the workspace: it composes the simulated
//! DGX-1 ([`calibration`]), the five-workload model zoo, the two
//! communication backends, and the profiling surface into one
//! [`Harness`] with a function per paper table/figure under
//! [`experiments`]:
//!
//! | Paper artefact | Function |
//! |---|---|
//! | Table I (networks) | [`experiments::structure::table1`] |
//! | Fig. 1 (timeline)  | [`experiments::structure::fig1_timeline`] |
//! | Fig. 2 (topology)  | [`experiments::structure::fig2_topology`] |
//! | Fig. 3 (training time) | [`experiments::fig3::grid`] |
//! | Table II (NCCL overhead) | [`experiments::table2::rows`] |
//! | Fig. 4 (FP+BP vs WU) | [`experiments::fig4::grid`] |
//! | Table III (sync share) | [`experiments::table3::rows`] |
//! | Table IV (memory) | [`experiments::memory::table4`] |
//! | §V-D (max batch) | [`experiments::memory::max_batch`] |
//! | Fig. 5 (weak scaling) | [`experiments::fig5::grid`] |
//! | Ablations (DESIGN.md §5) | [`experiments::ablation`] |
//!
//! # Example
//!
//! ```
//! use voltascope::{experiments::structure, Harness};
//! use voltascope_dnn::zoo::Workload;
//!
//! // Regenerate Table I.
//! let stats = structure::table1(&Workload::ALL);
//! let table = structure::render_table1(&stats);
//! println!("{}", table.render());
//! assert_eq!(stats.len(), 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibration;
pub mod experiments;
pub mod grid;
mod harness;
pub mod service;
pub mod workloads;

pub use harness::{Harness, Measurement};
pub use workloads::{DataWorkload, WorkloadSel};

// Compile-time guarantee for the parallel experiment grid: the whole
// harness crosses sweep worker threads by shared reference.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Harness>();
    assert_send_sync::<Measurement>();
    assert_send_sync::<grid::Cell>();
    assert_send_sync::<grid::GridSpec>();
    // The sweep service has one owner: it may move to another thread,
    // but is never shared (its docs pin that it is not `Sync`).
    const fn assert_send<T: Send>() {}
    assert_send::<service::GridService>();
};

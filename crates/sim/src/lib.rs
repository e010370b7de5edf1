//! # voltascope-sim — deterministic discrete-event task-graph simulator
//!
//! This crate is the execution substrate for the whole `voltascope`
//! workspace. Every higher-level activity — a CUDA kernel on a GPU
//! stream, a DMA copy over an NVLink hop, a host-side runtime API call —
//! is lowered to a [`Task`] in a [`TaskGraph`]: a node with a service
//! duration, an optional exclusive [`Resource`] it must occupy while it
//! runs, and dependency edges to the tasks that must finish first.
//!
//! The [`Engine`] executes a task graph under a discrete-event schedule
//! and returns a [`Schedule`]: per-task start/finish times, per-resource
//! utilisation and the makespan. On request, [`Schedule::trace`] builds
//! the columnar [`Trace`] of any range of task ids, which downstream
//! crates (notably `voltascope-profile`) aggregate into nvprof-style
//! reports. A graph keeps its task labels in one arena and interns its
//! categories, so building one allocates no string per task.
//!
//! Determinism is a hard requirement: two runs of the same graph must
//! produce bit-identical schedules so that paper-reproduction tables are
//! stable. All tie-breaks are by insertion order, never by hash order or
//! wall-clock time.
//!
//! # Example
//!
//! Two kernels on one exclusive GPU stream serialise; a transfer on an
//! independent link overlaps with them:
//!
//! ```
//! use voltascope_sim::{Engine, SimSpan, TaskGraph};
//!
//! let mut graph = TaskGraph::new();
//! let gpu = graph.add_resource("gpu0.compute", 1);
//! let link = graph.add_resource("nvlink.0-1", 1);
//!
//! let k1 = graph
//!     .task("conv1")
//!     .on(gpu)
//!     .lasting(SimSpan::from_micros(100))
//!     .category("fp")
//!     .build();
//! let k2 = graph
//!     .task("conv2")
//!     .on(gpu)
//!     .lasting(SimSpan::from_micros(50))
//!     .after(k1)
//!     .category("fp")
//!     .build();
//! let xfer = graph
//!     .task("grad-copy")
//!     .on(link)
//!     .lasting(SimSpan::from_micros(120))
//!     .category("wu")
//!     .build();
//!
//! let schedule = Engine::new().run(&graph)?;
//! assert_eq!(schedule.finish_time(k2).as_micros(), 150);
//! // The transfer ran concurrently, so the makespan is max, not sum.
//! assert_eq!(schedule.makespan().as_micros(), 150);
//! assert!(schedule.finish_time(xfer) < schedule.finish_time(k2));
//! # Ok::<(), voltascope_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
mod engine;
mod error;
mod graph;
mod jitter;
mod time;
mod trace;

pub use engine::{DynamicEvent, DynamicEventKind, Engine, ResourceStats, Schedule};
pub use error::SimError;
pub use graph::{Resource, ResourceId, Task, TaskBuilder, TaskGraph, TaskId};
pub use jitter::{mean_stddev, Jitter};
pub use time::{SimSpan, SimTime};
pub use trace::{EventIter, Events, IndexedEvent, StringTable, Trace, TraceEvent};

//! # voltascope-workload — workloads as data
//!
//! The declarative workload layer of the reproduction: a `.workload`
//! text schema ([`WorkloadSpec::parse`]), a lowering pass compiling a
//! spec into the per-layer kernel/bucket profile the epoch simulator
//! executes ([`lower`]/[`lower_model`]), and a [`Definition`] handle
//! that lets the grid machinery treat built-in Rust builders and
//! parsed data files interchangeably.
//!
//! # Example
//!
//! ```
//! use voltascope_workload::{lower, WorkloadSpec};
//!
//! let text = "workload v1\n\
//!             name Toy\n\
//!             input 1 28 28\n\
//!             layer conv1 conv 0 117600 235200 3136 18816 624 1\n\
//!             layer fc1 fc 0 94080 188160 18816 40 188170 1\n\
//!             end\n";
//! let spec = WorkloadSpec::parse(text).unwrap();
//! let lowered = lower(&spec, 16).unwrap();
//! assert_eq!(lowered.kernels.len(), 4); // 2 FP + 2 BP
//! assert_eq!(lowered.buckets.len(), 2); // both layers carry weights
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod lower;
mod schema;

pub use lower::{lower, lower_model, LowerError, LoweredDag, LoweredWorkload};
pub use schema::{DepError, LayerSpec, ParseError, ParseErrorKind, WorkloadSpec, KNOWN_KINDS};

use std::sync::Arc;

use voltascope_dnn::Model;

/// Where a workload's definition comes from: a Rust builder, a parsed
/// `.workload` spec, or both (the spec drives timing, the model stays
/// available for memory/census queries and cross-checking).
#[derive(Debug, Clone)]
pub enum Definition {
    /// A model built in Rust (the zoo builders).
    Builder(Arc<Model>),
    /// A parsed data file; no Rust model exists.
    Data(Arc<WorkloadSpec>),
    /// A data file paired with the builder it was extracted from: the
    /// spec is lowered for timing, the model retained as the golden
    /// cross-check and for model-level queries.
    Checked {
        /// The built model.
        model: Arc<Model>,
        /// The parsed spec that timing lowers from.
        spec: Arc<WorkloadSpec>,
    },
}

impl Definition {
    /// The workload's display name.
    pub fn name(&self) -> &str {
        match self {
            Definition::Builder(m) => m.name(),
            Definition::Data(s) => &s.name,
            Definition::Checked { spec, .. } => &spec.name,
        }
    }

    /// The built model, if this definition has one (data-only
    /// workloads do not).
    pub fn model(&self) -> Option<&Model> {
        match self {
            Definition::Builder(m) => Some(m),
            Definition::Data(_) => None,
            Definition::Checked { model, .. } => Some(model),
        }
    }

    /// The parsed spec, if this definition has one.
    pub fn spec(&self) -> Option<&WorkloadSpec> {
        match self {
            Definition::Builder(_) => None,
            Definition::Data(s) => Some(s),
            Definition::Checked { spec, .. } => Some(spec),
        }
    }

    /// Lowers the definition for `batch` samples per GPU. `Checked`
    /// definitions lower from the spec — that is the point of the
    /// data-driven path — and rely on the equivalence tests to keep
    /// spec and model interchangeable.
    pub fn lowered(&self, batch: usize) -> Result<LoweredWorkload, LowerError> {
        match self {
            Definition::Builder(m) => lower_model(m, batch),
            Definition::Data(s) => lower(s, batch),
            Definition::Checked { spec, .. } => lower(spec, batch),
        }
    }
}

impl From<Model> for Definition {
    fn from(m: Model) -> Self {
        Definition::Builder(Arc::new(m))
    }
}

impl From<WorkloadSpec> for Definition {
    fn from(s: WorkloadSpec) -> Self {
        Definition::Data(Arc::new(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voltascope_dnn::zoo;

    #[test]
    fn definition_routes_lowering_by_source() {
        let model = zoo::lenet();
        let spec = WorkloadSpec::from_model(&model);
        let builder: Definition = zoo::lenet().into();
        let data: Definition = spec.clone().into();
        let checked = Definition::Checked {
            model: Arc::new(zoo::lenet()),
            spec: Arc::new(spec),
        };
        assert_eq!(builder.name(), "LeNet");
        assert_eq!(data.name(), "LeNet");
        assert!(builder.model().is_some());
        assert!(data.model().is_none());
        assert!(checked.model().is_some());
        assert!(checked.spec().is_some());
        let a = builder.lowered(32).unwrap();
        let b = data.lowered(32).unwrap();
        let c = checked.lowered(32).unwrap();
        assert_eq!(a, b);
        assert_eq!(b, c);
    }
}

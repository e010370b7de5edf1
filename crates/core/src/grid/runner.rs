//! Shared-context grid execution and indexed results.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

use voltascope_comm::tuner::TunerMemo;
use voltascope_dnn::Model;
use voltascope_train::{EpochReport, EpochRequest, MidEpochFault};
use voltascope_workload::Definition;

use super::cell::{Cell, FaultScenario, Platform};
use super::executor::Executor;
use super::spec::GridSpec;
use crate::harness::train_config;
use crate::workloads::WorkloadSel;
use crate::Harness;

/// Everything a cell function needs, resolved once per grid rather
/// than once per cell: the platform-adjusted harness, the resolved
/// workload definition and the grid's tuner memo.
#[derive(Debug, Clone, Copy)]
pub struct CellCtx<'r> {
    /// The grid point being evaluated.
    pub cell: Cell,
    /// Harness whose system model matches `cell.platform`.
    pub harness: &'r Harness,
    /// The cell's workload definition, resolved once per grid and
    /// shared.
    pub def: &'r Definition,
    tuner: &'r TunerMemo,
}

impl<'r> CellCtx<'r> {
    /// The cell's [`EpochReport`] ([`cell_report`]), with NCCL tuning
    /// decisions shared across the grid's cells.
    pub fn report(&self) -> EpochReport {
        cell_report_with(self.harness, self.def, &self.cell, self.tuner)
    }

    /// The cell's built [`Model`], for experiments that inspect graph
    /// structure or memory (data-only workloads have no model).
    ///
    /// # Panics
    ///
    /// Panics when the cell's workload is data-defined; model-reading
    /// experiments must sweep zoo workloads.
    pub fn model(&self) -> &'r Model {
        self.def.model().unwrap_or_else(|| {
            panic!(
                "workload `{}` is data-defined and has no built model",
                self.cell.workload.name()
            )
        })
    }
}

/// Pre-resolved shared state for one grid: each workload's
/// [`Definition`] resolved exactly once (building the zoo model and/or
/// attaching the parsed spec), and one [`Harness`] per (platform,
/// fault scenario) combination, all behind `Arc` so parallel workers
/// share them without copying, plus one [`TunerMemo`] that
/// [`CellCtx::report`] prices every cell's NCCL tuning decisions
/// through.
#[derive(Debug)]
pub struct GridRunner {
    defs: HashMap<WorkloadSel, Arc<Definition>>,
    harnesses: HashMap<(Platform, FaultScenario), Arc<Harness>>,
    tuner: TunerMemo,
}

impl GridRunner {
    /// Builds the shared context for `spec`: one definition per
    /// workload on the axis, one harness per (platform, fault) pair on
    /// the axes, and an empty tuner memo.
    pub fn new(base: &Harness, spec: &GridSpec) -> Self {
        let defs = spec
            .workload_axis()
            .iter()
            .map(|&w| (w, Arc::new(w.definition())))
            .collect();
        let mut harnesses = HashMap::new();
        for &p in spec.platform_axis() {
            for &f in spec.fault_axis() {
                harnesses.insert((p, f), Arc::new(harness_for(base, p, f)));
            }
        }
        GridRunner {
            defs,
            harnesses,
            tuner: TunerMemo::new(),
        }
    }

    /// Maps `f` over every cell of `spec` under `exec`, returning the
    /// values in cell-enumeration order.
    ///
    /// # Panics
    ///
    /// Panics if `spec` names a workload or platform this runner was
    /// not built for (always build the runner from the same spec, or a
    /// superset).
    pub fn run<T, F>(&self, exec: Executor, spec: &GridSpec, f: F) -> GridOut<T>
    where
        T: Send,
        F: Fn(CellCtx<'_>) -> T + Sync,
    {
        let cells = spec.cells();
        let values = exec.run(cells.len(), |i| {
            let cell = cells[i];
            let ctx = CellCtx {
                cell,
                harness: self
                    .harnesses
                    .get(&(cell.platform, cell.fault))
                    .expect("runner built for this platform and fault axis"),
                def: self
                    .defs
                    .get(&cell.workload)
                    .expect("runner built for this workload axis"),
                tuner: &self.tuner,
            };
            f(ctx)
        });
        GridOut { cells, values }
    }
}

/// Builds the [`Harness`] variant for one (platform, fault) pair:
/// `base` itself for the healthy baseline DGX-1, otherwise `base` with
/// the variant topology swapped in and the fault spec applied. The
/// measurement-protocol fields (reps, jitter, seed) are always
/// inherited unchanged, so post-processing a variant's raw epoch with
/// the *base* harness is byte-identical to using the variant harness.
///
/// Mid-epoch scenarios ([`FaultScenario::mid_epoch_fraction`]) keep
/// the platform topology *healthy*: their fault strikes at simulation
/// time via the engine's dynamic-event machinery ([`cell_report`]),
/// not by rewiring the topology before lowering.
pub fn harness_for(base: &Harness, platform: Platform, fault: FaultScenario) -> Harness {
    let static_fault = fault != FaultScenario::Healthy && fault.mid_epoch_fraction().is_none();
    if platform == Platform::Dgx1 && !static_fault {
        return base.clone();
    }
    let mut sys = base.sys.clone();
    if platform != Platform::Dgx1 {
        sys.topo = platform.topology();
    }
    if static_fault {
        sys = sys.with_faults(&fault.spec());
    }
    Harness {
        sys,
        ..base.clone()
    }
}

/// Simulates one cell's [`EpochReport`] through
/// [`EpochRequest::run`], dispatching on the fault scenario: static
/// scenarios run the ordinary epoch against the (already degraded)
/// harness; mid-epoch scenarios run the piecewise epoch against the
/// healthy harness, with the fault striking at
/// [`FaultScenario::mid_epoch_fraction`]. Both the direct grid path
/// ([`epoch_reports`]) and the caching service route every cell
/// through here, so the two stay interchangeable.
///
/// Tuning decisions go through a call-local memo; sweeps share one
/// across cells ([`CellCtx::report`]).
///
/// # Panics
///
/// Panics with the error's message where [`EpochRequest::run`]
/// returns one (a GPU count beyond the platform, ...).
pub fn cell_report(harness: &Harness, def: &Definition, cell: &Cell) -> EpochReport {
    cell_report_with(harness, def, cell, &TunerMemo::new())
}

/// [`cell_report`] with its NCCL tuning decisions priced through a
/// sweep owner's `tuner`. The report does not depend on what the memo
/// already holds. Panics as [`cell_report`] does.
pub(crate) fn cell_report_with(
    harness: &Harness,
    def: &Definition,
    cell: &Cell,
    tuner: &TunerMemo,
) -> EpochReport {
    let fault = cell
        .fault
        .mid_epoch_fraction()
        .map(|fraction| MidEpochFault::new(cell.fault.spec(), fraction));
    let run = || {
        EpochRequest {
            sys: &harness.sys,
            workload: &def.lowered(cell.batch)?,
            cfg: &train_config(cell.batch, cell.gpus, cell.comm, cell.scaling),
            fault: fault.as_ref(),
            tuner,
        }
        .run()
    };
    run().unwrap_or_else(|e| panic!("{e}"))
}

/// Runs one grid end to end: build the shared context, execute, return
/// indexed results. The common entry point for experiment modules.
pub fn run_grid<T, F>(base: &Harness, spec: &GridSpec, exec: Executor, f: F) -> GridOut<T>
where
    T: Send,
    F: Fn(CellCtx<'_>) -> T + Sync,
{
    GridRunner::new(base, spec).run(exec, spec, f)
}

/// Simulates the raw [`EpochReport`] of every cell of `spec` — the
/// direct-path twin of [`crate::service::GridService::sweep`]. Both
/// produce the same `GridOut<Arc<EpochReport>>` shape, so experiment
/// row derivations are agnostic about which path computed their cells.
pub fn epoch_reports(base: &Harness, spec: &GridSpec, exec: Executor) -> GridOut<Arc<EpochReport>> {
    run_grid(base, spec, exec, |ctx| Arc::new(ctx.report()))
}

/// The results of one grid run: values in cell-enumeration order plus
/// O(1) lookup by cell key.
#[derive(Debug, Clone)]
pub struct GridOut<T> {
    cells: Vec<Cell>,
    values: Vec<T>,
}

impl<T> GridOut<T> {
    /// Assembles a grid result from already-paired cells and values
    /// (used by the service layer, which answers some cells from cache
    /// rather than executing the whole grid).
    ///
    /// # Panics
    ///
    /// Panics when the lengths disagree.
    pub(crate) fn from_parts(cells: Vec<Cell>, values: Vec<T>) -> Self {
        assert_eq!(
            cells.len(),
            values.len(),
            "one value per cell in enumeration order"
        );
        GridOut { cells, values }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the grid was empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The cells, in enumeration order.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// The values, in enumeration order.
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Iterates `(cell, value)` pairs in enumeration order.
    pub fn iter(&self) -> impl Iterator<Item = (&Cell, &T)> {
        self.cells.iter().zip(self.values.iter())
    }

    /// Consumes the grid into `(cell, value)` pairs.
    pub fn into_pairs(self) -> impl Iterator<Item = (Cell, T)> {
        self.cells.into_iter().zip(self.values)
    }

    /// An O(1) index over the full cell keys.
    pub fn index(&self) -> HashMap<Cell, &T> {
        self.cells.iter().copied().zip(self.values.iter()).collect()
    }

    /// An O(1) index over a derived key (e.g. `(workload, batch)` when
    /// the other axes are singletons). Later cells win on key
    /// collisions, matching enumeration order.
    pub fn index_by<K, F>(&self, key: F) -> HashMap<K, &T>
    where
        K: Eq + Hash,
        F: Fn(&Cell) -> K,
    {
        self.cells
            .iter()
            .map(&key)
            .zip(self.values.iter())
            .collect()
    }

    /// Looks up one cell's value.
    pub fn get(&self, cell: &Cell) -> Option<&T> {
        self.cells
            .iter()
            .position(|c| c == cell)
            .map(|i| &self.values[i])
    }

    /// Maps the values, keeping cells and order.
    pub fn map<U, F: FnMut(&Cell, T) -> U>(self, mut f: F) -> GridOut<U> {
        let GridOut { cells, values } = self;
        let values = cells.iter().zip(values).map(|(c, v)| f(c, v)).collect();
        GridOut { cells, values }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voltascope_comm::CommMethod;
    use voltascope_dnn::zoo::Workload;

    fn small_spec() -> GridSpec {
        GridSpec::paper()
            .workloads([Workload::LeNet])
            .comms([CommMethod::P2p])
            .batches([16, 32])
            .gpu_counts([1, 2])
    }

    #[test]
    fn runner_shares_one_definition_per_workload() {
        let h = Harness::paper();
        let spec = small_spec();
        let runner = GridRunner::new(&h, &spec);
        let out = runner.run(Executor::Serial, &spec, |ctx| {
            (
                ctx.def as *const Definition as usize,
                ctx.model() as *const Model as usize,
            )
        });
        let first = out.values()[0];
        assert!(out.values().iter().all(|&p| p == first));
    }

    #[test]
    fn results_are_indexable_by_cell() {
        let h = Harness::paper();
        let spec = small_spec();
        let out = run_grid(&h, &spec, Executor::Serial, |ctx| {
            (ctx.cell.batch, ctx.cell.gpus)
        });
        assert_eq!(out.len(), 4);
        let index = out.index();
        for (cell, value) in out.iter() {
            assert_eq!(index[cell], value);
            assert_eq!(out.get(cell), Some(value));
        }
        let by_batch = out.index_by(|c| (c.batch, c.gpus));
        assert_eq!(by_batch[&(32, 2)], &(32, 2));
    }

    #[test]
    fn platform_axis_swaps_the_topology() {
        let h = Harness::paper();
        let spec = small_spec()
            .batches([16])
            .gpu_counts([2])
            .platforms([Platform::Dgx1, Platform::PcieOnly]);
        let out = run_grid(&h, &spec, Executor::Serial, |ctx| {
            ctx.harness.sys.topo.name().to_string()
        });
        let names: Vec<&str> = out.values().iter().map(String::as_str).collect();
        assert_eq!(names.len(), 2);
        assert_ne!(names[0], names[1]);
    }

    #[test]
    fn mid_epoch_scenarios_keep_the_harness_healthy() {
        // Dynamic scenarios inject their fault at simulation time, so
        // the harness topology must stay the healthy platform — the
        // pre-fault iterations and the communicator are built against
        // it.
        let h = Harness::paper();
        let healthy = harness_for(&h, Platform::Dgx1, FaultScenario::Healthy);
        let dynamic = harness_for(&h, Platform::Dgx1, FaultScenario::MidEpochDeadNvLink);
        let dead = harness_for(&h, Platform::Dgx1, FaultScenario::DeadNvLink);
        assert_eq!(dynamic.sys.topo.name(), healthy.sys.topo.name());
        assert_ne!(dead.sys.topo.name(), healthy.sys.topo.name());
        let straggling = harness_for(&h, Platform::Dgx1, FaultScenario::MidEpochStraggler);
        assert!(straggling.sys.gpu_slowdown.is_empty());
    }

    #[test]
    fn fault_axis_degrades_the_harness_system() {
        let h = Harness::paper();
        let spec = small_spec()
            .batches([16])
            .gpu_counts([8])
            .faults(FaultScenario::ALL);
        let out = run_grid(&h, &spec, Executor::Serial, |ctx| {
            (
                ctx.cell.fault,
                ctx.harness.sys.topo.name().to_string(),
                ctx.harness.sys.gpu_slowdown.len(),
            )
        });
        let index = out.index_by(|c| c.fault);
        let (_, healthy_name, healthy_slow) = index[&FaultScenario::Healthy];
        let (_, dead_name, _) = index[&FaultScenario::DeadNvLink];
        let (_, _, straggler_slow) = index[&FaultScenario::StragglerGpu];
        assert_eq!(*healthy_slow, 0);
        assert_ne!(healthy_name, dead_name);
        assert_eq!(*straggler_slow, 1);
    }
}

//! # Cached sweep service over the grid engine
//!
//! [`GridService`] answers sweeps (a [`GridSpec`] or an explicit
//! [`Cell`] list) for the one caller that owns it: it serves each
//! distinct cell of a request from its cache when it has already
//! computed the cell, and computes the rest on its [`Executor`] worker
//! pool. Every report experiment (Figs. 3–5, Tables II–III, the
//! fault, idle and ablation grids) sweeps through a service.
//!
//! The cached value per cell is the [`EpochReport`] — the raw,
//! jitter-free simulation output every portable experiment derives its
//! rows from. Post-processing (the repetition protocol's jittered
//! [`crate::Measurement`], FP+BP/WU splits, sync shares, idle scans)
//! is cheap and deterministic, so experiment modules re-derive their
//! tables from cached reports, byte-identical to what a fresh
//! [`grid::cell_report`] per cell yields.
//!
//! ## Cache keying
//!
//! The cache key is the full [`Cell`] — including the platform variant
//! and fault scenario — so a PCIe-only AlexNet epoch can never answer
//! a DGX-1 request for the same (workload, comm, batch, gpus, scaling)
//! point. Keys are never evicted: the whole paper grid is a few
//! thousand cells of a few-KB report each, far below any meaningful
//! memory bound, and eviction would reintroduce recomputation
//! nondeterminism for long request streams.
//!
//! ## One dispatch path
//!
//! Every request goes through [`GridService::run_cells_traced`]
//! (`run_cells`, `sweep` and `sweep_traced` are views of it), in three
//! steps:
//!
//! 1. **Plan.** Count the request and dedupe it in first-occurrence
//!    order. Serve every cell the cache can answer as-is (a *hit*),
//!    and collect the *misses*: absent cells, plus lazily loaded cells
//!    of a traced request, each with its shared workload definition
//!    and harness.
//! 2. **Run.** Run only the misses on the executor, each as a job
//!    that decodes its lazy trace block or simulates the cell.
//! 3. **Publish.** Cache every answer, then re-raise the first panic
//!    of the request, if any.
//!
//! Duplicates within one request are charged to the class their first
//! occurrence was answered as: a hit's duplicates are hits, a freshly
//! computed cell's duplicates intra-request *repeats*.
//!
//! A service has one owner: it is `Send` but not `Sync`, so it can
//! move to another thread but never be shared between threads, and
//! nothing in it waits on anything. Parallelism lives inside one
//! request, where the jobs borrow only the miss list and the tuner
//! memo.
//!
//! ## A panicking cell
//!
//! Valid cells do not panic, but an invalid cell (e.g. a GPU count
//! beyond the topology) panics inside the simulator. Each job runs
//! under `catch_unwind`, so one panicking cell cuts nothing short:
//! every other cell of the request is computed and cached, and the
//! caller then gets the failed cell's own panic. The failed cell
//! leaves nothing behind, so a retry panics again.
//!
//! ## Tuner memo
//!
//! The service owns one [`TunerMemo`] for its whole lifetime, and
//! every cell it computes prices its NCCL tuning decisions through it,
//! so under a modern tuning space each distinct decision is simulated
//! once per service.
//! The memo lives on the service, not on the [`Harness`]: the harness
//! is hashed into snapshot fingerprints and cloned into fresh
//! services. [`GridService::tuner_stats`] reports its counters.
//!
//! ## Persistence
//!
//! The cache can be snapshotted to disk and reloaded across processes:
//! [`GridService::save`] writes every cache entry through the
//! versioned, fingerprinted format of [`persist`], and
//! [`GridService::with_snapshot`] warm-starts a service from such a
//! file (falling back to an empty cache when the file is missing,
//! stale, or corrupt). The regeneration binaries wire this to the
//! `VOLTASCOPE_CACHE` environment variable.
//!
//! ### Lazy trace decode
//!
//! Warm starts load snapshots through
//! [`persist::load_entries_lazy`]: cells and scalar fields are parsed
//! eagerly, but each entry's trace block stays *encoded* — a
//! [`persist::LazyTrace`] window into the snapshot image — until a
//! trace-consuming request ([`GridService::sweep_traced`] /
//! [`GridService::run_cells_traced`]) actually touches that cell.
//! Ordinary (table-only) requests serve lazy entries as hits with
//! empty traces and never decode a single event. A traced request
//! decodes the block as one of its jobs and publishes the upgraded
//! entry as a full `Done`, once (counted by
//! [`GridService::trace_decodes`]). Re-saving an untouched lazy entry
//! copies its encoded block verbatim, so a warm load-then-save
//! round-trip is byte-identical without decoding anything.
//!
//! ## Example
//!
//! ```
//! use voltascope::grid::{Executor, GridSpec};
//! use voltascope::service::GridService;
//! use voltascope::Harness;
//! use voltascope_dnn::zoo::Workload;
//!
//! let service = GridService::with_executor(Harness::paper(), Executor::Serial);
//! let spec = GridSpec::paper().workloads([Workload::LeNet]).batches([16]);
//! let first = service.sweep(&spec);
//! let again = service.sweep(&spec);
//! assert_eq!(first.len(), again.len());
//! // The second sweep was answered entirely from cache.
//! assert_eq!(service.stats().computed, first.len() as u64);
//! ```

pub mod persist;

use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;

use voltascope_comm::tuner::{TunerMemo, TunerStats};
use voltascope_train::EpochReport;
use voltascope_workload::Definition;

use crate::grid::{self, harness_for, Cell, Executor, FaultScenario, GridOut, GridSpec, Platform};
use crate::workloads::WorkloadSel;
use crate::Harness;

use persist::PersistError;

/// One cache entry. `DoneLazy` entries were loaded from a snapshot
/// but their trace block is still encoded: scalar requests serve them
/// as-is, and the first traced request decodes the block and replaces
/// the entry with a `Done`.
#[derive(Debug)]
enum Slot {
    Done(Arc<EpochReport>),
    DoneLazy {
        report: Arc<EpochReport>,
        trace: persist::LazyTrace,
    },
}

/// Service state: the report cache, the lazily grown definition and
/// harness pools (the same sharing the [`crate::grid::GridRunner`]
/// does per grid, but across the service's whole lifetime), and the
/// counters.
#[derive(Debug, Default)]
struct State {
    cache: HashMap<Cell, Slot>,
    defs: HashMap<WorkloadSel, Arc<Definition>>,
    harnesses: HashMap<(Platform, FaultScenario), Arc<Harness>>,
    stats: ServiceStats,
    trace_decodes: u64,
}

impl State {
    /// Fetches (building on first use) the shared workload definition
    /// and harness for `cell`.
    fn pools(&mut self, base: &Harness, cell: Cell) -> (Arc<Definition>, Arc<Harness>) {
        let def = self
            .defs
            .entry(cell.workload)
            .or_insert_with(|| Arc::new(cell.workload.definition()))
            .clone();
        let harness = self
            .harnesses
            .entry((cell.platform, cell.fault))
            .or_insert_with(|| Arc::new(harness_for(base, cell.platform, cell.fault)))
            .clone();
        (def, harness)
    }
}

/// A distinct cell of one request that the cache cannot answer as-is,
/// with everything its job needs.
struct Miss {
    cell: Cell,
    /// Further occurrences of the cell in the request.
    dups: u64,
    def: Arc<Definition>,
    harness: Arc<Harness>,
    /// A lazy entry's scalar report and encoded trace block.
    lazy: Option<(Arc<EpochReport>, persist::LazyTrace)>,
}

impl Miss {
    /// The cell's full report, and whether it came from decoding the
    /// lazy trace block rather than from a simulation. An undecodable
    /// block falls back to a simulation (unreachable for snapshots
    /// this code wrote, since the load checksummed the image, but
    /// defended).
    fn answer(&self, tuner: &TunerMemo) -> (Arc<EpochReport>, bool) {
        if let Some((report, trace)) = &self.lazy {
            if let Ok(iter_trace) = trace.decode() {
                let mut full = (**report).clone();
                full.iter_trace = iter_trace;
                return (Arc::new(full), true);
            }
        }
        let report = grid::cell_report_with(&self.harness, &self.def, &self.cell, tuner);
        (Arc::new(report), false)
    }
}

/// Counters describing how a [`GridService`] answered its requests so
/// far. Monotone; snapshot via [`GridService::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Requests served ([`GridService::run_cells`] / [`GridService::sweep`] calls).
    pub requests: u64,
    /// Total cells across all requests (duplicates counted).
    pub cells: u64,
    /// Cells answered from a cache entry (including entries preloaded
    /// from a snapshot).
    pub hits: u64,
    /// Always 0: a service has one owner, so no request ever waits on
    /// another's computation. Kept so existing readers still compile.
    pub coalesced: u64,
    /// Intra-request duplicates of a cell the *same* request computed.
    /// These enjoy no cache benefit — the request pays for the
    /// computation itself — so they are tracked apart from hits and
    /// excluded from [`ServiceStats::hit_rate`].
    pub repeats: u64,
    /// Cells actually computed: each distinct cell at most once,
    /// including a snapshot-loaded cell whose trace block failed to
    /// decode.
    pub computed: u64,
}

impl ServiceStats {
    /// Fraction of requested cells answered from the cache, in
    /// `[0, 1]`; zero for no traffic. Intra-request repeats of a
    /// freshly computed cell do not count — a cold request `[c, c]`
    /// reports a 0% hit rate.
    pub fn hit_rate(&self) -> f64 {
        if self.cells == 0 {
            0.0
        } else {
            self.hits as f64 / self.cells as f64
        }
    }
}

/// How [`GridService::with_snapshot`] started: warm from a loaded
/// snapshot, cold because none existed, or cold because the file was
/// rejected (stale or damaged).
#[derive(Debug)]
pub enum SnapshotStatus {
    /// The snapshot was valid; this many cells were preloaded.
    Loaded {
        /// Number of cache entries loaded from the file.
        cells: usize,
    },
    /// No snapshot file existed at the path.
    Cold,
    /// A file existed but was rejected; the service starts empty and
    /// recomputes (a later [`GridService::save`] repairs the file).
    Rejected(PersistError),
}

impl fmt::Display for SnapshotStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotStatus::Loaded { cells } => write!(f, "warm start: loaded {cells} cells"),
            SnapshotStatus::Cold => write!(f, "cold start: no snapshot"),
            SnapshotStatus::Rejected(e) => write!(f, "cold start: snapshot rejected ({e})"),
        }
    }
}

/// A deduplicating, caching sweep front end for one owner. See the
/// [module docs](self) for semantics.
///
/// The service is `Send` but not `Sync`: code that shares one between
/// threads does not compile.
///
/// ```compile_fail
/// fn shared<T: Sync>() {}
/// shared::<voltascope::service::GridService>();
/// ```
#[derive(Debug)]
pub struct GridService {
    base: Harness,
    exec: Executor,
    state: RefCell<State>,
    /// Every cell this service computes prices its NCCL tuning
    /// decisions through this memo.
    tuner: TunerMemo,
}

/// The distinct cells of one request in first-occurrence order, each
/// with the number of further times the request names it.
fn distinct_cells(cells: &[Cell]) -> Vec<(Cell, u64)> {
    let mut position: HashMap<Cell, usize> = HashMap::with_capacity(cells.len());
    let mut distinct: Vec<(Cell, u64)> = Vec::with_capacity(cells.len());
    for &cell in cells {
        match position.entry(cell) {
            Entry::Occupied(at) => distinct[*at.get()].1 += 1,
            Entry::Vacant(slot) => {
                slot.insert(distinct.len());
                distinct.push((cell, 0));
            }
        }
    }
    distinct
}

impl GridService {
    /// A service over `base`, executing missing cells under the
    /// environment-selected executor ([`Executor::from_env`], honouring
    /// `VOLTASCOPE_THREADS`).
    pub fn new(base: Harness) -> Self {
        Self::with_executor(base, Executor::from_env())
    }

    /// A service with an explicit executor for missing cells.
    pub fn with_executor(base: Harness, exec: Executor) -> Self {
        GridService {
            base,
            exec,
            state: RefCell::default(),
            tuner: TunerMemo::new(),
        }
    }

    /// A service warm-started from the snapshot file at `path`
    /// (load-or-empty): a valid snapshot written under the same
    /// harness calibration preloads the cache; a missing, stale, or
    /// corrupt file yields an empty cache with the reason in the
    /// returned [`SnapshotStatus`]. Preloaded cells are served as
    /// ordinary cache hits.
    pub fn with_snapshot(
        base: Harness,
        exec: Executor,
        path: impl AsRef<Path>,
    ) -> (Self, SnapshotStatus) {
        let fingerprint = persist::harness_fingerprint(&base);
        let mut service = Self::with_executor(base, exec);
        let status = match persist::load_entries_lazy(path.as_ref(), fingerprint) {
            Ok(entries) => {
                let cells = entries.len();
                let cache = &mut service.state.get_mut().cache;
                for (cell, report, trace) in entries {
                    cache.insert(cell, Slot::DoneLazy { report, trace });
                }
                SnapshotStatus::Loaded { cells }
            }
            Err(e) if e.is_missing_file() => SnapshotStatus::Cold,
            Err(e) => SnapshotStatus::Rejected(e),
        };
        (service, status)
    }

    /// Snapshots every cache entry to `path` (atomically: a temp
    /// sibling, then a rename), keyed by this service's harness
    /// fingerprint, with full iteration traces. Returns the number of
    /// cells written.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<usize, PersistError> {
        use persist::TraceOut;
        let entries: Vec<(Cell, Arc<EpochReport>, TraceOut)> = self
            .state
            .borrow()
            .cache
            .iter()
            .map(|(cell, slot)| match slot {
                Slot::Done(report) => (*cell, report.clone(), TraceOut::Events),
                // An undecoded lazy entry re-saves its encoded block
                // verbatim: byte-identical to a fresh encode (the
                // decoder only accepts canonical blocks) and free of
                // any decode cost.
                Slot::DoneLazy { report, trace } => {
                    (*cell, report.clone(), TraceOut::Raw(trace.clone()))
                }
            })
            .collect();
        persist::save_with_traces(
            path.as_ref(),
            persist::harness_fingerprint(&self.base),
            &entries,
        )?;
        Ok(entries.len())
    }

    /// The base harness requests are simulated against. Its
    /// measurement-protocol fields apply to every platform/fault
    /// variant (see [`harness_for`]), so renderers post-process cached
    /// reports with this harness.
    pub fn base(&self) -> &Harness {
        &self.base
    }

    /// The executor missing cells are scheduled onto.
    pub fn executor(&self) -> Executor {
        self.exec
    }

    /// Runs a full declarative sweep through the cache, returning an
    /// indexed [`GridOut`] in the spec's canonical enumeration order.
    pub fn sweep(&self, spec: &GridSpec) -> GridOut<Arc<EpochReport>> {
        let cells = spec.cells();
        let reports = self.run_cells(&cells);
        GridOut::from_parts(cells, reports)
    }

    /// Like [`GridService::sweep`], for consumers that walk the
    /// iteration traces (idle scans, timeline renders): entries loaded
    /// from a snapshot have their trace blocks decoded (once, upgrading
    /// the entry in place), so every returned report carries its full
    /// trace. On a service that never loaded a snapshot this is
    /// identical to `sweep`.
    pub fn sweep_traced(&self, spec: &GridSpec) -> GridOut<Arc<EpochReport>> {
        let cells = spec.cells();
        let reports = self.run_cells_traced(&cells, true);
        GridOut::from_parts(cells, reports)
    }

    /// Answers one request for an explicit cell list: cache hits
    /// as-is, missing cells computed on this service's executor.
    /// Returns one report per input cell, in input order (duplicates
    /// allowed, sharing their first occurrence's report).
    ///
    /// Entries loaded from a snapshot are served as ordinary hits
    /// without decoding their traces — their scalar fields are exact,
    /// only the iteration trace is empty. Trace consumers must use
    /// [`GridService::run_cells_traced`] instead.
    ///
    /// # Panics
    ///
    /// Panics with a cell's own panic if its simulation panics (e.g.
    /// an invalid GPU count), after every other cell of the request
    /// has been computed and cached (see the module docs).
    pub fn run_cells(&self, cells: &[Cell]) -> Vec<Arc<EpochReport>> {
        self.run_cells_traced(cells, false)
    }

    /// [`GridService::run_cells`] with an explicit trace requirement:
    /// when `traced` is true, entries loaded from a snapshot have their
    /// trace blocks decoded and are upgraded to full reports in place
    /// (a block that fails to decode is recomputed).
    pub fn run_cells_traced(&self, cells: &[Cell], traced: bool) -> Vec<Arc<EpochReport>> {
        let mut answers: HashMap<Cell, Arc<EpochReport>> = HashMap::with_capacity(cells.len());
        // Plan: count the request, serve what the cache holds as-is,
        // and collect the misses.
        let mut misses = Vec::new();
        {
            let mut state = self.state.borrow_mut();
            let state = &mut *state;
            state.stats.requests += 1;
            state.stats.cells += cells.len() as u64;
            for (cell, dups) in distinct_cells(cells) {
                let lazy = match state.cache.get(&cell) {
                    Some(Slot::DoneLazy { report, trace }) if traced => {
                        Some((report.clone(), trace.clone()))
                    }
                    Some(Slot::Done(report) | Slot::DoneLazy { report, .. }) => {
                        state.stats.hits += 1 + dups;
                        answers.insert(cell, report.clone());
                        continue;
                    }
                    None => None,
                };
                let (def, harness) = state.pools(&self.base, cell);
                misses.push(Miss {
                    cell,
                    dups,
                    def,
                    harness,
                    lazy,
                });
            }
        }

        // Run: the jobs borrow only the misses and the tuner memo (the
        // service itself is not `Sync`). A panicking job leaves nothing
        // half-done behind: the memo stores only finished choices.
        let tuner = &self.tuner;
        let outcomes = self.exec.run(misses.len(), |i| {
            catch_unwind(AssertUnwindSafe(|| misses[i].answer(tuner)))
        });

        // Publish: cache every answer, then re-raise the first panic.
        let mut panicked = None;
        {
            let mut state = self.state.borrow_mut();
            let state = &mut *state;
            for (miss, outcome) in misses.iter().zip(outcomes) {
                let (report, decoded) = match outcome {
                    Ok(answer) => answer,
                    Err(payload) => {
                        panicked.get_or_insert(payload);
                        continue;
                    }
                };
                // A decoded block answers the cell from the cache, its
                // duplicates too; a computed cell's duplicates are
                // intra-request repeats.
                if decoded {
                    state.trace_decodes += 1;
                    state.stats.hits += 1 + miss.dups;
                } else {
                    state.stats.computed += 1;
                    state.stats.repeats += miss.dups;
                }
                state.cache.insert(miss.cell, Slot::Done(report.clone()));
                answers.insert(miss.cell, report);
            }
        }
        if let Some(payload) = panicked {
            resume_unwind(payload);
        }
        cells.iter().map(|cell| answers[cell].clone()).collect()
    }

    /// Snapshot of the request counters.
    pub fn stats(&self) -> ServiceStats {
        self.state.borrow().stats
    }

    /// Number of lazy-loaded trace blocks decoded so far — the cost a
    /// warm service has actually paid for traces. A warm service
    /// answering only table-level sweeps leaves this at zero.
    /// Deliberately *not* part of [`ServiceStats`]: those count how
    /// requests were answered, not which snapshot machinery served
    /// them.
    pub fn trace_decodes(&self) -> u64 {
        self.state.borrow().trace_decodes
    }

    /// Counters of the service's tuner memo: NCCL tuning decisions
    /// looked up by the cells it computed, and how many of them were
    /// priced by simulating every candidate. Under the paper's
    /// singleton tuning space both stay zero. Kept out of
    /// [`ServiceStats`] for the same reason as
    /// [`GridService::trace_decodes`].
    pub fn tuner_stats(&self) -> TunerStats {
        self.tuner.stats()
    }

    /// Number of distinct cells resident in the cache.
    pub fn cached_cells(&self) -> usize {
        self.state.borrow().cache.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voltascope_comm::CommMethod;
    use voltascope_dnn::zoo::Workload;
    use voltascope_train::ScalingMode;

    fn lenet_cell(batch: usize, gpus: usize) -> Cell {
        Cell {
            workload: voltascope_dnn::zoo::Workload::LeNet.into(),
            comm: CommMethod::P2p,
            batch,
            gpus,
            scaling: ScalingMode::Strong,
            platform: Platform::Dgx1,
            fault: FaultScenario::Healthy,
        }
    }

    /// A cell whose simulation panics: 9 GPUs on an 8-GPU topology.
    fn poisonous_cell() -> Cell {
        lenet_cell(16, 9)
    }

    #[test]
    fn repeat_requests_hit_the_cache() {
        let service = GridService::with_executor(Harness::paper(), Executor::Serial);
        let cells = [lenet_cell(16, 1), lenet_cell(16, 2)];
        let first = service.run_cells(&cells);
        let second = service.run_cells(&cells);
        assert_eq!(first.len(), 2);
        for (a, b) in first.iter().zip(second.iter()) {
            // Same Arc, not merely equal values.
            assert!(Arc::ptr_eq(a, b));
        }
        let stats = service.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.cells, 4);
        assert_eq!(stats.computed, 2);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.coalesced, 0);
        assert_eq!(stats.repeats, 0);
        assert_eq!(stats.hit_rate(), 0.5);
        assert_eq!(service.cached_cells(), 2);
    }

    #[test]
    fn duplicate_cells_within_a_request_compute_once() {
        let service = GridService::with_executor(Harness::paper(), Executor::Serial);
        let cell = lenet_cell(16, 1);
        let reports = service.run_cells(&[cell, cell, cell]);
        assert_eq!(reports.len(), 3);
        assert!(Arc::ptr_eq(&reports[0], &reports[1]));
        assert!(Arc::ptr_eq(&reports[1], &reports[2]));
        let stats = service.stats();
        assert_eq!(stats.computed, 1);
        // Intra-request duplicates of a freshly computed cell are
        // repeats: the request gained nothing from the cache, so the
        // hit rate must stay zero.
        assert_eq!(stats.coalesced, 0);
        assert_eq!(stats.repeats, 2);
        assert_eq!(stats.hit_rate(), 0.0);
    }

    #[test]
    fn parallel_duplicates_are_charged_to_their_first_occurrence() {
        let service =
            GridService::with_executor(Harness::paper(), Executor::Parallel { threads: 4 });
        let (a, w, b) = (lenet_cell(16, 1), lenet_cell(16, 2), lenet_cell(32, 1));
        service.run_cells(&[w]);
        let before = service.stats();
        let reports = service.run_cells(&[a, a, w, b, w]);
        let after = service.stats();
        assert_eq!(after.computed - before.computed, 2, "a and b");
        assert_eq!(after.repeats - before.repeats, 1, "the second a");
        assert_eq!(after.hits - before.hits, 2, "both warm w");
        assert_eq!(after.coalesced, 0);
        // One shared Arc per distinct cell: the cached entry itself.
        let cached = service.run_cells(&[a, w, b]);
        for (i, want) in [0, 0, 1, 2, 1].into_iter().enumerate() {
            assert!(Arc::ptr_eq(&reports[i], &cached[want]), "position {i}");
        }
        assert!(!Arc::ptr_eq(&cached[0], &cached[2]));
    }

    #[test]
    fn warm_duplicates_count_as_hits() {
        let service = GridService::with_executor(Harness::paper(), Executor::Serial);
        let cell = lenet_cell(16, 1);
        service.run_cells(&[cell]);
        service.run_cells(&[cell, cell]);
        let stats = service.stats();
        assert_eq!(stats.computed, 1);
        assert_eq!(stats.hits, 2, "both warm duplicates are genuine hits");
        assert_eq!(stats.repeats, 0);
    }

    #[test]
    fn overlapping_sweeps_only_compute_the_missing_cells() {
        let service = GridService::with_executor(Harness::paper(), Executor::Serial);
        let small = GridSpec::paper()
            .workloads([Workload::LeNet])
            .comms([CommMethod::P2p])
            .batches([16])
            .gpu_counts([1, 2]);
        let bigger = small.clone().gpu_counts([1, 2, 4]);
        service.sweep(&small);
        let out = service.sweep(&bigger);
        assert_eq!(out.len(), 3);
        let stats = service.stats();
        assert_eq!(stats.computed, 3, "only the 4-GPU cell was new");
        assert_eq!(stats.hits, 2);
    }

    #[test]
    fn empty_requests_are_answered_without_computation() {
        let service = GridService::with_executor(Harness::paper(), Executor::Serial);
        assert!(service.run_cells(&[]).is_empty());
        let stats = service.stats();
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.cells, 0);
        assert_eq!(stats.hit_rate(), 0.0);
    }

    #[test]
    fn sweep_preserves_canonical_enumeration_order() {
        let service = GridService::with_executor(Harness::paper(), Executor::Serial);
        let spec = GridSpec::paper()
            .workloads([Workload::LeNet])
            .comms([CommMethod::P2p, CommMethod::Nccl])
            .batches([16])
            .gpu_counts([2]);
        let out = service.sweep(&spec);
        assert_eq!(out.cells(), spec.cells().as_slice());
    }

    #[test]
    fn panicking_compute_reverts_its_claim() {
        let service = GridService::with_executor(Harness::paper(), Executor::Serial);
        let result = catch_unwind(AssertUnwindSafe(|| {
            service.run_cells(&[poisonous_cell()]);
        }));
        assert!(result.is_err(), "9-GPU cell must panic");
        // The failed cell left nothing in the cache.
        assert_eq!(service.cached_cells(), 0);

        // A retry panics again...
        let retry = catch_unwind(AssertUnwindSafe(|| {
            service.run_cells(&[poisonous_cell()]);
        }));
        assert!(retry.is_err());
        assert_eq!(service.cached_cells(), 0);

        // ...and an unrelated healthy request completes normally.
        let reports = service.run_cells(&[lenet_cell(16, 1)]);
        assert_eq!(reports.len(), 1);
        let stats = service.stats();
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.computed, 1, "only the healthy cell completed");
    }

    #[test]
    fn panic_midway_through_a_request_spares_completed_cells() {
        // Whatever the executor, the poisonous cell cuts nothing
        // short: both healthy cells are computed and cached, and the
        // caller gets the failed cell's own panic message.
        let (good, later) = (lenet_cell(16, 1), lenet_cell(32, 1));
        for exec in [
            Executor::Serial,
            Executor::Parallel { threads: 2 },
            Executor::Parallel { threads: 8 },
        ] {
            let service = GridService::with_executor(Harness::paper(), exec);
            let payload = catch_unwind(AssertUnwindSafe(|| {
                service.run_cells(&[good, poisonous_cell(), later]);
            }))
            .expect_err("the 9-GPU cell must panic");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some("gpu_count 9 out of range (the topology has 8)"),
                "{exec:?}"
            );
            assert_eq!(service.cached_cells(), 2, "{exec:?}");
            assert_eq!(service.stats().computed, 2, "{exec:?}");
            // The survivors are served as plain hits.
            let reports = service.run_cells(&[good, later]);
            assert_eq!(reports.len(), 2);
            assert_eq!(service.stats().hits, 2, "{exec:?}");
        }
    }

    #[test]
    fn snapshot_roundtrip_preserves_reports_and_serves_hits() {
        let path = std::env::temp_dir().join(format!(
            "voltascope-service-unit-{}.snap",
            std::process::id()
        ));
        let cells = [lenet_cell(16, 1), lenet_cell(16, 2), lenet_cell(32, 4)];

        let cold = GridService::with_executor(Harness::paper(), Executor::Serial);
        let cold_reports = cold.run_cells(&cells);
        assert_eq!(cold.save(&path).unwrap(), cells.len());

        let (warm, status) = GridService::with_snapshot(Harness::paper(), Executor::Serial, &path);
        assert!(matches!(status, SnapshotStatus::Loaded { cells: 3 }));
        let warm_reports = warm.run_cells(&cells);
        for (c, w) in cold_reports.iter().zip(warm_reports.iter()) {
            assert_eq!(c.iterations, w.iterations);
            assert_eq!(c.epoch_time, w.epoch_time);
            assert_eq!(c.iter_time, w.iter_time);
            assert_eq!(c.api_iter, w.api_iter);
            // Table-only requests serve lazy entries without decoding:
            // the returned reports carry empty traces.
            assert!(w.iter_trace.events().is_empty());
        }
        let stats = warm.stats();
        assert_eq!(stats.computed, 0, "warm run must be pure hits");
        assert_eq!(stats.hits, cells.len() as u64);
        assert_eq!(stats.hit_rate(), 1.0);
        assert_eq!(warm.trace_decodes(), 0, "no trace consumer ran");

        // A traced request decodes the lazy blocks — no recompute —
        // and the decoded traces match the cold originals exactly.
        let traced_reports = warm.run_cells_traced(&cells, true);
        for (c, t) in cold_reports.iter().zip(traced_reports.iter()) {
            assert_eq!(c.iter_trace.events(), t.iter_trace.events());
        }
        assert_eq!(warm.stats().computed, 0, "lazy decode, not recompute");
        assert_eq!(warm.trace_decodes(), cells.len() as u64);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn lazy_entries_upgrade_once_and_resave_without_decoding() {
        let path = std::env::temp_dir().join(format!(
            "voltascope-service-lazy-{}.snap",
            std::process::id()
        ));
        let resaved = std::env::temp_dir().join(format!(
            "voltascope-service-lazy-resave-{}.snap",
            std::process::id()
        ));
        let cells = [lenet_cell(16, 1), lenet_cell(16, 2), lenet_cell(32, 4)];
        let cold = GridService::with_executor(Harness::paper(), Executor::Serial);
        let cold_reports = cold.run_cells(&cells);
        cold.save(&path).unwrap();
        let cold_bytes = std::fs::read(&path).unwrap();

        // On a parallel executor the blocks decode on worker threads.
        for exec in [
            Executor::Serial,
            Executor::Parallel { threads: 2 },
            Executor::Parallel { threads: 8 },
        ] {
            // Warm load + table-only traffic + re-save: byte-identical
            // to the cold snapshot with zero trace decodes (the encoded
            // blocks are copied verbatim).
            let (warm, _) = GridService::with_snapshot(Harness::paper(), exec, &path);
            warm.run_cells(&cells);
            warm.save(&resaved).unwrap();
            assert_eq!(std::fs::read(&resaved).unwrap(), cold_bytes, "{exec:?}");
            assert_eq!(warm.trace_decodes(), 0, "{exec:?}");

            // Traced traffic upgrades each entry exactly once, to the
            // cold trace; the re-save after decoding still reproduces
            // the cold bytes (fresh encode of the decoded events).
            let first = warm.run_cells_traced(&cells, true);
            let again = warm.run_cells_traced(&cells, true);
            assert_eq!(warm.trace_decodes(), cells.len() as u64, "{exec:?}");
            assert_eq!(warm.stats().computed, 0, "lazy decode, not recompute");
            for ((a, b), cold) in first.iter().zip(&again).zip(&cold_reports) {
                assert!(Arc::ptr_eq(a, b), "upgrade persisted under {exec:?}");
                assert_eq!(a.iter_trace.events(), cold.iter_trace.events());
            }
            warm.save(&resaved).unwrap();
            assert_eq!(std::fs::read(&resaved).unwrap(), cold_bytes, "{exec:?}");
        }

        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&resaved).unwrap();
    }

    #[test]
    fn missing_and_stale_snapshots_start_cold() {
        let path = std::env::temp_dir().join(format!(
            "voltascope-service-stale-{}.snap",
            std::process::id()
        ));
        let (_, status) = GridService::with_snapshot(Harness::paper(), Executor::Serial, &path);
        assert!(matches!(status, SnapshotStatus::Cold));

        // A snapshot written under a different calibration is rejected.
        let mut tweaked = Harness::paper();
        tweaked.seed += 1;
        let other = GridService::with_executor(tweaked, Executor::Serial);
        other.run_cells(&[lenet_cell(16, 1)]);
        other.save(&path).unwrap();
        let (service, status) =
            GridService::with_snapshot(Harness::paper(), Executor::Serial, &path);
        assert!(matches!(
            status,
            SnapshotStatus::Rejected(PersistError::FingerprintMismatch { .. })
        ));
        assert_eq!(service.cached_cells(), 0);
        std::fs::remove_file(&path).unwrap();
    }
}

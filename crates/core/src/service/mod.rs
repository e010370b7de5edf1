//! # Cached, single-flight sweep service over the grid engine
//!
//! [`GridService`] is a concurrent request front end for the grid
//! engine: callers submit sweeps (a [`GridSpec`] or an explicit
//! [`Cell`] list) and the service answers each distinct cell of the
//! request on its [`Executor`] worker pool: from a shared cache when
//! it has already computed the cell, by waiting when another request
//! is computing it right now (single-flight), and by computing it
//! otherwise. Every report experiment (Figs. 3–5, Tables II–III, the
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
//! (`run_cells`, `sweep` and `sweep_traced` are views of it). It
//! dedupes the request in first-occurrence order and answers each
//! distinct cell on the executor: it serves a completed entry (a
//! *hit*), waits on another thread's in-flight claim (*coalesced*), or
//! claims and computes the cell. Duplicates within one request are
//! charged to the class their first occurrence was answered as, a
//! freshly computed cell's duplicates as intra-request *repeats*.
//!
//! ## Single-flight
//!
//! A cell is claimed (marked in-flight) under the state lock before
//! computation starts, so overlapping requests for the same cell
//! compute it exactly once: the first request computes, later requests
//! park on a condition variable and are woken when the report is
//! published. A thread holds at most one claim, and never while it
//! waits on another, so waits cannot form a cycle.
//!
//! ## Panic recovery
//!
//! Cell computations are pure simulations and do not panic for valid
//! cells, but an invalid cell (e.g. a GPU count beyond the topology)
//! panics inside the simulator. Every claim is therefore protected by
//! an unwind guard: if the computation panics before publishing, the
//! guard reverts the claim to *absent* and wakes every waiter. A
//! waiter that finds the cell absent claims and computes it itself
//! (and, for a genuinely poisonous cell, observes the same panic
//! rather than a deadlock). The state lock is never held across a
//! computation, and lock acquisition recovers from mutex poisoning —
//! the cache's invariants are maintained by the guards, not by the
//! panicking section — so one failed request can never wedge the
//! service.
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
//! [`GridService::save`] writes every completed cell through the
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
//! empty traces and never decode a single event. The first traced
//! request decodes the block with the state lock released, so other
//! cells' lookups never wait behind it, then upgrades the entry to a
//! full `Done` in place if it is still lazy (counted by
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

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use voltascope_comm::tuner::{TunerMemo, TunerStats};
use voltascope_train::EpochReport;
use voltascope_workload::Definition;

use crate::grid::{self, harness_for, Cell, Executor, FaultScenario, GridOut, GridSpec, Platform};
use crate::workloads::WorkloadSel;
use crate::Harness;

use persist::PersistError;

/// One cache entry: either being computed by some request right now,
/// or done and shareable. A claim whose computation panics is removed
/// entirely (reverted to absent) by its unwind guard. `DoneLazy`
/// entries were loaded from a snapshot but their trace block is still
/// encoded: scalar requests serve them as-is, and the first traced
/// request decodes the block and upgrades the slot to `Done` in place.
#[derive(Debug)]
enum Slot {
    InFlight,
    Done(Arc<EpochReport>),
    DoneLazy {
        report: Arc<EpochReport>,
        trace: persist::LazyTrace,
    },
}

/// How [`GridService::cell_report`] answered one cell, for duplicate
/// accounting: duplicates of a cell inherit the first occurrence's
/// class (`Computed` duplicates are intra-request repeats,
/// `Hit`/`Coalesced` duplicates are more of the same).
#[derive(Debug, Clone, Copy)]
enum CellClass {
    /// Served from a completed cache entry.
    Hit,
    /// Waited on a computation some other thread had in flight.
    Coalesced,
    /// Claimed and computed by this call.
    Computed,
}

/// Lock-guarded service state: the report cache plus the lazily grown
/// definition/harness pools (the same sharing the
/// [`crate::grid::GridRunner`] does per grid, but across the service's
/// whole lifetime).
#[derive(Debug, Default)]
struct State {
    cache: HashMap<Cell, Slot>,
    defs: HashMap<WorkloadSel, Arc<Definition>>,
    harnesses: HashMap<(Platform, FaultScenario), Arc<Harness>>,
}

/// Counters describing how a [`GridService`] answered its requests so
/// far. Monotone; snapshot via [`GridService::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Requests served ([`GridService::run_cells`] / [`GridService::sweep`] calls).
    pub requests: u64,
    /// Total cells across all requests (duplicates counted).
    pub cells: u64,
    /// Cells answered from a completed cache entry (including entries
    /// preloaded from a snapshot).
    pub hits: u64,
    /// Cells coalesced onto a computation another request already had
    /// in flight.
    pub coalesced: u64,
    /// Intra-request duplicates of a cell the *same* request claimed
    /// moments earlier. These enjoy no cache benefit — the request
    /// pays for the computation itself — so they are tracked apart
    /// from hits/coalesced and excluded from [`ServiceStats::hit_rate`].
    pub repeats: u64,
    /// Cells actually computed (each unique cell at most once, unless
    /// a panicked claim was reverted and the cell later recomputed).
    pub computed: u64,
}

impl ServiceStats {
    /// Fraction of requested cells answered without new computation
    /// (cache hits plus cross-request coalescing), in `[0, 1]`; zero
    /// for no traffic. Intra-request repeats of a freshly claimed cell
    /// do not count — a cold request `[c, c]` reports a 0% hit rate.
    pub fn hit_rate(&self) -> f64 {
        if self.cells == 0 {
            0.0
        } else {
            (self.hits + self.coalesced) as f64 / self.cells as f64
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

/// A concurrent sweep front end: deduplicating, caching, single-flight.
/// See the [module docs](self) for semantics.
#[derive(Debug)]
pub struct GridService {
    base: Harness,
    exec: Executor,
    state: Mutex<State>,
    /// Every cell this service computes prices its NCCL tuning
    /// decisions through this memo.
    tuner: TunerMemo,
    ready: Condvar,
    requests: AtomicU64,
    cells: AtomicU64,
    hits: AtomicU64,
    coalesced: AtomicU64,
    repeats: AtomicU64,
    computed: AtomicU64,
    trace_decodes: AtomicU64,
}

/// Unwind guard over one claimed cell: on drop, a claim that was
/// never published is reverted to absent and every waiter is woken, so
/// a panicking computation cannot leave a permanent in-flight claim
/// behind. On the normal path the cell is `Done` by drop time and the
/// guard only checks the slot.
///
/// The guard takes the state lock in `drop`, so it must never be
/// dropped while the caller holds that lock.
struct ClaimGuard<'a> {
    service: &'a GridService,
    cell: Cell,
}

impl Drop for ClaimGuard<'_> {
    fn drop(&mut self) {
        let reverted = {
            let mut state = self.service.lock_state();
            let in_flight = matches!(state.cache.get(&self.cell), Some(Slot::InFlight));
            if in_flight {
                state.cache.remove(&self.cell);
            }
            in_flight
        };
        if reverted {
            // Waiters re-inspect the slot: absent means "claim and
            // compute yourself" (see `cell_report`).
            self.service.ready.notify_all();
        }
    }
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
            state: Mutex::new(State::default()),
            tuner: TunerMemo::new(),
            ready: Condvar::new(),
            requests: AtomicU64::new(0),
            cells: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            repeats: AtomicU64::new(0),
            computed: AtomicU64::new(0),
            trace_decodes: AtomicU64::new(0),
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
        let service = Self::with_executor(base, exec);
        let status = match persist::load_entries_lazy(path.as_ref(), fingerprint) {
            Ok(entries) => {
                let cells = entries.len();
                let mut state = service.lock_state();
                for (cell, report, trace) in entries {
                    state.cache.insert(cell, Slot::DoneLazy { report, trace });
                }
                drop(state);
                SnapshotStatus::Loaded { cells }
            }
            Err(e) if e.is_missing_file() => SnapshotStatus::Cold,
            Err(e) => SnapshotStatus::Rejected(e),
        };
        (service, status)
    }

    /// Snapshots every completed cache entry to `path` (atomically:
    /// temp sibling + rename), keyed by this service's harness
    /// fingerprint, with full iteration traces. In-flight claims are
    /// skipped. Returns the number of cells written.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<usize, PersistError> {
        use persist::TraceOut;
        let entries: Vec<(Cell, Arc<EpochReport>, TraceOut)> = {
            let state = self.lock_state();
            state
                .cache
                .iter()
                .filter_map(|(cell, slot)| match slot {
                    Slot::Done(report) => Some((*cell, report.clone(), TraceOut::Events)),
                    // An undecoded lazy entry re-saves its encoded
                    // block verbatim: byte-identical to a fresh encode
                    // (the decoder only accepts canonical blocks) and
                    // free of any decode cost.
                    Slot::DoneLazy { report, trace } => {
                        Some((*cell, report.clone(), TraceOut::Raw(trace.clone())))
                    }
                    Slot::InFlight => None,
                })
                .collect()
        };
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

    /// Answers one request for an explicit cell list: each distinct
    /// cell is answered on this service's executor — cache hits as-is,
    /// in-flight cells awaited, missing cells claimed and computed.
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
    /// Panics if a claimed cell's simulation panics (e.g. an invalid
    /// GPU count); the claim is reverted first, so other requests are
    /// unaffected (see the module docs' panic-recovery section).
    pub fn run_cells(&self, cells: &[Cell]) -> Vec<Arc<EpochReport>> {
        self.run_cells_traced(cells, false)
    }

    /// [`GridService::run_cells`] with an explicit trace requirement:
    /// when `traced` is true, entries loaded from a snapshot have their
    /// trace blocks decoded and are upgraded to full reports in place
    /// (a block that fails to decode is reclaimed and recomputed).
    pub fn run_cells_traced(&self, cells: &[Cell], traced: bool) -> Vec<Arc<EpochReport>> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.cells.fetch_add(cells.len() as u64, Ordering::Relaxed);
        let distinct = distinct_cells(cells);
        // Each report is published (and waiters notified) as soon as
        // it exists, not at the end of the request, so overlapping
        // requests stream results out of this one.
        let reports = self.exec.run(distinct.len(), |i| {
            let (cell, dups) = distinct[i];
            let (report, class) = self.cell_report(cell, traced);
            // Duplicates of a hit or a coalesced wait are more of the
            // same; duplicates of a freshly computed cell are
            // intra-request repeats (the request paid for it itself).
            let counter = match class {
                CellClass::Hit => &self.hits,
                CellClass::Coalesced => &self.coalesced,
                CellClass::Computed => &self.repeats,
            };
            counter.fetch_add(dups, Ordering::Relaxed);
            report
        });
        let by_cell: HashMap<Cell, Arc<EpochReport>> = distinct
            .iter()
            .map(|&(cell, _)| cell)
            .zip(reports)
            .collect();
        cells.iter().map(|cell| by_cell[cell].clone()).collect()
    }

    /// Answers one cell: serves a completed entry (decoding a lazy
    /// trace block first when `traced`), waits on a computation another
    /// thread has in flight, or claims and computes the cell, and
    /// reports *how* it answered so the caller can charge the cell's
    /// duplicates. Counts the cell itself in `hits`, `coalesced` or
    /// `computed`, but leaves the request and cell counters to the
    /// caller, which counts each request once.
    ///
    /// # Panics
    ///
    /// Panics if the cell's simulation panics; the claim is reverted
    /// first.
    fn cell_report(&self, cell: Cell, traced: bool) -> (Arc<EpochReport>, CellClass) {
        let mut waited = false;
        let mut state = self.lock_state();
        loop {
            let served = match state.cache.get(&cell) {
                Some(Slot::Done(report)) => Some(report.clone()),
                Some(Slot::DoneLazy { report, .. }) if !traced => Some(report.clone()),
                // Traced request on a lazy entry: decode the block with
                // the lock released, then upgrade the slot in place if
                // it is still lazy. Threads that decoded the same block
                // concurrently find it upgraded and serve that report.
                Some(Slot::DoneLazy { report, trace }) => {
                    let (report, trace) = (report.clone(), trace.clone());
                    drop(state);
                    let decoded = trace.decode();
                    state = self.lock_state();
                    if !matches!(state.cache.get(&cell), Some(Slot::DoneLazy { .. })) {
                        continue;
                    }
                    // An undecodable block falls through to reclaim
                    // (unreachable for snapshots this code wrote, since
                    // the load checksummed the image, but defended).
                    decoded.ok().map(|iter_trace| {
                        let mut full = (*report).clone();
                        full.iter_trace = iter_trace;
                        let full = Arc::new(full);
                        state.cache.insert(cell, Slot::Done(full.clone()));
                        self.trace_decodes.fetch_add(1, Ordering::Relaxed);
                        full
                    })
                }
                Some(Slot::InFlight) => {
                    waited = true;
                    state = self
                        .ready
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                    continue;
                }
                // Missing (or reverted by a panicked claimant while we
                // waited): claim it.
                None => None,
            };
            let Some(report) = served else {
                return (self.claim_and_compute(state, cell), CellClass::Computed);
            };
            drop(state);
            // A wait that resolved to a published report was coalesced
            // onto another thread's computation.
            return if waited {
                self.coalesced.fetch_add(1, Ordering::Relaxed);
                (report, CellClass::Coalesced)
            } else {
                self.hits.fetch_add(1, Ordering::Relaxed);
                (report, CellClass::Hit)
            };
        }
    }

    /// Claims the absent `cell` under the held state lock, then
    /// computes it with the lock released, publishes the report as
    /// `Done` and wakes every waiter. A one-cell [`ClaimGuard`] covers
    /// the claim: if the simulation panics, the guard reverts it and
    /// wakes waiters before the unwind reaches the caller.
    fn claim_and_compute(&self, mut state: MutexGuard<'_, State>, cell: Cell) -> Arc<EpochReport> {
        state.cache.insert(cell, Slot::InFlight);
        let (def, harness) = Self::pools(&mut state, &self.base, cell);
        drop(state);
        let _claim = ClaimGuard {
            service: self,
            cell,
        };
        let report = Arc::new(grid::cell_report_with(&harness, &def, &cell, &self.tuner));
        self.computed.fetch_add(1, Ordering::Relaxed);
        self.lock_state()
            .cache
            .insert(cell, Slot::Done(report.clone()));
        self.ready.notify_all();
        report
    }

    /// Fetches (building on first use) the shared workload definition
    /// and harness for `cell` from the state pools.
    fn pools(state: &mut State, base: &Harness, cell: Cell) -> (Arc<Definition>, Arc<Harness>) {
        let def = state
            .defs
            .entry(cell.workload)
            .or_insert_with(|| Arc::new(cell.workload.definition()))
            .clone();
        let harness = state
            .harnesses
            .entry((cell.platform, cell.fault))
            .or_insert_with(|| Arc::new(harness_for(base, cell.platform, cell.fault)))
            .clone();
        (def, harness)
    }

    /// Acquires the state lock, recovering from poisoning: the lock is
    /// never held across a cell computation, and the claim guards keep
    /// the cache invariants across unwinds, so a poisoned mutex only
    /// means "some thread panicked elsewhere", not "the state is
    /// inconsistent".
    fn lock_state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Snapshot of the request counters.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            requests: self.requests.load(Ordering::Relaxed),
            cells: self.cells.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            repeats: self.repeats.load(Ordering::Relaxed),
            computed: self.computed.load(Ordering::Relaxed),
        }
    }

    /// Number of lazy-loaded trace blocks decoded so far — the cost a
    /// warm service has actually paid for traces. A warm service
    /// answering only table-level sweeps leaves this at zero.
    /// Deliberately *not* part of [`ServiceStats`]: those count how
    /// requests were answered, not which snapshot machinery served
    /// them.
    pub fn trace_decodes(&self) -> u64 {
        self.trace_decodes.load(Ordering::Relaxed)
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

    /// Number of distinct cells resident in the cache (completed or in
    /// flight).
    pub fn cached_cells(&self) -> usize {
        self.lock_state().cache.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
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
        // Intra-request duplicates of a freshly claimed cell are
        // repeats, not coalesced: the request gained nothing from the
        // cache, so the hit rate must stay zero.
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
        // The claim is gone, not wedged in flight.
        assert_eq!(service.cached_cells(), 0);

        // A retry panics again (no deadlock on a stale claim)...
        let retry = catch_unwind(AssertUnwindSafe(|| {
            service.run_cells(&[poisonous_cell()]);
        }));
        assert!(retry.is_err());
        assert_eq!(service.cached_cells(), 0);

        // ...and an unrelated healthy request completes normally: the
        // mutex was not poisoned into an `expect` cascade.
        let reports = service.run_cells(&[lenet_cell(16, 1)]);
        assert_eq!(reports.len(), 1);
        let stats = service.stats();
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.computed, 1, "only the healthy cell completed");
    }

    #[test]
    fn panic_midway_through_a_request_spares_completed_cells() {
        // The serial executor answers the distinct cells in request
        // order: the healthy cell publishes before the poisonous one
        // panics. Its report must survive the unwind; the failed claim
        // must not.
        let service = GridService::with_executor(Harness::paper(), Executor::Serial);
        let good = lenet_cell(16, 1);
        let result = catch_unwind(AssertUnwindSafe(|| {
            service.run_cells(&[good, poisonous_cell()]);
        }));
        assert!(result.is_err());
        assert_eq!(service.cached_cells(), 1, "published cell survives");
        // The survivor is served as a plain hit.
        let reports = service.run_cells(&[good]);
        assert_eq!(reports.len(), 1);
        assert_eq!(service.stats().hits, 1);
    }

    #[test]
    fn concurrent_requests_for_a_panicking_cell_never_deadlock() {
        // Whatever the interleaving — the second request waits on the
        // first's claim and claims the cell itself after the revert, or
        // claims fresh after the revert — both observe the panic and
        // nothing is left in flight.
        let service = Arc::new(GridService::with_executor(
            Harness::paper(),
            Executor::Serial,
        ));
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let service = Arc::clone(&service);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    service.run_cells(&[poisonous_cell()])
                })
            })
            .collect();
        for handle in handles {
            assert!(handle.join().is_err(), "both requests must panic");
        }
        assert_eq!(service.cached_cells(), 0);
        // The service remains fully usable afterwards.
        let reports = service.run_cells(&[lenet_cell(16, 2)]);
        assert_eq!(reports.len(), 1);
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
        let cells = [lenet_cell(16, 1), lenet_cell(16, 2)];
        let cold = GridService::with_executor(Harness::paper(), Executor::Serial);
        cold.run_cells(&cells);
        cold.save(&path).unwrap();
        let cold_bytes = std::fs::read(&path).unwrap();

        // Warm load + table-only traffic + re-save: byte-identical to
        // the cold snapshot with zero trace decodes (the encoded
        // blocks are copied verbatim).
        let resaved = std::env::temp_dir().join(format!(
            "voltascope-service-lazy-resave-{}.snap",
            std::process::id()
        ));
        let (warm, _) = GridService::with_snapshot(Harness::paper(), Executor::Serial, &path);
        warm.run_cells(&cells);
        warm.save(&resaved).unwrap();
        assert_eq!(std::fs::read(&resaved).unwrap(), cold_bytes);
        assert_eq!(warm.trace_decodes(), 0);

        // Traced traffic upgrades each entry exactly once; the
        // re-save after decoding still reproduces the cold bytes
        // (fresh encode of the decoded events).
        let first = warm.run_cells_traced(&cells, true);
        let again = warm.run_cells_traced(&cells, true);
        assert_eq!(warm.trace_decodes(), cells.len() as u64, "decoded once");
        assert!(Arc::ptr_eq(&first[0], &again[0]), "upgrade persisted");
        warm.save(&resaved).unwrap();
        assert_eq!(std::fs::read(&resaved).unwrap(), cold_bytes);

        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&resaved).unwrap();
    }

    #[test]
    fn concurrent_traced_requests_upgrade_each_lazy_entry_once() {
        let path = std::env::temp_dir().join(format!(
            "voltascope-service-concurrent-lazy-{}.snap",
            std::process::id()
        ));
        let cells = [lenet_cell(16, 1), lenet_cell(16, 2), lenet_cell(32, 4)];
        let cold = GridService::with_executor(Harness::paper(), Executor::Serial);
        let cold_reports = cold.run_cells(&cells);
        cold.save(&path).unwrap();

        // Every thread decodes outside the lock and may race another
        // decoding the same block; only the first upgrade of each
        // slot counts, and every thread gets the upgraded entry.
        let (warm, _) =
            GridService::with_snapshot(Harness::paper(), Executor::Parallel { threads: 2 }, &path);
        let barrier = std::sync::Barrier::new(4);
        let results: Vec<Vec<Arc<EpochReport>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        warm.run_cells_traced(&cells, true)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for reports in &results {
            for ((got, first), cold) in reports.iter().zip(&results[0]).zip(&cold_reports) {
                assert!(Arc::ptr_eq(got, first), "one upgraded Arc per cell");
                assert_eq!(got.iter_trace.events(), cold.iter_trace.events());
            }
        }
        assert_eq!(warm.trace_decodes(), cells.len() as u64);
        assert_eq!(warm.stats().computed, 0, "lazy decode, not recompute");
        std::fs::remove_file(&path).unwrap();
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

    #[test]
    fn save_skips_in_flight_claims() {
        // save() must only persist Done slots; a wedged or concurrent
        // in-flight claim is simply absent from the snapshot.
        let service = GridService::with_executor(Harness::paper(), Executor::Serial);
        service.run_cells(&[lenet_cell(16, 1)]);
        {
            let mut state = service.lock_state();
            state.cache.insert(lenet_cell(16, 2), Slot::InFlight);
        }
        let path = std::env::temp_dir().join(format!(
            "voltascope-service-partial-{}.snap",
            std::process::id()
        ));
        assert_eq!(service.save(&path).unwrap(), 1);
        let (warm, status) = GridService::with_snapshot(Harness::paper(), Executor::Serial, &path);
        assert!(matches!(status, SnapshotStatus::Loaded { cells: 1 }));
        assert_eq!(warm.cached_cells(), 1);
        std::fs::remove_file(&path).unwrap();
    }
}

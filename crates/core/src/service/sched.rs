//! # Async prioritised scheduler over the sweep service
//!
//! [`Scheduler`] is a non-blocking request front end for
//! [`GridService`]: callers [`submit`](Scheduler::submit) a cell list
//! and immediately receive a [`Ticket`] they can [`poll`](Ticket::poll),
//! [`wait`](Ticket::wait) on, or [`cancel`](Ticket::cancel), while a
//! pool of worker threads drains the cells through the service's
//! single-flight cache. Reports delivered by a ticket are the same
//! `Arc`s the blocking [`GridService::run_cells`] path returns —
//! byte-identical, because both paths answer each cell through one
//! per-cell path over one cache.
//!
//! ## Queueing discipline
//!
//! The work queue holds one item per *unique* cell of each ticket and
//! is organised as three strict-priority bands
//! ([`Priority::High`] / [`Priority::Normal`] / [`Priority::Low`]): a
//! worker always takes from the highest non-empty band, so a flood of
//! low-priority sweep cells never delays an interactive request
//! (each such overtake is counted in
//! [`SchedStats::preemptions`]). *Within* a band, clients (the
//! [`SubmitOpts::client`] id) are served by deficit round-robin: each
//! client in turn may dequeue up to [`SchedConfig::quantum`] items
//! before the next client is served, so two clients flooding the same
//! band split the workers fairly instead of first-come-first-served
//! letting one starve the other.
//!
//! ## Critical-path-aware dispatch
//!
//! Within one client's queue, items are kept longest-expected-first by
//! a static cost rank ([`cost_rank`]: workload weight × batch × GPU
//! count), so the heaviest cell of a sweep — the makespan floor, e.g.
//! Inception-v3 at batch 64 on 8 GPUs — starts computing immediately
//! instead of landing behind dozens of LeNet cells. Equal ranks keep
//! admission order. Results do not depend on the order — reports are
//! keyed by cell and the cache is single-flight — only the completion
//! *schedule* does.
//!
//! Workers drain the banded queue through per-worker *slices*: a
//! worker with nothing claimed refills its slice with up to one
//! quantum of items from the highest band, and an idle worker whose
//! slice and the banded queue are both empty *steals* from the back of
//! the fullest sibling slice (counted in [`SchedStats::steals`]) —
//! so one worker's long-running cell cannot strand queued work it
//! claimed. A higher-band arrival still preempts: workers check the
//! banded queue's head against their slice head on every dispatch.
//!
//! ## Backpressure, cancellation, deadlines
//!
//! The queue is bounded by [`SchedConfig::max_depth`] *cells*; a submit
//! that would overflow it is rejected with a typed
//! [`SubmitError::QueueFull`] and no side effects, so callers can shed
//! or retry. Cancellation and deadlines are lazy and race-free:
//! [`Ticket::cancel`] resolves the ticket immediately and its
//! still-queued items are discarded when a worker dequeues them (a
//! cell already being computed is finished and cached — the work is
//! useful for future requests — but the ticket stays cancelled). A
//! per-ticket [`SubmitOpts::deadline`] is checked when each of its
//! items is dequeued: once expired, the ticket resolves to
//! [`TicketError::DeadlineExceeded`].
//!
//! ## Failure semantics
//!
//! A cell whose simulation panics (e.g. an invalid GPU count) fails
//! only the tickets that asked for it: the worker catches the unwind,
//! the service's claim guard has already reverted the claim (a waiter
//! claims and recomputes it, exactly as on the blocking path), and the
//! ticket resolves to [`TicketError::CellPanicked`] while the worker
//! thread survives to serve the next item.
//!
//! ## Accounting
//!
//! [`SchedStats`] extends [`ServiceStats`] with queue-depth, wait-time
//! and preemption counters. Ticket outcomes partition as
//! `submitted == completed + cancelled + rejected` at quiescence, with
//! `cancelled` the umbrella for every non-success resolution (explicit
//! cancels, deadline expiries — also counted in `expired` — panics —
//! also counted in `failed` — and shutdown drops). A sequential
//! submit-and-wait stream produces *identical* [`ServiceStats`] to the
//! same stream through [`GridService::run_cells`]; `tests/sched.rs`
//! pins that, and the paper goldens, against the blocking path.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use voltascope::grid::{Executor, GridSpec};
//! use voltascope::service::sched::{Priority, SchedConfig, Scheduler, SubmitOpts};
//! use voltascope::service::GridService;
//! use voltascope::Harness;
//! use voltascope_dnn::zoo::Workload;
//!
//! let service = Arc::new(GridService::with_executor(Harness::paper(), Executor::Serial));
//! let sched = Scheduler::new(Arc::clone(&service), SchedConfig::default().workers(2));
//! let cells = GridSpec::paper()
//!     .workloads([Workload::LeNet])
//!     .batches([16])
//!     .cells();
//! let ticket = sched
//!     .submit(&cells, SubmitOpts::default().priority(Priority::High))
//!     .unwrap();
//! let reports = ticket.wait().unwrap();
//! assert_eq!(reports.len(), cells.len());
//! ```

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use voltascope_train::EpochReport;

use super::{distinct_cells, GridService, ServiceStats};
use crate::grid::{Cell, Executor, GridOut, GridSpec};

/// Request priority band. Bands are *strict*: a worker never takes a
/// `Normal` item while a `High` item is queued, nor a `Low` item while
/// anything higher is queued. Fairness across clients applies within
/// a band (deficit round-robin), not across bands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Priority {
    /// Interactive requests; always served first.
    High,
    /// The default band.
    #[default]
    Normal,
    /// Bulk sweeps; served only when the queue holds nothing else.
    Low,
}

impl Priority {
    /// All bands, highest first (the service order).
    pub const ALL: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Low];

    fn band(self) -> usize {
        self as usize
    }
}

/// Static cost rank of a cell: a relative-workload weight (calibrated
/// against the simulated epoch times of the zoo CNNs — LeNet lightest,
/// VGG-16 heaviest) scaled by batch size and GPU count. Used by the
/// scheduler to serve a client's queued cells longest-expected-first,
/// so the sweep's makespan-floor cell (Inception-v3, batch 64, 8
/// GPUs on the fig3 grid) starts before the dozens of cheap cells
/// admitted ahead of it. Monotone per workload in batch and GPU
/// count; unknown data workloads rank mid-pack.
pub fn cost_rank(cell: &Cell) -> u64 {
    let weight: u64 = match cell.workload.name() {
        "LeNet" => 1,
        "AlexNet" => 6,
        "GoogLeNet" => 18,
        "ResNet" => 24,
        "GPT2-Small" => 28,
        "Inception-v3" => 32,
        "VGG-16" => 40,
        _ => 16,
    };
    weight
        .saturating_mul(cell.batch as u64)
        .saturating_mul(cell.gpus as u64)
}

/// Scheduler sizing knobs. The defaults match the blocking path's
/// executor selection (`VOLTASCOPE_THREADS`) so the two front ends are
/// interchangeable under the same environment.
#[derive(Debug, Clone, Copy)]
pub struct SchedConfig {
    /// Worker threads draining the queue. At least 1.
    pub workers: usize,
    /// Queue bound, in cells. A submit whose unique cells would push
    /// the depth past this limit is rejected with
    /// [`SubmitError::QueueFull`].
    pub max_depth: usize,
    /// Deficit-round-robin quantum: how many items one client may
    /// dequeue from a band before the next client is served. Also the
    /// refill size of a worker's slice.
    pub quantum: usize,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            workers: Executor::from_env().threads(),
            max_depth: 4096,
            quantum: 8,
        }
    }
}

impl SchedConfig {
    /// Sets the worker-thread count.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the queue bound, in cells.
    pub fn max_depth(mut self, max_depth: usize) -> Self {
        self.max_depth = max_depth;
        self
    }

    /// Sets the deficit-round-robin quantum.
    pub fn quantum(mut self, quantum: usize) -> Self {
        self.quantum = quantum.max(1);
        self
    }
}

/// Per-submit options: priority band, client identity (the fairness
/// unit), optional deadline, and whether the caller will consume
/// iteration traces.
#[derive(Debug, Clone, Copy, Default)]
pub struct SubmitOpts {
    /// Priority band for every cell of this ticket.
    pub priority: Priority,
    /// Client id deficit-round-robin fairness is keyed by. Defaults
    /// to 0; callers that want per-user fairness pass distinct ids.
    pub client: u64,
    /// Optional deadline, relative to submit time. Checked lazily when
    /// each queued item is dequeued; an expired ticket resolves to
    /// [`TicketError::DeadlineExceeded`].
    pub deadline: Option<Duration>,
    /// When true, reports are guaranteed to carry their iteration
    /// traces (entries loaded from a snapshot are decoded — see
    /// [`GridService::run_cells_traced`]).
    pub traced: bool,
}

impl SubmitOpts {
    /// Sets the priority band.
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the client id.
    pub fn client(mut self, client: u64) -> Self {
        self.client = client;
        self
    }

    /// Sets a deadline relative to submit time.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Requires full iteration traces on the returned reports.
    pub fn traced(mut self, traced: bool) -> Self {
        self.traced = traced;
        self
    }
}

/// Why a submit was refused. Rejected submits have no side effects
/// beyond the `submitted`/`rejected` counters — nothing is enqueued
/// and no ticket exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// Admitting this ticket's unique cells would exceed the
    /// configured queue bound. Shed load or retry later.
    QueueFull {
        /// Queue depth (cells) at rejection time.
        depth: usize,
        /// The configured bound ([`SchedConfig::max_depth`]).
        max_depth: usize,
    },
    /// The scheduler is shutting down and accepts no new work.
    ShuttingDown,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull { depth, max_depth } => {
                write!(f, "work queue full ({depth} cells, bound {max_depth})")
            }
            SubmitError::ShuttingDown => write!(f, "scheduler is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why a ticket failed. Every accepted ticket resolves exactly once,
/// to either its reports or one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TicketError {
    /// A cell's simulation panicked (e.g. a GPU count beyond the
    /// topology). The service cache is unharmed — the claim was
    /// reverted — and the scheduler keeps running.
    CellPanicked {
        /// The offending cell.
        cell: Cell,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The ticket was cancelled via [`Ticket::cancel`].
    Cancelled,
    /// The ticket's deadline passed before its cells were served.
    DeadlineExceeded,
    /// The scheduler shut down with this ticket still queued.
    Shutdown,
}

impl fmt::Display for TicketError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TicketError::CellPanicked { cell, message } => {
                write!(f, "cell {cell:?} panicked: {message}")
            }
            TicketError::Cancelled => write!(f, "ticket cancelled"),
            TicketError::DeadlineExceeded => write!(f, "ticket deadline exceeded"),
            TicketError::Shutdown => write!(f, "scheduler shut down before the ticket completed"),
        }
    }
}

impl std::error::Error for TicketError {}

/// Snapshot of a ticket's progress, from [`Ticket::poll`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TicketStatus {
    /// Still in progress: this many unique cells are not yet served.
    Pending {
        /// Unique cells still queued or computing.
        remaining: usize,
    },
    /// Resolved successfully; [`Ticket::wait`] returns immediately.
    Done,
    /// Resolved to an error.
    Failed(TicketError),
}

/// A ticket's lifecycle: accumulating per-cell reports, then resolved
/// exactly once (to the assembled reports or an error).
#[derive(Debug)]
enum TicketPhase {
    Pending {
        remaining: usize,
        reports: HashMap<Cell, Arc<EpochReport>>,
    },
    Resolved(Result<Vec<Arc<EpochReport>>, TicketError>),
}

/// Shared core of a ticket: the submit metadata plus the resolution
/// state waiters park on.
#[derive(Debug)]
struct TicketInner {
    id: u64,
    client: u64,
    priority: Priority,
    traced: bool,
    deadline: Option<Instant>,
    /// The submitted cells, original order and duplicates preserved —
    /// the resolved report vector matches this, index for index.
    cells: Vec<Cell>,
    state: Mutex<TicketPhase>,
    done: Condvar,
    /// Lock-free "already resolved" flag, so workers can discard dead
    /// queue items without taking the ticket lock.
    terminal: AtomicBool,
}

impl TicketInner {
    fn lock(&self) -> MutexGuard<'_, TicketPhase> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Resolves the ticket if it has not resolved yet, running
    /// `on_first` exactly once, *inside* the state lock, when this
    /// call is the resolving one. Outcome counters are bumped in that
    /// callback so that any waiter observing the resolution (waiters
    /// take the same lock) also observes the accounting — stats can
    /// never lag behind a completed `wait`. Returns whether this call
    /// resolved the ticket.
    fn resolve(
        &self,
        result: Result<Vec<Arc<EpochReport>>, TicketError>,
        on_first: impl FnOnce(),
    ) -> bool {
        let mut state = self.lock();
        if matches!(*state, TicketPhase::Resolved(_)) {
            return false;
        }
        *state = TicketPhase::Resolved(result);
        self.terminal.store(true, Ordering::Release);
        on_first();
        drop(state);
        self.done.notify_all();
        true
    }

    /// Records one unique cell's report. When this was the last
    /// outstanding cell, the ticket resolves successfully and
    /// `on_done` runs inside the state lock (see [`Self::resolve`] for
    /// why).
    fn complete_cell(&self, cell: Cell, report: Arc<EpochReport>, on_done: impl FnOnce()) {
        let mut state = self.lock();
        let TicketPhase::Pending { remaining, reports } = &mut *state else {
            // Cancelled/expired/failed while this cell computed; the
            // report still went into the service cache.
            return;
        };
        reports.insert(cell, report);
        *remaining -= 1;
        if *remaining > 0 {
            return;
        }
        let assembled = self
            .cells
            .iter()
            .map(|c| reports[c].clone())
            .collect::<Vec<_>>();
        *state = TicketPhase::Resolved(Ok(assembled));
        self.terminal.store(true, Ordering::Release);
        on_done();
        drop(state);
        self.done.notify_all();
    }
}

/// Handle to an accepted request. Cheap to clone-free move around;
/// dropping it does *not* cancel the work (the cells still compute and
/// warm the cache).
#[derive(Debug)]
pub struct Ticket {
    inner: Arc<TicketInner>,
    shared: Arc<Shared>,
}

impl Ticket {
    /// Scheduler-unique ticket id (1-based, in submit order).
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// The client id this ticket was submitted under.
    pub fn client(&self) -> u64 {
        self.inner.client
    }

    /// The ticket's priority band.
    pub fn priority(&self) -> Priority {
        self.inner.priority
    }

    /// The submitted cells, original order and duplicates preserved.
    pub fn cells(&self) -> &[Cell] {
        &self.inner.cells
    }

    /// Non-blocking progress snapshot.
    pub fn poll(&self) -> TicketStatus {
        match &*self.inner.lock() {
            TicketPhase::Pending { remaining, .. } => TicketStatus::Pending {
                remaining: *remaining,
            },
            TicketPhase::Resolved(Ok(_)) => TicketStatus::Done,
            TicketPhase::Resolved(Err(e)) => TicketStatus::Failed(e.clone()),
        }
    }

    /// Blocks until the ticket resolves, returning one report per
    /// submitted cell (in submit order) or the failure.
    pub fn wait(&self) -> Result<Vec<Arc<EpochReport>>, TicketError> {
        let mut state = self.inner.lock();
        loop {
            if let TicketPhase::Resolved(result) = &*state {
                return result.clone();
            }
            state = self
                .inner
                .done
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Like [`Ticket::wait`], but gives up after `timeout`, returning
    /// `None` with the ticket still in progress.
    pub fn wait_timeout(
        &self,
        timeout: Duration,
    ) -> Option<Result<Vec<Arc<EpochReport>>, TicketError>> {
        let deadline = Instant::now() + timeout;
        let mut state = self.inner.lock();
        loop {
            if let TicketPhase::Resolved(result) = &*state {
                return Some(result.clone());
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self
                .inner
                .done
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            state = guard;
        }
    }

    /// Cancels the ticket: it resolves to [`TicketError::Cancelled`]
    /// and its still-queued cells are discarded when dequeued. Returns
    /// `true` when this call cancelled it, `false` when the ticket had
    /// already resolved (completed, failed, or previously cancelled).
    /// A cell of this ticket already being computed is finished and
    /// cached regardless — cancellation never corrupts the cache.
    pub fn cancel(&self) -> bool {
        self.inner.resolve(Err(TicketError::Cancelled), || {
            self.shared.cancelled.fetch_add(1, Ordering::Relaxed);
        })
    }
}

/// One unit of queued work: a unique cell of one ticket. `dups` is how
/// many *extra* occurrences of the cell the ticket submitted, so the
/// executing worker can account duplicates by the served class.
#[derive(Debug)]
struct Item {
    ticket: Arc<TicketInner>,
    cell: Cell,
    dups: u64,
    /// Global admission sequence number, for preemption accounting.
    seq: u64,
    /// Static dispatch rank ([`cost_rank`]), fixed at admission.
    rank: u64,
    enqueued: Instant,
}

/// One priority band: per-client queues, each kept
/// longest-expected-first, served by deficit round-robin. Invariant:
/// `active` lists exactly the clients with a non-empty queue, in
/// service order; `deficit` holds the head client's remaining quantum
/// (entries for other clients are absent — a client re-arrives with a
/// fresh quantum).
#[derive(Debug, Default)]
struct Band {
    queues: HashMap<u64, VecDeque<Item>>,
    active: VecDeque<u64>,
    deficit: HashMap<u64, usize>,
}

impl Band {
    /// Admits an item, keeping the client's queue sorted by descending
    /// [`cost_rank`] (admission order breaks ties, so equal-rank items
    /// stay FIFO).
    fn push(&mut self, item: Item) {
        let client = item.ticket.client;
        let queue = self.queues.entry(client).or_default();
        if queue.is_empty() {
            self.active.push_back(client);
        }
        // The first strictly-lower rank; equal ranks insert after,
        // preserving admission order.
        let at = queue.partition_point(|queued| queued.rank >= item.rank);
        queue.insert(at, item);
    }

    /// Dequeues the next item under deficit round-robin: the head
    /// client of `active` is served up to `quantum` items, then
    /// rotates to the back.
    fn pop(&mut self, quantum: usize) -> Option<Item> {
        let client = *self.active.front()?;
        let deficit = self.deficit.entry(client).or_insert(quantum);
        let queue = self
            .queues
            .get_mut(&client)
            .expect("active client has a queue");
        let item = queue.pop_front().expect("active client queue non-empty");
        *deficit -= 1;
        let exhausted = *deficit == 0;
        if queue.is_empty() {
            self.queues.remove(&client);
            self.deficit.remove(&client);
            self.active.pop_front();
        } else if exhausted {
            self.deficit.remove(&client);
            self.active.rotate_left(1);
        }
        Some(item)
    }

    fn is_empty(&self) -> bool {
        self.active.is_empty()
    }

    /// Earliest admission sequence number queued in this band, for the
    /// preemption counter. Scans whole queues because cost ordering
    /// can move the earliest-admitted item off the front.
    fn head_seq(&self) -> Option<u64> {
        self.queues
            .values()
            .flat_map(|q| q.iter().map(|i| i.seq))
            .min()
    }

    fn drain(&mut self) -> Vec<Item> {
        self.active.clear();
        self.deficit.clear();
        self.queues
            .drain()
            .flat_map(|(_, queue)| queue.into_iter())
            .collect()
    }
}

/// The bounded, banded work queue plus the per-worker slices claimed
/// out of it. All access is under one mutex; the scheduling policy
/// itself ([`WorkQueue::pop_next`], the slice refill/steal paths) is
/// pure state manipulation, unit-testable without threads.
#[derive(Debug)]
struct WorkQueue {
    bands: [Band; 3],
    /// Total queued items across all bands (items claimed into worker
    /// slices are no longer counted).
    depth: usize,
    shutdown: bool,
    /// Admission counter feeding [`Item::seq`].
    seq: u64,
    /// Per-worker claimed runs of items: a worker refills its slice
    /// with up to one quantum from the banded queue and drains it
    /// front-to-back; idle siblings steal from the back.
    slices: Vec<VecDeque<Item>>,
}

impl WorkQueue {
    fn new(cfg: &SchedConfig) -> Self {
        WorkQueue {
            bands: std::array::from_fn(|_| Band::default()),
            depth: 0,
            shutdown: false,
            seq: 0,
            slices: (0..cfg.workers.max(1)).map(|_| VecDeque::new()).collect(),
        }
    }

    fn push(&mut self, item: Item) {
        let band = item.ticket.priority.band();
        self.bands[band].push(item);
        self.depth += 1;
    }

    /// The highest non-empty band index, if any.
    fn highest_band(&self) -> Option<usize> {
        (0..self.bands.len()).find(|&b| !self.bands[b].is_empty())
    }

    /// The priority band of `worker`'s slice head, if the slice is
    /// non-empty.
    fn slice_band(&self, worker: usize) -> Option<usize> {
        self.slices[worker]
            .front()
            .map(|i| i.ticket.priority.band())
    }

    /// Pops by strict priority, deficit round-robin within the band.
    /// The flag is `true` when the popped item overtook an
    /// earlier-admitted item waiting in a lower band — a preemption in
    /// the observable-ordering sense.
    fn pop_next(&mut self, quantum: usize) -> Option<(Item, bool)> {
        for band in 0..self.bands.len() {
            if self.bands[band].is_empty() {
                continue;
            }
            let lower_head = self.bands[band + 1..]
                .iter()
                .filter_map(Band::head_seq)
                .min();
            let item = self.bands[band]
                .pop(quantum)
                .expect("band checked non-empty");
            self.depth -= 1;
            let preempted = lower_head.is_some_and(|s| s < item.seq);
            return Some((item, preempted));
        }
        None
    }

    /// Refills `worker`'s empty slice with up to `quantum` items from
    /// the highest non-empty band (never mixing bands, so the slice
    /// head's band is the slice's band). Returns how many items were
    /// claimed; dequeue/preemption accounting lands on `shared`.
    fn refill(&mut self, worker: usize, quantum: usize, shared: &Shared) -> usize {
        let Some(band) = self.highest_band() else {
            return 0;
        };
        let mut claimed = 0;
        while claimed < quantum && self.highest_band() == Some(band) {
            let (item, preempted) = self
                .pop_next(quantum)
                .expect("highest band checked non-empty");
            shared.dequeued.fetch_add(1, Ordering::Relaxed);
            if preempted {
                shared.preemptions.fetch_add(1, Ordering::Relaxed);
            }
            self.slices[worker].push_back(item);
            claimed += 1;
        }
        claimed
    }

    /// Steals one item from the back of the fullest sibling slice, for
    /// a worker whose own slice and the banded queue are both empty.
    fn steal_into(&mut self, thief: usize) -> Option<Item> {
        let victim = (0..self.slices.len())
            .filter(|&w| w != thief && !self.slices[w].is_empty())
            .max_by_key(|&w| self.slices[w].len())?;
        self.slices[victim].pop_back()
    }

    /// Drains everything — banded queue and worker slices — for
    /// shutdown. The second value is how many items came out of the
    /// *bands* (sliced items were already counted dequeued at refill).
    fn drain(&mut self) -> (Vec<Item>, usize) {
        let mut items: Vec<Item> = self.bands.iter_mut().flat_map(Band::drain).collect();
        let from_bands = items.len();
        for slice in &mut self.slices {
            items.extend(slice.drain(..));
        }
        self.depth = 0;
        (items, from_bands)
    }
}

/// State shared between the scheduler handle and its workers.
#[derive(Debug)]
struct Shared {
    service: Arc<GridService>,
    cfg: SchedConfig,
    queue: Mutex<WorkQueue>,
    work: Condvar,
    ticket_ids: AtomicU64,
    submitted: AtomicU64,
    completed: AtomicU64,
    cancelled: AtomicU64,
    rejected: AtomicU64,
    failed: AtomicU64,
    expired: AtomicU64,
    preemptions: AtomicU64,
    steals: AtomicU64,
    enqueued: AtomicU64,
    dequeued: AtomicU64,
    peak_depth: AtomicU64,
    wait_nanos: AtomicU64,
}

impl Shared {
    fn new(service: Arc<GridService>, cfg: SchedConfig) -> Self {
        Shared {
            service,
            cfg,
            queue: Mutex::new(WorkQueue::new(&cfg)),
            work: Condvar::new(),
            ticket_ids: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            preemptions: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            enqueued: AtomicU64::new(0),
            dequeued: AtomicU64::new(0),
            peak_depth: AtomicU64::new(0),
            wait_nanos: AtomicU64::new(0),
        }
    }

    fn lock_queue(&self) -> MutexGuard<'_, WorkQueue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Counters describing a [`Scheduler`]'s traffic so far, extending the
/// underlying service's [`ServiceStats`]. Snapshot via
/// [`Scheduler::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedStats {
    /// The underlying cache/compute counters (shared with any blocking
    /// callers of the same service).
    pub service: ServiceStats,
    /// Tickets submitted (accepted or rejected).
    pub submitted: u64,
    /// Tickets resolved successfully.
    pub completed: u64,
    /// Tickets resolved unsuccessfully — explicit cancels, deadline
    /// expiries, cell panics, shutdown drops. `failed` and `expired`
    /// break out two of those causes.
    pub cancelled: u64,
    /// Submits refused ([`SubmitError`]); no ticket existed.
    pub rejected: u64,
    /// Subset of `cancelled`: tickets failed by a panicking cell.
    pub failed: u64,
    /// Subset of `cancelled`: tickets that hit their deadline.
    pub expired: u64,
    /// Dequeues that overtook an earlier-admitted item in a lower
    /// priority band.
    pub preemptions: u64,
    /// Items an idle worker stole from the back of a sibling's claimed
    /// slice.
    pub steals: u64,
    /// Cells admitted to the queue.
    pub enqueued_cells: u64,
    /// Cells taken off the queue (executed, discarded as cancelled,
    /// expired, or drained at shutdown).
    pub dequeued_cells: u64,
    /// Current banded queue depth, in cells. Items already claimed
    /// into a worker's slice (at most workers × quantum) are not
    /// counted.
    pub queue_depth: u64,
    /// High-water queue depth, in cells.
    pub peak_queue_depth: u64,
    /// Total queue wait of executed cells, in nanoseconds.
    pub wait_nanos: u64,
}

impl SchedStats {
    /// The ticket conservation law — every submitted ticket is
    /// accounted exactly once. Holds at quiescence (no submits or
    /// resolutions in flight).
    pub fn is_balanced(&self) -> bool {
        self.submitted == self.completed + self.cancelled + self.rejected
    }

    /// Mean queue wait of executed cells; zero when nothing executed.
    pub fn mean_wait(&self) -> Duration {
        self.wait_nanos
            .checked_div(self.dequeued_cells)
            .map_or(Duration::ZERO, Duration::from_nanos)
    }
}

/// The async prioritised front end. See the [module docs](self).
///
/// Dropping the scheduler shuts it down: queued tickets resolve to
/// [`TicketError::Shutdown`] and the workers are joined.
#[derive(Debug)]
pub struct Scheduler {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Scheduler {
    /// Spawns a scheduler with `cfg.workers` threads over `service`.
    /// The service may simultaneously serve blocking callers — both
    /// paths share the cache and the single-flight discipline.
    pub fn new(service: Arc<GridService>, cfg: SchedConfig) -> Self {
        let shared = Arc::new(Shared::new(service, cfg));
        let workers = (0..cfg.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("voltascope-sched-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("spawn scheduler worker")
            })
            .collect();
        Scheduler { shared, workers }
    }

    /// The underlying service.
    pub fn service(&self) -> &Arc<GridService> {
        &self.shared.service
    }

    /// The configuration the scheduler was built with.
    pub fn config(&self) -> SchedConfig {
        self.shared.cfg
    }

    /// Submits `cells` as one ticket and returns immediately. The
    /// queue holds one item per *unique* cell, in first-occurrence
    /// order (duplicates are served from the ticket's own results,
    /// exactly like the blocking path); an empty submit resolves
    /// immediately.
    pub fn submit(&self, cells: &[Cell], opts: SubmitOpts) -> Result<Ticket, SubmitError> {
        self.shared.submitted.fetch_add(1, Ordering::Relaxed);

        let unique = distinct_cells(cells);

        let inner = Arc::new(TicketInner {
            id: self.shared.ticket_ids.fetch_add(1, Ordering::Relaxed) + 1,
            client: opts.client,
            priority: opts.priority,
            traced: opts.traced,
            deadline: opts.deadline.map(|d| Instant::now() + d),
            cells: cells.to_vec(),
            state: Mutex::new(TicketPhase::Pending {
                remaining: unique.len(),
                reports: HashMap::with_capacity(unique.len()),
            }),
            done: Condvar::new(),
            terminal: AtomicBool::new(false),
        });

        let n_unique = unique.len();
        {
            let mut queue = self.shared.lock_queue();
            if queue.shutdown {
                self.shared.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(SubmitError::ShuttingDown);
            }
            if queue.depth + n_unique > self.shared.cfg.max_depth {
                let depth = queue.depth;
                self.shared.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(SubmitError::QueueFull {
                    depth,
                    max_depth: self.shared.cfg.max_depth,
                });
            }
            // Accepted: this is a service request, accounted exactly
            // like the blocking path's entry into `run_cells`.
            self.shared.service.requests.fetch_add(1, Ordering::Relaxed);
            self.shared
                .service
                .cells
                .fetch_add(cells.len() as u64, Ordering::Relaxed);
            if n_unique == 0 {
                drop(queue);
                inner.resolve(Ok(Vec::new()), || {
                    self.shared.completed.fetch_add(1, Ordering::Relaxed);
                });
                return Ok(Ticket {
                    inner,
                    shared: Arc::clone(&self.shared),
                });
            }
            let now = Instant::now();
            for (cell, dups) in unique {
                queue.seq += 1;
                let seq = queue.seq;
                queue.push(Item {
                    ticket: Arc::clone(&inner),
                    cell,
                    dups,
                    seq,
                    rank: cost_rank(&cell),
                    enqueued: now,
                });
            }
            self.shared
                .enqueued
                .fetch_add(n_unique as u64, Ordering::Relaxed);
            self.shared
                .peak_depth
                .fetch_max(queue.depth as u64, Ordering::Relaxed);
        }
        self.shared.work.notify_all();
        Ok(Ticket {
            inner,
            shared: Arc::clone(&self.shared),
        })
    }

    /// Runs a full declarative sweep through the async path with
    /// default options, blocking for the result — a drop-in for
    /// [`GridService::sweep`] that exercises the ticket machinery.
    ///
    /// # Panics
    ///
    /// Panics when the ticket fails (mirroring the blocking sweep,
    /// which panics on a poisonous cell) or is rejected.
    pub fn sweep(&self, spec: &GridSpec) -> GridOut<Arc<EpochReport>> {
        self.sweep_opts(spec, SubmitOpts::default())
    }

    /// [`Scheduler::sweep`] with explicit submit options.
    ///
    /// # Panics
    ///
    /// Panics when the ticket fails or is rejected.
    pub fn sweep_opts(&self, spec: &GridSpec, opts: SubmitOpts) -> GridOut<Arc<EpochReport>> {
        let cells = spec.cells();
        let ticket = self
            .submit(&cells, opts)
            .unwrap_or_else(|e| panic!("async sweep rejected: {e}"));
        let reports = ticket
            .wait()
            .unwrap_or_else(|e| panic!("async sweep failed: {e}"));
        GridOut::from_parts(cells, reports)
    }

    /// Current queue depth, in cells.
    pub fn queue_depth(&self) -> usize {
        self.shared.lock_queue().depth
    }

    /// Snapshot of the scheduler counters (plus the underlying
    /// service's).
    pub fn stats(&self) -> SchedStats {
        let queue_depth = self.shared.lock_queue().depth as u64;
        SchedStats {
            service: self.shared.service.stats(),
            submitted: self.shared.submitted.load(Ordering::Relaxed),
            completed: self.shared.completed.load(Ordering::Relaxed),
            cancelled: self.shared.cancelled.load(Ordering::Relaxed),
            rejected: self.shared.rejected.load(Ordering::Relaxed),
            failed: self.shared.failed.load(Ordering::Relaxed),
            expired: self.shared.expired.load(Ordering::Relaxed),
            preemptions: self.shared.preemptions.load(Ordering::Relaxed),
            steals: self.shared.steals.load(Ordering::Relaxed),
            enqueued_cells: self.shared.enqueued.load(Ordering::Relaxed),
            dequeued_cells: self.shared.dequeued.load(Ordering::Relaxed),
            queue_depth,
            peak_queue_depth: self.shared.peak_depth.load(Ordering::Relaxed),
            wait_nanos: self.shared.wait_nanos.load(Ordering::Relaxed),
        }
    }

    /// Shuts the scheduler down explicitly (also done on drop): stops
    /// admission, resolves every queued ticket to
    /// [`TicketError::Shutdown`], and joins the workers. An item
    /// already being computed is finished first.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        let (drained, from_bands) = {
            let mut queue = self.shared.lock_queue();
            if queue.shutdown {
                (Vec::new(), 0)
            } else {
                queue.shutdown = true;
                queue.drain()
            }
        };
        self.shared.work.notify_all();
        self.shared
            .dequeued
            .fetch_add(from_bands as u64, Ordering::Relaxed);
        for item in drained {
            item.ticket.resolve(Err(TicketError::Shutdown), || {
                self.shared.cancelled.fetch_add(1, Ordering::Relaxed);
            });
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

impl GridService {
    /// Consumes the service into an async [`Scheduler`] front end.
    /// Shorthand for `Scheduler::new(Arc::new(self), cfg)`; use
    /// [`Scheduler::new`] directly to keep blocking access to the
    /// shared service alongside the scheduler.
    pub fn into_scheduler(self, cfg: SchedConfig) -> Scheduler {
        Scheduler::new(Arc::new(self), cfg)
    }
}

/// Worker body: dequeue, execute, repeat until shutdown drains the
/// queue.
fn worker_loop(shared: &Shared, worker: usize) {
    while let Some(item) = next_item(shared, worker) {
        execute(shared, item);
    }
}

/// What [`pop_runnable`] found for a worker.
enum PopOutcome {
    /// A live item, ready to execute.
    Item(Item),
    /// An item whose ticket's deadline has passed; the caller must
    /// resolve the ticket outside the queue lock.
    Expired(Item),
    /// Nothing runnable anywhere: bands, own slice, and sibling
    /// slices are all empty.
    Idle,
}

/// One dispatch decision for `worker`, under the queue lock. In order:
/// take from the banded queue when its head band strictly outranks the
/// worker's slice head (refilling the slice when it is empty), else
/// drain the own slice, else steal from the fullest sibling slice.
/// Dead (terminal-ticket) items are discarded along the way.
fn pop_runnable(shared: &Shared, queue: &mut WorkQueue, worker: usize) -> PopOutcome {
    loop {
        let slice_band = queue.slice_band(worker);
        let take_global = match (queue.highest_band(), slice_band) {
            (Some(global), Some(own)) => global < own,
            (Some(_), None) => true,
            (None, _) => false,
        };
        let item = if take_global {
            if slice_band.is_none() {
                let claimed = queue.refill(worker, shared.cfg.quantum, shared);
                if claimed > 1 {
                    // The slice now holds stealable surplus; wake any
                    // parked sibling to come take it.
                    shared.work.notify_all();
                }
                queue.slices[worker].pop_front()
            } else {
                // Execution-time preemption: a higher band arrived
                // after this slice was claimed — serve it first.
                let (item, preempted) = queue
                    .pop_next(shared.cfg.quantum)
                    .expect("highest band checked non-empty");
                shared.dequeued.fetch_add(1, Ordering::Relaxed);
                if preempted {
                    shared.preemptions.fetch_add(1, Ordering::Relaxed);
                }
                Some(item)
            }
        } else if slice_band.is_some() {
            queue.slices[worker].pop_front()
        } else {
            let stolen = queue.steal_into(worker);
            if stolen.is_some() {
                shared.steals.fetch_add(1, Ordering::Relaxed);
            }
            stolen
        };
        let Some(item) = item else {
            return PopOutcome::Idle;
        };
        if item.ticket.terminal.load(Ordering::Acquire) {
            // Cancelled, expired, or failed while queued: discard
            // without executing.
            continue;
        }
        if let Some(deadline) = item.ticket.deadline {
            if Instant::now() >= deadline {
                return PopOutcome::Expired(item);
            }
        }
        return PopOutcome::Item(item);
    }
}

/// Blocks for the next live item. Discards items of already-resolved
/// tickets and expires deadline-passed tickets along the way; returns
/// `None` only at shutdown with nothing left runnable.
fn next_item(shared: &Shared, worker: usize) -> Option<Item> {
    let mut queue = shared.lock_queue();
    loop {
        match pop_runnable(shared, &mut queue, worker) {
            PopOutcome::Item(item) => {
                shared
                    .wait_nanos
                    .fetch_add(item.enqueued.elapsed().as_nanos() as u64, Ordering::Relaxed);
                return Some(item);
            }
            PopOutcome::Expired(item) => {
                // Resolve outside the queue lock; other workers keep
                // draining meanwhile.
                drop(queue);
                item.ticket.resolve(Err(TicketError::DeadlineExceeded), || {
                    shared.cancelled.fetch_add(1, Ordering::Relaxed);
                    shared.expired.fetch_add(1, Ordering::Relaxed);
                });
                queue = shared.lock_queue();
            }
            PopOutcome::Idle => {
                if queue.shutdown {
                    return None;
                }
                queue = shared
                    .work
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }
}

/// Executes one item through the service's per-cell answer, as the
/// blocking path does for each distinct cell of a request, catching
/// panics so a poisonous cell fails its ticket, not the worker.
fn execute(shared: &Shared, item: Item) {
    let service = &shared.service;
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        service.cell_report(item.cell, item.ticket.traced)
    }));
    match outcome {
        Ok((report, class)) => {
            service.charge_duplicates(class, item.dups);
            item.ticket.complete_cell(item.cell, report, || {
                shared.completed.fetch_add(1, Ordering::Relaxed);
            });
        }
        Err(payload) => {
            let message = panic_message(payload.as_ref());
            let failure = TicketError::CellPanicked {
                cell: item.cell,
                message,
            };
            item.ticket.resolve(Err(failure), || {
                shared.cancelled.fetch_add(1, Ordering::Relaxed);
                shared.failed.fetch_add(1, Ordering::Relaxed);
            });
        }
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{FaultScenario, Platform};
    use crate::Harness;
    use voltascope_comm::CommMethod;
    use voltascope_dnn::zoo::Workload;
    use voltascope_train::ScalingMode;

    fn lenet_cell(batch: usize, gpus: usize) -> Cell {
        Cell {
            workload: Workload::LeNet.into(),
            comm: CommMethod::P2p,
            batch,
            gpus,
            scaling: ScalingMode::Strong,
            platform: Platform::Dgx1,
            fault: FaultScenario::Healthy,
        }
    }

    fn bare_ticket(client: u64, priority: Priority) -> Arc<TicketInner> {
        Arc::new(TicketInner {
            id: 0,
            client,
            priority,
            traced: false,
            deadline: None,
            cells: Vec::new(),
            state: Mutex::new(TicketPhase::Pending {
                remaining: 0,
                reports: HashMap::new(),
            }),
            done: Condvar::new(),
            terminal: AtomicBool::new(false),
        })
    }

    fn item_for(ticket: &Arc<TicketInner>, seq: u64, cell: Cell) -> Item {
        Item {
            ticket: Arc::clone(ticket),
            cell,
            dups: 0,
            seq,
            rank: cost_rank(&cell),
            enqueued: Instant::now(),
        }
    }

    fn item(ticket: &Arc<TicketInner>, seq: u64) -> Item {
        item_for(ticket, seq, lenet_cell(seq as usize + 1, 1))
    }

    fn queue() -> WorkQueue {
        WorkQueue::new(&SchedConfig::default().workers(2))
    }

    #[test]
    fn drr_alternates_between_clients_in_quantum_bursts() {
        let mut queue = queue();
        let a = bare_ticket(1, Priority::Normal);
        let b = bare_ticket(2, Priority::Normal);
        // Interleave admission; DRR must still serve quantum-sized
        // bursts per client, not admission order.
        for seq in 0..8 {
            let ticket = if seq % 2 == 0 { &a } else { &b };
            queue.push(item(ticket, seq));
        }
        let order: Vec<u64> = std::iter::from_fn(|| queue.pop_next(2))
            .map(|(item, _)| item.ticket.client)
            .collect();
        assert_eq!(order, vec![1, 1, 2, 2, 1, 1, 2, 2]);
    }

    #[test]
    fn drr_drops_deficit_when_a_client_empties() {
        let mut queue = queue();
        let a = bare_ticket(1, Priority::Normal);
        let b = bare_ticket(2, Priority::Normal);
        queue.push(item(&a, 0)); // one item only
        queue.push(item(&b, 1));
        queue.push(item(&b, 2));
        queue.push(item(&b, 3));
        let order: Vec<u64> = std::iter::from_fn(|| queue.pop_next(4))
            .map(|(item, _)| item.ticket.client)
            .collect();
        // Client 1 empties mid-quantum; client 2 takes over cleanly.
        assert_eq!(order, vec![1, 2, 2, 2]);
        assert_eq!(queue.depth, 0);
    }

    #[test]
    fn strict_priority_overtakes_and_flags_preemption() {
        let mut queue = queue();
        let low = bare_ticket(1, Priority::Low);
        let high = bare_ticket(2, Priority::High);
        let normal = bare_ticket(3, Priority::Normal);
        queue.push(item(&low, 1)); // admitted first
        queue.push(item(&normal, 2));
        queue.push(item(&high, 3)); // admitted last, served first
        let (first, preempted) = queue.pop_next(8).unwrap();
        assert_eq!(first.ticket.client, 2);
        assert!(preempted, "high overtook earlier low/normal items");
        let (second, preempted) = queue.pop_next(8).unwrap();
        assert_eq!(second.ticket.client, 3);
        assert!(preempted, "normal still overtook the earlier low item");
        let (third, preempted) = queue.pop_next(8).unwrap();
        assert_eq!(third.ticket.client, 1);
        assert!(!preempted, "nothing left to overtake");
        assert!(queue.pop_next(8).is_none());
    }

    fn cell_of(workload: Workload, batch: usize, gpus: usize) -> Cell {
        Cell {
            workload: workload.into(),
            comm: CommMethod::Nccl,
            batch,
            gpus,
            scaling: ScalingMode::Strong,
            platform: Platform::Dgx1,
            fault: FaultScenario::Healthy,
        }
    }

    #[test]
    fn cost_rank_scales_with_workload_batch_and_gpus() {
        let base = cost_rank(&cell_of(Workload::LeNet, 16, 1));
        assert_eq!(base, 16);
        // Heavier workload, bigger batch, more GPUs all rank higher.
        assert!(cost_rank(&cell_of(Workload::ResNet, 16, 1)) > base);
        assert!(cost_rank(&cell_of(Workload::LeNet, 64, 1)) > base);
        assert!(cost_rank(&cell_of(Workload::LeNet, 16, 8)) > base);
        // The fig3 makespan floor outranks every other zoo cell.
        let floor = cost_rank(&cell_of(Workload::InceptionV3, 64, 8));
        for w in Workload::ALL {
            for batch in [16, 32, 64] {
                for gpus in 1..=8 {
                    let cell = cell_of(w, batch, gpus);
                    if cell != cell_of(Workload::InceptionV3, 64, 8) {
                        assert!(cost_rank(&cell) < floor, "{w:?} b{batch} g{gpus}");
                    }
                }
            }
        }
    }

    /// The statically heaviest cell of the full fig3 sweep — Inception-v3
    /// at batch 64 on all 8 GPUs over NCCL — i.e. the sweep's makespan
    /// floor, which cost-ordered dispatch starts first.
    fn fig3_heaviest_cell() -> Cell {
        cell_of(Workload::InceptionV3, 64, 8)
    }

    #[test]
    fn fig3_heaviest_cell_maximizes_cost_rank_over_the_paper_grid() {
        let floor = fig3_heaviest_cell();
        let floor_rank = cost_rank(&floor);
        for cell in GridSpec::paper().cells() {
            assert!(
                cost_rank(&cell) <= floor_rank,
                "{cell:?} outranks the declared makespan floor"
            );
            // Strictly heavier than every cell that differs in the
            // rank inputs (comm method doesn't enter the rank).
            let same_rank_inputs = cell.workload == floor.workload
                && cell.batch == floor.batch
                && cell.gpus == floor.gpus;
            if !same_rank_inputs {
                assert!(cost_rank(&cell) < floor_rank, "{cell:?} ties the floor");
            }
        }
    }

    #[test]
    fn cost_order_serves_heaviest_first_within_a_client() {
        let mut queue = queue();
        let t = bare_ticket(1, Priority::Normal);
        // Admit cheap → heaviest → middling; service order is by rank.
        queue.push(item_for(&t, 1, cell_of(Workload::LeNet, 16, 1)));
        queue.push(item_for(&t, 2, cell_of(Workload::InceptionV3, 64, 8)));
        queue.push(item_for(&t, 3, cell_of(Workload::ResNet, 32, 2)));
        let order: Vec<Workload> = std::iter::from_fn(|| queue.pop_next(8))
            .map(|(i, _)| i.cell.workload.zoo().unwrap())
            .collect();
        assert_eq!(
            order,
            vec![Workload::InceptionV3, Workload::ResNet, Workload::LeNet]
        );
    }

    #[test]
    fn equal_ranks_stay_in_admission_order() {
        let mut queue = queue();
        let t = bare_ticket(1, Priority::Normal);
        queue.push(item_for(&t, 10, cell_of(Workload::AlexNet, 32, 4)));
        queue.push(item_for(&t, 11, cell_of(Workload::AlexNet, 32, 4)));
        let (first, _) = queue.pop_next(8).unwrap();
        let (second, _) = queue.pop_next(8).unwrap();
        assert_eq!((first.seq, second.seq), (10, 11));
    }

    #[test]
    fn submit_wait_matches_the_blocking_path() {
        let service = Arc::new(GridService::with_executor(
            Harness::paper(),
            Executor::Serial,
        ));
        let blocking = GridService::with_executor(Harness::paper(), Executor::Serial);
        let cells = [lenet_cell(16, 1), lenet_cell(16, 2), lenet_cell(16, 1)];
        let sched = Scheduler::new(Arc::clone(&service), SchedConfig::default().workers(1));
        let ticket = sched.submit(&cells, SubmitOpts::default()).unwrap();
        let async_reports = ticket.wait().unwrap();
        let blocking_reports = blocking.run_cells(&cells);
        assert_eq!(async_reports.len(), 3);
        for (a, b) in async_reports.iter().zip(blocking_reports.iter()) {
            assert_eq!(a.iterations, b.iterations);
            assert_eq!(a.epoch_time, b.epoch_time);
            assert_eq!(a.iter_trace.events(), b.iter_trace.events());
        }
        // Duplicate handling: same Arc for both occurrences.
        assert!(Arc::ptr_eq(&async_reports[0], &async_reports[2]));
        // Stat parity with the blocking request, including the repeat.
        assert_eq!(service.stats(), blocking.stats());
        let stats = sched.stats();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.completed, 1);
        assert!(stats.is_balanced());
        assert_eq!(stats.enqueued_cells, 2);
        assert_eq!(stats.dequeued_cells, 2);
        assert_eq!(stats.queue_depth, 0);
    }

    #[test]
    fn empty_submit_resolves_immediately() {
        let service = Arc::new(GridService::with_executor(
            Harness::paper(),
            Executor::Serial,
        ));
        let sched = Scheduler::new(service, SchedConfig::default().workers(1));
        let ticket = sched.submit(&[], SubmitOpts::default()).unwrap();
        assert_eq!(ticket.poll(), TicketStatus::Done);
        assert!(ticket.wait().unwrap().is_empty());
        let stats = sched.stats();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.service.requests, 1);
        assert!(stats.is_balanced());
    }

    #[test]
    fn zero_capacity_queue_rejects_with_queue_full() {
        let service = Arc::new(GridService::with_executor(
            Harness::paper(),
            Executor::Serial,
        ));
        let sched = Scheduler::new(service, SchedConfig::default().workers(1).max_depth(0));
        let err = sched
            .submit(&[lenet_cell(16, 1)], SubmitOpts::default())
            .unwrap_err();
        assert_eq!(
            err,
            SubmitError::QueueFull {
                depth: 0,
                max_depth: 0
            }
        );
        let stats = sched.stats();
        assert_eq!(stats.rejected, 1);
        assert!(stats.is_balanced());
        // A rejected submit is not a service request.
        assert_eq!(stats.service.requests, 0);
    }

    /// A scheduler with no worker threads: submitted items stay
    /// queued, making queue-state transitions fully deterministic.
    fn workerless(service: Arc<GridService>) -> Scheduler {
        workerless_with(service, SchedConfig::default())
    }

    fn workerless_with(service: Arc<GridService>, cfg: SchedConfig) -> Scheduler {
        Scheduler {
            shared: Arc::new(Shared::new(service, cfg)),
            workers: Vec::new(),
        }
    }

    #[test]
    fn shutdown_resolves_queued_tickets_without_executing() {
        let service = Arc::new(GridService::with_executor(
            Harness::paper(),
            Executor::Serial,
        ));
        let sched = workerless(Arc::clone(&service));
        let ticket = sched
            .submit(&[lenet_cell(16, 1)], SubmitOpts::default())
            .unwrap();
        assert_eq!(ticket.poll(), TicketStatus::Pending { remaining: 1 });
        assert_eq!(sched.queue_depth(), 1);
        sched.shutdown();
        assert_eq!(ticket.wait().unwrap_err(), TicketError::Shutdown);
        assert_eq!(ticket.poll(), TicketStatus::Failed(TicketError::Shutdown));
        assert_eq!(service.stats().computed, 0, "drained, never executed");
    }

    #[test]
    fn cancel_is_exactly_once_and_queued_work_is_discarded() {
        let service = Arc::new(GridService::with_executor(
            Harness::paper(),
            Executor::Serial,
        ));
        let sched = workerless(Arc::clone(&service));
        let ticket = sched
            .submit(
                &[lenet_cell(16, 1), lenet_cell(16, 2)],
                SubmitOpts::default(),
            )
            .unwrap();
        assert!(ticket.cancel());
        assert!(!ticket.cancel(), "second cancel is a no-op");
        assert_eq!(ticket.wait().unwrap_err(), TicketError::Cancelled);
        // A worker dequeuing the dead items discards them unexecuted.
        let shared = Arc::clone(&sched.shared);
        let first = next_item_nonblocking(&shared, 0);
        assert!(first.is_none(), "terminal ticket items are discarded");
        let stats = sched.stats();
        assert_eq!(stats.cancelled, 1);
        assert!(stats.is_balanced());
        assert_eq!(stats.dequeued_cells, 2, "both items consumed as dead");
        assert_eq!(service.stats().computed, 0);
    }

    /// Drains the queue like `worker` would — same dispatch policy,
    /// including slice refill and stealing — but returns `None`
    /// instead of parking when nothing is runnable.
    fn next_item_nonblocking(shared: &Shared, worker: usize) -> Option<Item> {
        let mut queue = shared.lock_queue();
        loop {
            match pop_runnable(shared, &mut queue, worker) {
                PopOutcome::Item(item) => return Some(item),
                PopOutcome::Expired(item) => {
                    drop(queue);
                    item.ticket.resolve(Err(TicketError::DeadlineExceeded), || {
                        shared.cancelled.fetch_add(1, Ordering::Relaxed);
                        shared.expired.fetch_add(1, Ordering::Relaxed);
                    });
                    queue = shared.lock_queue();
                }
                PopOutcome::Idle => return None,
            }
        }
    }

    #[test]
    fn idle_worker_steals_from_a_sibling_slice() {
        let service = Arc::new(GridService::with_executor(
            Harness::paper(),
            Executor::Serial,
        ));
        let sched = workerless_with(
            Arc::clone(&service),
            SchedConfig::default().workers(2).quantum(8),
        );
        let cells: Vec<Cell> = (1..=4).map(|b| lenet_cell(16 * b, 1)).collect();
        sched.submit(&cells, SubmitOpts::default()).unwrap();
        let shared = Arc::clone(&sched.shared);
        // Worker 0's first dispatch claims the whole submit into its
        // slice; cost order puts the heaviest cell first.
        let first = next_item_nonblocking(&shared, 0).expect("worker 0 dispatches");
        assert_eq!(first.cell.batch, 64);
        // Worker 1 finds the bands empty and steals the cheapest item
        // from the back of worker 0's slice.
        let stolen = next_item_nonblocking(&shared, 1).expect("worker 1 steals");
        assert_eq!(stolen.cell.batch, 16);
        let stats = sched.stats();
        assert_eq!(stats.steals, 1);
        assert_eq!(stats.queue_depth, 0, "everything claimed out of the bands");
        assert_eq!(stats.dequeued_cells, 4, "refill counted all four");
        // Worker 0 keeps draining its own slice in rank order.
        let next = next_item_nonblocking(&shared, 0).expect("worker 0 continues");
        assert_eq!(next.cell.batch, 48);
    }

    #[test]
    fn wait_timeout_returns_none_while_pending() {
        let service = Arc::new(GridService::with_executor(
            Harness::paper(),
            Executor::Serial,
        ));
        let sched = workerless(service);
        let ticket = sched
            .submit(&[lenet_cell(16, 1)], SubmitOpts::default())
            .unwrap();
        assert!(ticket.wait_timeout(Duration::from_millis(5)).is_none());
        ticket.cancel();
        let resolved = ticket.wait_timeout(Duration::from_millis(5));
        assert_eq!(resolved.unwrap().unwrap_err(), TicketError::Cancelled);
    }

    #[test]
    fn priorities_order_and_default() {
        assert_eq!(Priority::default(), Priority::Normal);
        assert_eq!(Priority::ALL[0].band(), 0);
        assert!(Priority::High < Priority::Normal);
        assert!(Priority::Normal < Priority::Low);
    }
}

//! Scheduler contract: the async prioritised front end must deliver
//! byte-identical reports to the blocking `GridService` path — down to
//! the pinned paper goldens, cold and from a snapshot — keep strict
//! priority + deficit-round-robin fairness under load, survive
//! panicking cells, honour cancellation and deadlines, and keep its
//! ticket accounting balanced under randomized concurrent traffic.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dgx1_repro::comm::TuningSpace;
use dgx1_repro::prelude::persist::encode;
use dgx1_repro::prelude::*;
use proptest::prelude::*;
use voltascope::grid::GridOut;

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

/// A cell whose simulation panics: 9 GPUs on an 8-GPU topology.
fn poisonous_cell() -> Cell {
    lenet_cell(16, 9)
}

fn serial_service() -> Arc<GridService> {
    Arc::new(GridService::with_executor(
        Harness::paper(),
        Executor::Serial,
    ))
}

/// Spin-waits until `pred` holds, failing the test after `timeout`.
fn wait_until(timeout: Duration, what: &str, mut pred: impl FnMut() -> bool) {
    let start = Instant::now();
    while !pred() {
        assert!(
            start.elapsed() < timeout,
            "timed out after {timeout:?} waiting for {what}"
        );
        std::thread::yield_now();
    }
}

// ---------------------------------------------------------------------------
// Fairness regression: a low-priority flood must not delay an
// interactive high-priority request, and the flood itself must not
// starve.
// ---------------------------------------------------------------------------

#[test]
fn high_priority_ticket_overtakes_a_low_priority_flood() {
    let sched = Scheduler::new(serial_service(), SchedConfig::default().workers(2));

    // Client 1 floods 500 distinct low-priority cells, one per ticket.
    let flood: Vec<Ticket> = (0..500)
        .map(|i| {
            sched
                .submit(
                    &[lenet_cell(8 + i, 1)],
                    SubmitOpts::default().priority(Priority::Low).client(1),
                )
                .expect("flood submit accepted")
        })
        .collect();

    // Client 2 then asks for 5 cells interactively.
    let high_cells: Vec<Cell> = (0..5).map(|i| lenet_cell(1000 + i, 1)).collect();
    let high = sched
        .submit(
            &high_cells,
            SubmitOpts::default().priority(Priority::High).client(2),
        )
        .expect("high-priority submit accepted");

    let reports = high.wait().expect("high-priority ticket completes");
    assert_eq!(reports.len(), 5);

    // At the moment the interactive request resolved, no more than 10%
    // of the flood may have completed: the high band overtook the
    // backlog instead of queueing behind it.
    let flood_done = flood
        .iter()
        .filter(|t| t.poll() == TicketStatus::Done)
        .count();
    assert!(
        flood_done <= 50,
        "{flood_done}/500 flood tickets finished before the high-priority \
         ticket — the priority bands are not strict"
    );
    assert!(
        sched.stats().preemptions > 0,
        "the high-priority dequeues must be counted as preemptions"
    );

    // No starvation: every flood ticket still completes.
    for ticket in &flood {
        ticket.wait().expect("flood ticket completes eventually");
    }
    let stats = sched.stats();
    assert_eq!(stats.submitted, 501);
    assert_eq!(stats.completed, 501);
    assert!(stats.is_balanced(), "{stats:?}");
    assert_eq!(stats.service.computed, 505, "each distinct cell once");
}

// ---------------------------------------------------------------------------
// Randomized concurrency stress: overlapping cell sets, random
// priorities, clients and cancellations, at 1/2/8 workers. Every cell
// is computed at most once, every ticket resolves, and the accounting
// law `submitted == completed + cancelled + rejected` holds.
// ---------------------------------------------------------------------------

/// The shared cell pool submitter threads draw overlapping subsets of.
fn stress_pool() -> Vec<Cell> {
    (8..20).map(|b| lenet_cell(b, 1)).collect()
}

/// Splitmix-style step, the per-thread deterministic randomness source.
fn next_rand(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (*state >> 24) ^ *state
}

fn stress_round(seed: u64, workers: usize) {
    let pool = stress_pool();
    let service = serial_service();
    let sched = Scheduler::new(
        Arc::clone(&service),
        SchedConfig::default().workers(workers),
    );

    // 3 submitter threads x 10 tickets of random overlapping subsets,
    // random priorities/clients, ~1 in 4 tickets cancelled right away.
    // Each thread records (ticket, cancel() returned true).
    let outcomes: Vec<(Ticket, bool)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3u64)
            .map(|thread| {
                let sched = &sched;
                let pool = &pool;
                scope.spawn(move || {
                    let mut rng = seed ^ (thread.wrapping_mul(0x9e37_79b9_7f4a_7c15));
                    let mut mine = Vec::new();
                    for _ in 0..10 {
                        let r = next_rand(&mut rng);
                        let start = (r % pool.len() as u64) as usize;
                        let len = 1 + (r / 16 % 6) as usize;
                        let cells: Vec<Cell> =
                            (0..len).map(|k| pool[(start + k) % pool.len()]).collect();
                        let priority = Priority::ALL[(r / 256 % 3) as usize];
                        let opts = SubmitOpts::default().priority(priority).client(thread + 1);
                        let ticket = sched.submit(&cells, opts).expect("queue never fills");
                        let cancelled = (r / 1024).is_multiple_of(4) && ticket.cancel();
                        mine.push((ticket, cancelled));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("submitter thread"))
            .collect()
    });

    // Every ticket resolves: cancelled ones to Cancelled, the rest Ok
    // (a cancel() that returned false lost the race to completion).
    for (ticket, cancelled) in &outcomes {
        match ticket.wait() {
            Ok(reports) => {
                assert!(!cancelled, "cancelled ticket resolved Ok");
                assert_eq!(reports.len(), ticket.cells().len());
            }
            Err(e) => {
                assert!(*cancelled, "uncancelled ticket failed: {e}");
                assert_eq!(e, TicketError::Cancelled);
            }
        }
    }

    // A final flush ticket covers the full pool, so afterwards every
    // pool cell has been computed -- and exactly once each, despite 30
    // overlapping tickets racing for them.
    let flush = sched
        .submit(&pool, SubmitOpts::default().client(99))
        .expect("flush submit accepted");
    assert_eq!(flush.wait().expect("flush completes").len(), pool.len());
    wait_until(Duration::from_secs(10), "queue to drain", || {
        sched.queue_depth() == 0
    });

    let stats = sched.stats();
    assert_eq!(
        stats.service.computed,
        pool.len() as u64,
        "single-flight violated: a cell computed more than once ({stats:?})"
    );
    assert_eq!(stats.submitted, 31);
    assert_eq!(stats.rejected, 0);
    assert!(stats.is_balanced(), "{stats:?}");
    assert_eq!(
        stats.enqueued_cells, stats.dequeued_cells,
        "queue leaked items: {stats:?}"
    );
    assert_eq!(stats.queue_depth, 0);
    assert!(stats.peak_queue_depth >= 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn randomized_stress_keeps_the_accounting_balanced(seed in 0u64..1_000_000) {
        for workers in [1usize, 2, 8] {
            stress_round(seed ^ workers as u64, workers);
        }
    }
}

// ---------------------------------------------------------------------------
// Panic injection through the async path.
// ---------------------------------------------------------------------------

#[test]
fn a_panicking_cell_fails_its_ticket_and_the_scheduler_survives() {
    let service = serial_service();
    let sched = Scheduler::new(Arc::clone(&service), SchedConfig::default().workers(2));

    let cells = [lenet_cell(16, 1), poisonous_cell(), lenet_cell(16, 2)];
    let ticket = sched.submit(&cells, SubmitOpts::default()).unwrap();
    match ticket.wait() {
        Err(TicketError::CellPanicked { cell, message }) => {
            assert_eq!(cell, poisonous_cell());
            assert!(!message.is_empty(), "panic message captured");
        }
        other => panic!("expected CellPanicked, got {other:?}"),
    }

    // The worker pool survives and the cache is unharmed: the healthy
    // cells still serve, and the claim on the poisonous cell was
    // reverted rather than wedged as permanently in-flight.
    let retry = sched
        .submit(
            &[lenet_cell(16, 1), lenet_cell(16, 2)],
            SubmitOpts::default(),
        )
        .unwrap();
    assert_eq!(retry.wait().expect("healthy cells still serve").len(), 2);

    wait_until(Duration::from_secs(10), "queue to drain", || {
        sched.queue_depth() == 0
    });
    let stats = sched.stats();
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.cancelled, 1, "failed is a subset of cancelled");
    assert_eq!(stats.completed, 1);
    assert!(stats.is_balanced(), "{stats:?}");
}

#[test]
fn concurrent_tickets_sharing_a_poisonous_cell_both_fail() {
    let sched = Scheduler::new(serial_service(), SchedConfig::default().workers(2));

    // Both tickets queue the same poisonous cell. Whichever worker
    // claims it first panics; the other either waited on the in-flight
    // claim (and adopts-and-recomputes, panicking identically) or
    // claims it fresh after the revert. Either way both tickets fail
    // and both workers survive.
    let t1 = sched
        .submit(&[poisonous_cell()], SubmitOpts::default())
        .unwrap();
    let t2 = sched
        .submit(&[poisonous_cell()], SubmitOpts::default())
        .unwrap();
    for ticket in [&t1, &t2] {
        match ticket.wait() {
            Err(TicketError::CellPanicked { cell, .. }) => {
                assert_eq!(cell, poisonous_cell());
            }
            other => panic!("expected CellPanicked, got {other:?}"),
        }
    }

    let survivor = sched
        .submit(&[lenet_cell(16, 1)], SubmitOpts::default())
        .unwrap();
    assert!(survivor.wait().is_ok(), "workers survived both panics");
    let stats = sched.stats();
    assert_eq!(stats.failed, 2);
    assert!(stats.is_balanced(), "{stats:?}");
}

// ---------------------------------------------------------------------------
// Byte-identity: the 72-cell service_demo stream submitted as tickets
// yields byte-identical reports and identical service statistics to
// the blocking path, at 1, 2 and 8 workers.
// ---------------------------------------------------------------------------

/// The service_demo request stream: six overlapping sweeps, 72 cells.
fn demo_stream() -> Vec<GridSpec> {
    vec![
        GridSpec::paper().workloads([Workload::LeNet]).batches([16]),
        GridSpec::paper().workloads([Workload::LeNet]),
        GridSpec::paper().workloads([Workload::LeNet]).batches([16]),
        GridSpec::paper()
            .workloads([Workload::LeNet])
            .comms([CommMethod::Nccl]),
        GridSpec::paper()
            .workloads([Workload::AlexNet])
            .batches([16])
            .gpu_counts([1, 2]),
        GridSpec::paper()
            .workloads([Workload::LeNet, Workload::AlexNet])
            .batches([16]),
    ]
}

/// Canonical bytes of one sweep's (cell, report) pairs.
fn sweep_bytes(out: &GridOut<Arc<EpochReport>>) -> Vec<u8> {
    let entries: Vec<(Cell, Arc<EpochReport>)> = out
        .iter()
        .map(|(cell, report)| (*cell, report.clone()))
        .collect();
    encode(0, &entries)
}

#[test]
fn the_demo_stream_is_byte_identical_to_the_blocking_path_at_any_worker_count() {
    let stream = demo_stream();

    let blocking = GridService::with_executor(Harness::paper(), Executor::Serial);
    let blocking_bytes: Vec<Vec<u8>> = stream
        .iter()
        .map(|spec| sweep_bytes(&blocking.sweep(spec)))
        .collect();
    let blocking_stats = blocking.stats();
    assert_eq!(blocking_stats.cells, 72, "the demo stream is 72 cells");

    for workers in [1usize, 2, 8] {
        let sched = Scheduler::new(serial_service(), SchedConfig::default().workers(workers));
        for (spec, expected) in stream.iter().zip(&blocking_bytes) {
            let out = sched.sweep(spec);
            assert_eq!(
                &sweep_bytes(&out),
                expected,
                "async sweep drifted from the blocking path at {workers} workers"
            );
        }
        assert_eq!(
            sched.service().stats(),
            blocking_stats,
            "service statistics drifted at {workers} workers"
        );
        let stats = sched.stats();
        assert_eq!(stats.submitted, stream.len() as u64);
        assert_eq!(stats.completed, stream.len() as u64);
        assert!(stats.is_balanced(), "{stats:?}");
    }
}

// ---------------------------------------------------------------------------
// Paper goldens through the scheduler: the full Fig. 3 grid at 1, 2 and
// 8 workers, the modern-tuning degraded-DGX-1 sweep as a traced
// ticket, and a Fig. 3 snapshot saved behind one scheduler and served
// by another — each byte-identical to the file the regeneration binary
// is diffed against.
// ---------------------------------------------------------------------------

const FIG3_GOLDEN: &str = include_str!("../results/fig3_training_time.txt");
const TUNED_DEGRADED_GOLDEN: &str = include_str!("../results/tuned/degraded_dgx1.txt");

/// A table as the regeneration binaries print it (`emit` without
/// `--csv`): a `== title ==` header, the table, a blank line.
fn emitted(title: &str, table: &TextTable) -> String {
    format!("== {title} ==\n{}\n", table.render())
}

fn fig3_text(service: &GridService, out: &GridOut<Arc<EpochReport>>) -> String {
    let cells = experiments::fig3::rows_from(service.base(), out);
    emitted(
        "Fig. 3: Training time per epoch (s)",
        &experiments::fig3::render(&cells),
    )
}

#[test]
fn the_fig3_golden_is_byte_identical_through_the_scheduler_at_1_2_8_workers() {
    let spec = experiments::fig3::spec(&Workload::ALL);
    let blocking = GridService::with_executor(Harness::paper(), Executor::Serial);
    blocking.sweep(&spec);
    let blocking_stats = blocking.stats();
    assert_eq!(
        (
            blocking_stats.requests,
            blocking_stats.cells,
            blocking_stats.computed
        ),
        (1, 120, 120)
    );

    for workers in [1usize, 2, 8] {
        let sched = Scheduler::new(serial_service(), SchedConfig::default().workers(workers));
        let out = sched.sweep(&spec);
        assert!(
            fig3_text(sched.service(), &out) == FIG3_GOLDEN,
            "fig3 drifted from its golden at {workers} workers"
        );
        assert_eq!(
            sched.service().stats(),
            blocking_stats,
            "service statistics drifted at {workers} workers"
        );
    }
}

#[test]
fn the_tuned_degraded_golden_is_byte_identical_through_a_traced_ticket() {
    let mut h = Harness::paper();
    h.sys.nccl.tuning = TuningSpace::modern();
    let service = GridService::with_executor(h, Executor::Serial);
    let sched = Scheduler::new(Arc::new(service), SchedConfig::default().workers(2));
    let spec = experiments::faults::spec().workloads(Workload::ALL);
    let out = sched.sweep_opts(&spec, SubmitOpts::default().traced(true));
    let rows: Vec<_> = experiments::faults::rows_from(out)
        .into_pairs()
        .map(|(_, row)| row)
        .collect();
    let text = emitted(
        "Degraded DGX-1: fault-injection scenarios (batch 16, 8 GPUs)",
        &experiments::faults::render(&rows),
    );
    assert!(
        text == TUNED_DEGRADED_GOLDEN,
        "tuned degraded sweep drifted from its golden:\n{text}"
    );
}

#[test]
fn a_fig3_snapshot_saved_behind_a_scheduler_warm_starts_another() {
    let spec = experiments::fig3::spec(&Workload::ALL);
    let path =
        std::env::temp_dir().join(format!("voltascope-sched-fig3-{}.snap", std::process::id()));

    let cold = Scheduler::new(serial_service(), SchedConfig::default().workers(2));
    assert!(fig3_text(cold.service(), &cold.sweep(&spec)) == FIG3_GOLDEN);
    assert_eq!(cold.service().save(&path).unwrap(), 120);
    cold.shutdown();

    let (service, status) = GridService::with_snapshot(Harness::paper(), Executor::Serial, &path);
    assert!(
        matches!(status, SnapshotStatus::Loaded { cells: 120 }),
        "{status}"
    );
    let warm = Scheduler::new(Arc::new(service), SchedConfig::default().workers(2));
    assert!(fig3_text(warm.service(), &warm.sweep(&spec)) == FIG3_GOLDEN);
    let stats = warm.service().stats();
    assert_eq!(stats.computed, 0, "the warm pass must not recompute");
    assert_eq!(stats.hit_rate(), 1.0);
    assert_eq!(warm.service().trace_decodes(), 0, "table-only warm pass");
    std::fs::remove_file(&path).unwrap();
}

// ---------------------------------------------------------------------------
// Deadlines and mid-flight cancellation.
// ---------------------------------------------------------------------------

#[test]
fn an_already_expired_deadline_resolves_to_deadline_exceeded() {
    let sched = Scheduler::new(serial_service(), SchedConfig::default().workers(1));
    let ticket = sched
        .submit(
            &[lenet_cell(16, 1)],
            SubmitOpts::default().deadline(Duration::ZERO),
        )
        .unwrap();
    assert_eq!(ticket.wait().unwrap_err(), TicketError::DeadlineExceeded);
    let stats = sched.stats();
    assert_eq!(stats.expired, 1);
    assert_eq!(stats.cancelled, 1, "expired is a subset of cancelled");
    assert!(stats.is_balanced(), "{stats:?}");
    assert_eq!(
        stats.service.computed, 0,
        "an expired ticket's cells are never computed"
    );
}

#[test]
fn cancelling_a_queued_ticket_discards_its_work_while_in_flight_cells_finish() {
    let service = serial_service();
    let sched = Scheduler::new(Arc::clone(&service), SchedConfig::default().workers(1));

    // Occupy the single worker with an expensive cell...
    let blocker_cell = Cell {
        workload: Workload::ResNet.into(),
        comm: CommMethod::P2p,
        batch: 64,
        gpus: 8,
        scaling: ScalingMode::Strong,
        platform: Platform::Dgx1,
        fault: FaultScenario::Healthy,
    };
    let blocker = sched
        .submit(&[blocker_cell], SubmitOpts::default())
        .unwrap();
    wait_until(
        Duration::from_secs(30),
        "worker to pick up the blocker",
        || sched.stats().dequeued_cells == 1,
    );

    // ...queue a cheap target behind it, then cancel the target while
    // the worker is still busy.
    let target = sched
        .submit(&[lenet_cell(16, 1)], SubmitOpts::default())
        .unwrap();
    assert!(target.cancel(), "first cancel wins");
    assert!(!target.cancel(), "second cancel is a no-op");
    assert_eq!(target.wait().unwrap_err(), TicketError::Cancelled);
    assert_eq!(target.poll(), TicketStatus::Failed(TicketError::Cancelled));

    // The in-flight blocker is unaffected and still completes.
    assert_eq!(blocker.wait().expect("blocker completes").len(), 1);
    wait_until(Duration::from_secs(10), "queue to drain", || {
        sched.queue_depth() == 0
    });
    let stats = sched.stats();
    assert_eq!(
        stats.service.computed, 1,
        "the cancelled target's cell must never be computed"
    );
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.cancelled, 1);
    assert!(stats.is_balanced(), "{stats:?}");
}

// ---------------------------------------------------------------------------
// Backpressure through the public API.
// ---------------------------------------------------------------------------

#[test]
fn queue_overflow_is_a_typed_rejection_with_no_side_effects() {
    let service = serial_service();
    let sched = Scheduler::new(
        Arc::clone(&service),
        SchedConfig::default().workers(1).max_depth(0),
    );
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
    assert!(stats.is_balanced(), "{stats:?}");
    assert_eq!(
        stats.service.requests, 0,
        "a rejected submit is not a service request"
    );
    assert_eq!(stats.enqueued_cells, 0);
}

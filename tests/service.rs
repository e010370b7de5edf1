//! Service-layer contract: the cached sweep front end must compute
//! each cell at most once, answer identically at any thread count to
//! a fresh `grid::cell_report` per cell (the reference voltabench
//! replays), and key on the *full* cell — platform and fault variants
//! may never answer each other's requests. Under a modern tuning
//! space every sweep path prices each distinct NCCL tuning decision
//! once and reports exactly what a fresh per-cell simulation does.
//! The paper goldens render byte for byte through the service, cold
//! at every executor and warm from a snapshot, and a random stream of
//! overlapping requests keeps the accounting balanced.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use dgx1_repro::comm::{Ring, TuningSpace};
use dgx1_repro::prelude::*;
use dgx1_repro::topo::Topology;
use proptest::prelude::*;
use voltascope::experiments::timing::TrainingTimeCell;
use voltascope::grid::{cell_report, harness_for, GridOut};

fn cell(workload: Workload, comm: CommMethod, batch: usize, gpus: usize) -> Cell {
    Cell {
        workload: workload.into(),
        comm,
        batch,
        gpus,
        scaling: ScalingMode::Strong,
        platform: Platform::Dgx1,
        fault: FaultScenario::Healthy,
    }
}

/// Every cell of `spec` simulated on its own through the public
/// per-cell entry point, with a fresh harness and nothing shared.
fn fresh_reports(h: &Harness, spec: &GridSpec) -> Vec<EpochReport> {
    spec.cells()
        .iter()
        .map(|cell| {
            let fresh = harness_for(h, cell.platform, cell.fault);
            cell_report(&fresh, &cell.workload.definition(), cell)
        })
        .collect()
}

/// The direct grid path is one fresh `grid::cell_report` per cell.
#[test]
fn service_reports_match_the_direct_grid_path_at_every_thread_count() {
    let h = Harness::paper();
    let spec = GridSpec::paper()
        .workloads([Workload::LeNet])
        .batches([16, 32])
        .gpu_counts([1, 4]);
    let direct = fresh_reports(&h, &spec);
    for threads in [1usize, 2, 8] {
        let service = GridService::with_executor(h.clone(), Executor::Parallel { threads });
        let via_service = service.sweep(&spec);
        assert_eq!(via_service.cells(), spec.cells().as_slice());
        for ((cell, s), d) in via_service.iter().zip(&direct) {
            assert_eq!(s.iterations, d.iterations, "{cell:?}");
            assert_eq!(s.iter_time, d.iter_time, "{cell:?}");
            assert_eq!(s.epoch_time, d.epoch_time, "{cell:?}");
            assert_eq!(s.fp_bp_iter, d.fp_bp_iter, "{cell:?}");
            assert_eq!(s.wu_iter, d.wu_iter, "{cell:?}");
            assert_eq!(s.sync_wall_iter, d.sync_wall_iter, "{cell:?}");
            assert_eq!(s.compute_utilization, d.compute_utilization, "{cell:?}");
            assert_eq!(s.iter_trace.len(), d.iter_trace.len(), "{cell:?}");
        }
    }
}

#[test]
fn rendered_tables_are_byte_identical_through_the_service() {
    let h = Harness::paper();
    let workloads = [Workload::LeNet];
    let spec = experiments::fig3::spec(&workloads);
    // The Fig. 3 rows of fresh per-cell reports, measured by hand.
    let direct: Vec<TrainingTimeCell> = spec
        .cells()
        .iter()
        .zip(fresh_reports(&h, &spec))
        .map(|(c, r)| TrainingTimeCell {
            workload: c.workload,
            comm: c.comm,
            batch: c.batch,
            gpus: c.gpus,
            time: h.measure(r.epoch_time.as_secs_f64(), c.jitter_salt()),
        })
        .collect();
    let direct = experiments::fig3::render(&direct).render();
    for threads in [1usize, 2, 8] {
        let service = GridService::with_executor(h.clone(), Executor::Parallel { threads });
        let via_service =
            experiments::fig3::render(&experiments::fig3::grid(&service, &workloads)).render();
        assert_eq!(direct, via_service, "threads = {threads}");
    }
}

#[test]
fn cache_keys_distinguish_platform_and_fault_variants() {
    let service = GridService::with_executor(Harness::paper(), Executor::Serial);
    let baseline = cell(Workload::AlexNet, CommMethod::Nccl, 16, 8);
    let variants = [
        baseline,
        Cell {
            platform: Platform::PcieOnly,
            ..baseline
        },
        Cell {
            fault: FaultScenario::StragglerGpu,
            ..baseline
        },
        Cell {
            fault: FaultScenario::DeadNvLink,
            ..baseline
        },
    ];
    let reports = service.run_cells(&variants);

    // Four distinct keys: four computations, no cross-variant hits.
    let stats = service.stats();
    assert_eq!(stats.computed, variants.len() as u64);
    assert_eq!(stats.hits, 0);
    assert_eq!(stats.coalesced, 0);

    // And the variants genuinely simulate different systems: every
    // epoch time differs from the baseline's.
    let base_epoch = reports[0].epoch_time;
    for (variant, report) in variants.iter().zip(reports.iter()).skip(1) {
        assert_ne!(
            report.epoch_time, base_epoch,
            "variant {variant:?} must not share the baseline's result"
        );
    }

    // Re-requesting any variant is now a pure cache hit.
    let again = service.run_cells(&variants);
    assert_eq!(service.stats().computed, variants.len() as u64);
    assert_eq!(service.stats().hits, variants.len() as u64);
    for (a, b) in reports.iter().zip(again.iter()) {
        assert!(Arc::ptr_eq(a, b));
    }
}

/// The modern-space fault grid: LeNet and AlexNet x every canned fault
/// scenario x 8 GPUs x NCCL, on a harness whose tuning space is set in
/// code.
fn tuned_fault_grid() -> (Harness, GridSpec) {
    let mut h = Harness::paper();
    h.sys.nccl.tuning = TuningSpace::modern();
    let spec = GridSpec::paper()
        .workloads([Workload::LeNet, Workload::AlexNet])
        .comms([CommMethod::Nccl])
        .batches([32])
        .gpu_counts([8])
        .faults(FaultScenario::EXTENDED);
    (h, spec)
}

/// Every field of two reports must match exactly.
fn assert_same_report(a: &EpochReport, b: &EpochReport, what: &str) {
    assert_eq!(a.iterations, b.iterations, "{what}");
    assert_eq!(a.iter_time, b.iter_time, "{what}");
    assert_eq!(a.epoch_time, b.epoch_time, "{what}");
    assert_eq!(a.fp_bp_iter, b.fp_bp_iter, "{what}");
    assert_eq!(a.wu_iter, b.wu_iter, "{what}");
    assert_eq!(a.api_iter, b.api_iter, "{what}");
    assert_eq!(a.sync_wall_iter, b.sync_wall_iter, "{what}");
    assert_eq!(
        a.compute_utilization.to_bits(),
        b.compute_utilization.to_bits(),
        "{what}"
    );
    assert_eq!(a.iter_trace.events(), b.iter_trace.events(), "{what}");
    assert_eq!(a.critical_chain, b.critical_chain, "{what}");
}

/// Whether two topologies are wired alike, from their public parts
/// (adjacency follows from the devices and links), independently of
/// the comparison the memo uses.
fn wired_alike(a: &Topology, b: &Topology) -> bool {
    a.devices() == b.devices() && a.links() == b.links() && a.gpus_forward() == b.gpus_forward()
}

/// The distinct tuning decisions a sweep of `spec` asks for, counted
/// without the memo: (topology wiring, ring, bytes, collective) over
/// every engine run of every cell. A mid-epoch cell runs its healthy
/// system (twice) and its degraded twin; every run tunes both
/// collectives for each distinct gradient-bucket size. The costs are
/// the base harness's for every run.
fn distinct_tuning_keys(base: &Harness, spec: &GridSpec) -> u64 {
    let mut keys: Vec<(Topology, Ring, u64, bool)> = Vec::new();
    for cell in spec.cells() {
        let harness = harness_for(base, cell.platform, cell.fault);
        let mut systems = vec![harness.sys.clone()];
        if cell.fault.mid_epoch_fraction().is_some() {
            systems.push(harness.sys.with_faults(&cell.fault.spec()));
        }
        let lowered = cell.workload.definition().lowered(cell.batch).unwrap();
        // Unfused buckets: every non-empty layer bucket closes one,
        // empty ones merge into a neighbour without changing its size.
        let mut sizes: BTreeSet<u64> = lowered
            .buckets
            .iter()
            .map(|b| b.bytes)
            .filter(|&b| b > 0)
            .collect();
        if sizes.is_empty() {
            sizes.insert(0);
        }
        for sys in &systems {
            let ring = Ring::build(&sys.topo, cell.gpus);
            for &bytes in &sizes {
                for all_reduce in [true, false] {
                    let seen = keys.iter().any(|(t, r, b, ar)| {
                        wired_alike(t, &sys.topo) && *r == ring && *b == bytes && *ar == all_reduce
                    });
                    if !seen {
                        keys.push((sys.topo.clone(), ring.clone(), bytes, all_reduce));
                    }
                }
            }
        }
    }
    keys.len() as u64
}

#[test]
fn every_sweep_path_prices_each_tuning_decision_once_and_agrees() {
    let (h, spec) = tuned_fault_grid();
    let reference = fresh_reports(&h, &spec);
    let check = |out: &GridOut<Arc<EpochReport>>, path: &str| {
        assert_eq!(out.cells(), spec.cells().as_slice(), "{path}");
        for ((cell, report), want) in out.iter().zip(&reference) {
            assert_same_report(report, want, &format!("{path}: {cell:?}"));
        }
    };

    let keys = distinct_tuning_keys(&h, &spec);
    for round in ["first", "second"] {
        let service = GridService::with_executor(h.clone(), Executor::Serial);
        check(&service.sweep(&spec), &format!("serial service ({round})"));
        let tuner = service.tuner_stats();
        assert_eq!(
            tuner.simulated, keys,
            "{round} fresh service: one simulation per distinct key"
        );
        assert!(
            tuner.lookups > tuner.simulated,
            "{round}: no decision was shared"
        );
    }

    let parallel = GridService::with_executor(h.clone(), Executor::Parallel { threads: 2 });
    check(&parallel.sweep(&spec), "2-thread service");

    // The paper's singleton space returns before the memo.
    let paper = GridService::with_executor(Harness::paper(), Executor::Serial);
    paper.sweep(&experiments::fig3::spec(&Workload::ALL));
    assert_eq!(paper.tuner_stats().lookups, 0);
    assert_eq!(paper.tuner_stats().simulated, 0);
}

// ---------------------------------------------------------------------------
// Paper goldens through the service: the full Fig. 3 grid at every
// executor, the modern-tuning degraded-DGX-1 sweep as a traced sweep,
// and a Fig. 3 snapshot saved by one service and served by another,
// each byte-identical to the file the regeneration binary is diffed
// against.
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
fn the_fig3_golden_is_byte_identical_at_every_executor() {
    let spec = experiments::fig3::spec(&Workload::ALL);
    for exec in [
        Executor::Serial,
        Executor::Parallel { threads: 2 },
        Executor::Parallel { threads: 8 },
    ] {
        let service = GridService::with_executor(Harness::paper(), exec);
        let out = service.sweep(&spec);
        assert!(
            fig3_text(&service, &out) == FIG3_GOLDEN,
            "fig3 drifted from its golden under {exec:?}"
        );
        let stats = service.stats();
        assert_eq!(
            (stats.requests, stats.cells, stats.computed),
            (1, 120, 120),
            "{exec:?}"
        );
    }
}

#[test]
fn the_tuned_degraded_golden_is_byte_identical_through_a_traced_sweep() {
    let mut h = Harness::paper();
    h.sys.nccl.tuning = TuningSpace::modern();
    let service = GridService::with_executor(h, Executor::Parallel { threads: 2 });
    let spec = experiments::faults::spec().workloads(Workload::ALL);
    let rows: Vec<_> = experiments::faults::rows_from(service.sweep_traced(&spec))
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
fn a_saved_fig3_snapshot_warm_starts_another_service() {
    let spec = experiments::fig3::spec(&Workload::ALL);
    let path = std::env::temp_dir().join(format!(
        "voltascope-service-fig3-{}.snap",
        std::process::id()
    ));
    let exec = Executor::Parallel { threads: 2 };

    let cold = GridService::with_executor(Harness::paper(), exec);
    assert!(fig3_text(&cold, &cold.sweep(&spec)) == FIG3_GOLDEN);
    assert_eq!(cold.save(&path).unwrap(), 120);

    let (warm, status) = GridService::with_snapshot(Harness::paper(), exec, &path);
    assert!(
        matches!(status, SnapshotStatus::Loaded { cells: 120 }),
        "{status}"
    );
    assert!(fig3_text(&warm, &warm.sweep(&spec)) == FIG3_GOLDEN);
    let stats = warm.stats();
    assert_eq!(stats.computed, 0, "the warm pass must not recompute");
    assert_eq!(stats.hit_rate(), 1.0);
    assert_eq!(warm.trace_decodes(), 0, "table-only warm pass");
    std::fs::remove_file(&path).unwrap();
}

// ---------------------------------------------------------------------------
// Randomized request stream: random overlapping windows of one cell
// pool, some naming a cell twice, sent one after another. Every touched
// cell is computed exactly once, every requested cell is classified
// exactly once, and each cell is one shared report.
// ---------------------------------------------------------------------------

/// Twelve cheap LeNet cells; stress requests are windows over them.
fn stress_pool() -> Vec<Cell> {
    (8..20)
        .map(|batch| cell(Workload::LeNet, CommMethod::P2p, batch, 1))
        .collect()
}

/// Linear-congruential step with an xor-shift output, the
/// deterministic randomness source.
fn next_rand(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (*state >> 24) ^ *state
}

fn stress_round(seed: u64, exec: Executor) {
    let pool = stress_pool();
    let service = GridService::with_executor(Harness::paper(), exec);

    // 30 requests, each a window of 1-6 consecutive pool cells
    // (wrapping); about 1 in 4 names its first cell again.
    let mut rng = seed;
    let requests: Vec<(Vec<Cell>, Vec<Arc<EpochReport>>)> = (0..30)
        .map(|_| {
            let r = next_rand(&mut rng);
            let start = (r % pool.len() as u64) as usize;
            let len = 1 + (r / 16 % 6) as usize;
            let mut cells: Vec<Cell> = (0..len).map(|k| pool[(start + k) % pool.len()]).collect();
            if (r / 1024).is_multiple_of(4) {
                cells.push(cells[0]);
            }
            let reports = service.run_cells(&cells);
            (cells, reports)
        })
        .collect();

    let mut shared: HashMap<Cell, Arc<EpochReport>> = HashMap::new();
    for (cells, reports) in &requests {
        assert_eq!(reports.len(), cells.len());
        for (cell, report) in cells.iter().zip(reports) {
            let first = shared.entry(*cell).or_insert_with(|| report.clone());
            assert!(Arc::ptr_eq(first, report), "{cell:?} answered twice");
        }
    }
    let stats = service.stats();
    let sent: u64 = requests.iter().map(|(cells, _)| cells.len() as u64).sum();
    assert_eq!(
        stats.computed,
        shared.len() as u64,
        "a cell was computed twice under {exec:?}: {stats:?}"
    );
    assert_eq!(stats.cells, sent, "{stats:?}");
    assert_eq!(stats.requests, 30, "{stats:?}");
    assert_eq!(stats.coalesced, 0, "{stats:?}");
    assert_eq!(
        stats.hits + stats.repeats + stats.computed,
        stats.cells,
        "every requested cell classified exactly once: {stats:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn random_overlapping_requests_keep_the_accounting_balanced(seed in 0u64..1_000_000) {
        for threads in [1usize, 2, 8] {
            stress_round(seed ^ threads as u64, Executor::Parallel { threads });
        }
    }
}

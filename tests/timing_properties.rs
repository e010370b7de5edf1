//! Sanity properties of the timing model, swept across configurations:
//! invariants that must hold for *any* calibration, not just the
//! paper's (these guard the model against regressions during tuning).

use dgx1_repro::prelude::*;

fn report(h: &Harness, batch: usize, gpus: usize, comm: CommMethod) -> EpochReport {
    let model = Workload::LeNet.build();
    h.epoch(&model, batch, gpus, comm, ScalingMode::Strong)
}

#[test]
fn iteration_decomposition_is_exact() {
    let h = Harness::paper();
    for comm in CommMethod::ALL {
        for gpus in [1usize, 2, 4, 8] {
            let r = report(&h, 16, gpus, comm);
            assert_eq!(r.iter_time, r.fp_bp_iter + r.wu_iter, "{comm} g{gpus}");
        }
    }
}

#[test]
fn per_iteration_time_grows_with_batch() {
    let h = Harness::paper();
    for comm in CommMethod::ALL {
        let mut last = None;
        for batch in [16usize, 32, 64] {
            let r = report(&h, batch, 4, comm);
            if let Some(prev) = last {
                assert!(r.iter_time >= prev, "{comm}: iter time fell with batch");
            }
            last = Some(r.iter_time);
        }
    }
}

#[test]
fn epoch_time_falls_with_batch_and_gpus() {
    let h = Harness::paper();
    for comm in CommMethod::ALL {
        let grid: Vec<Vec<f64>> = [16usize, 32, 64]
            .iter()
            .map(|&b| {
                [1usize, 2, 4, 8]
                    .iter()
                    .map(|&g| report(&h, b, g, comm).epoch_time.as_secs_f64())
                    .collect()
            })
            .collect();
        for row in &grid {
            for pair in row.windows(2) {
                assert!(pair[1] < pair[0], "{comm}: more GPUs slower: {row:?}");
            }
        }
        for b in 0..2 {
            for (small, big) in grid[b].iter().zip(&grid[b + 1]) {
                assert!(big < small, "{comm}: bigger batch slower");
            }
        }
    }
}

#[test]
fn shares_and_utilisation_are_fractions() {
    let h = Harness::paper();
    for comm in CommMethod::ALL {
        for gpus in [1usize, 8] {
            let r = report(&h, 32, gpus, comm);
            assert!(r.compute_utilization > 0.0 && r.compute_utilization <= 1.0);
            assert!(r.sync_percent() >= 0.0 && r.sync_percent() <= 100.0);
            assert!(r.wu_iter <= r.iter_time);
            assert!(r.sync_wall_iter <= r.iter_time);
        }
    }
}

#[test]
fn weak_scaling_never_changes_the_iteration() {
    // Weak scaling only multiplies the iteration count.
    let h = Harness::paper();
    let model = Workload::LeNet.build();
    for gpus in [2usize, 8] {
        let strong = h.epoch(&model, 16, gpus, CommMethod::Nccl, ScalingMode::Strong);
        let weak = h.epoch(&model, 16, gpus, CommMethod::Nccl, ScalingMode::Weak);
        assert_eq!(strong.iter_time, weak.iter_time);
        assert_eq!(weak.iterations, strong.iterations * gpus as u64);
    }
}

#[test]
fn trace_category_inventory_is_complete() {
    // Every task category the simulator emits is one the profiler
    // understands (fp/bp/wu*/h2d/api*/marker/setup), and every emitted
    // trace is structurally well-formed.
    let h = Harness::paper();
    for comm in CommMethod::ALL {
        let r = report(&h, 16, 4, comm);
        dgx1_repro::sim::check::assert_trace_invariants(&r.iter_trace);
        for e in r.iter_trace.events() {
            let c = e.category;
            let known = c == "fp"
                || c == "bp"
                || c == "h2d"
                || c == "marker"
                || c == "setup"
                || c.starts_with("wu.")
                || c.starts_with("api.")
                || c.starts_with("setup.");
            assert!(known, "unknown trace category {c:?}");
        }
    }
}

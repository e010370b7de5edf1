//! Determinism and stability: the whole stack must produce identical
//! results across runs — the property that makes the reproduction
//! tables trustworthy.

use dgx1_repro::prelude::*;

#[test]
fn epoch_simulation_is_bit_deterministic() {
    let h = Harness::paper();
    let model = Workload::GoogLeNet.build();
    let a = h.epoch(&model, 16, 4, CommMethod::Nccl, ScalingMode::Strong);
    let b = h.epoch(&model, 16, 4, CommMethod::Nccl, ScalingMode::Strong);
    assert_eq!(a.epoch_time, b.epoch_time);
    assert_eq!(a.iter_time, b.iter_time);
    assert_eq!(a.fp_bp_iter, b.fp_bp_iter);
    assert_eq!(a.wu_iter, b.wu_iter);
    assert_eq!(a.sync_wall_iter, b.sync_wall_iter);
    assert_eq!(a.iter_trace.len(), b.iter_trace.len());
    dgx1_repro::sim::check::assert_trace_invariants(&a.iter_trace);
}

#[test]
fn measurement_protocol_reproduces_exactly() {
    let h = Harness::paper();
    let m1 = h.training_time(Workload::LeNet, 16, 2, CommMethod::P2p, ScalingMode::Strong);
    let m2 = h.training_time(Workload::LeNet, 16, 2, CommMethod::P2p, ScalingMode::Strong);
    assert_eq!(m1, m2);
    assert!(m1.stddev_s > 0.0, "repetition jitter should be visible");
    assert!(m1.stddev_s < 0.1 * m1.mean_s, "jitter should stay small");
}

#[test]
fn model_construction_and_init_are_deterministic() {
    let a = Workload::ResNet.build();
    let b = Workload::ResNet.build();
    assert_eq!(a.param_count(), b.param_count());
    let pa = a.init_params(77);
    let pb = b.init_params(77);
    for (x, y) in pa.iter().zip(pb.iter()) {
        assert_eq!(x.data(), y.data());
    }
    // Different seeds give different weights.
    let pc = a.init_params(78);
    let same = pa.iter().zip(pc.iter()).all(|(x, y)| x.data() == y.data());
    assert!(!same);
}

/// The Fig. 3 rows of `workloads`, swept by a fresh service on `exec`.
fn fig3(workloads: &[Workload], exec: Executor) -> Vec<experiments::timing::TrainingTimeCell> {
    let service = GridService::with_executor(Harness::paper(), exec);
    experiments::fig3::grid(&service, workloads)
}

#[test]
fn fig3_parallel_matches_serial_exactly() {
    // The sweep's core contract: for any thread count, a service on
    // the parallel executor returns the same Measurements, in the same
    // order, as a serial sweep — so the rendered tables are
    // byte-identical too.
    let workloads = [Workload::LeNet, Workload::AlexNet];
    let serial = fig3(&workloads, Executor::Serial);
    let serial_table = experiments::fig3::render(&serial).render();
    for threads in [1, 2, 8] {
        let parallel = fig3(&workloads, Executor::Parallel { threads });
        assert_eq!(serial.len(), parallel.len(), "threads = {threads}");
        for (s, p) in serial.iter().zip(parallel.iter()) {
            assert_eq!(s.workload, p.workload, "threads = {threads}");
            assert_eq!(s.comm, p.comm, "threads = {threads}");
            assert_eq!(s.batch, p.batch, "threads = {threads}");
            assert_eq!(s.gpus, p.gpus, "threads = {threads}");
            assert_eq!(s.time, p.time, "threads = {threads}: Measurement drift");
        }
        assert_eq!(
            serial_table,
            experiments::fig3::render(&parallel).render(),
            "threads = {threads}: rendered table drift"
        );
    }
}

#[test]
fn table4_parallel_matches_serial_exactly() {
    let h = Harness::paper();
    let workloads = [Workload::LeNet, Workload::GoogLeNet];
    let serial = experiments::memory::table4_with(&h, &workloads, Executor::Serial);
    let serial_table = experiments::memory::render(&serial).render();
    for threads in [1, 2, 8] {
        let parallel =
            experiments::memory::table4_with(&h, &workloads, Executor::Parallel { threads });
        assert_eq!(
            serial_table,
            experiments::memory::render(&parallel).render(),
            "threads = {threads}: rendered table drift"
        );
    }
}

#[test]
fn jitter_salt_depends_on_cell_not_execution_order() {
    // Shrinking the grid (or reordering it) must not change any cell's
    // measurement: the jitter salt is a function of the cell key alone.
    let full = fig3(&[Workload::LeNet, Workload::AlexNet], Executor::machine());
    let reduced = fig3(&[Workload::AlexNet], Executor::Serial);
    for r in &reduced {
        let f = full
            .iter()
            .find(|c| {
                c.workload == r.workload
                    && c.comm == r.comm
                    && c.batch == r.batch
                    && c.gpus == r.gpus
            })
            .expect("cell present in superset grid");
        assert_eq!(f.time, r.time);
    }
}

#[test]
fn traces_are_identical_across_runs() {
    let h = Harness::paper();
    let model = Workload::LeNet.build();
    let a = h.epoch(&model, 16, 2, CommMethod::P2p, ScalingMode::Strong);
    let b = h.epoch(&model, 16, 2, CommMethod::P2p, ScalingMode::Strong);
    for (x, y) in a.iter_trace.events().iter().zip(b.iter_trace.events()) {
        assert_eq!(x.label, y.label);
        assert_eq!(x.start, y.start);
        assert_eq!(x.end, y.end);
    }
}

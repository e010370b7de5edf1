//! Extension workload beyond the paper's CNN roster: a GPT-2-small
//! transformer defined purely as data (`workloads/transformer_pp.workload`
//! — no Rust builder exists for it). Part one sweeps it data-parallel
//! through the same cached `GridService` path as the paper figures;
//! part two exercises its pipeline-parallel stage axis with GPipe-style
//! micro-batching, where the fill/drain bubble the paper's synchronous
//! CNNs never see becomes the dominant overhead.
use voltascope::grid::{Cell, FaultScenario, GridSpec, Platform};
use voltascope::workloads;
use voltascope_comm::CommMethod;
use voltascope_profile::TextTable;
use voltascope_train::{simulate_pipeline_epoch, PipelineConfig, ScalingMode, SystemModel};

fn main() {
    let gpt2 = workloads::find_data("GPT2-Small")
        .expect("workloads/transformer_pp.workload is checked in");
    let spec = gpt2.spec();

    // ---- Part 1: data-parallel, through the service path. ----
    let service = voltascope_bench::service();
    let grid = GridSpec::paper()
        .workloads([gpt2])
        .batches([8])
        .gpu_counts([1, 2, 4, 8]);
    let out = service.sweep(&grid);
    let index = out.index();
    let mut dp = TextTable::new(["GPUs", "P2P iter (s)", "NCCL iter (s)", "WU share P2P (%)"]);
    for gpus in [1usize, 2, 4, 8] {
        let report = |comm| {
            index[&Cell {
                workload: gpt2.into(),
                comm,
                batch: 8,
                gpus,
                scaling: ScalingMode::Strong,
                platform: Platform::Dgx1,
                fault: FaultScenario::Healthy,
            }]
        };
        let p2p = report(CommMethod::P2p);
        let nccl = report(CommMethod::Nccl);
        dp.row([
            gpus.to_string(),
            format!("{:.3}", p2p.iter_time.as_secs_f64()),
            format!("{:.3}", nccl.iter_time.as_secs_f64()),
            format!(
                "{:.1}",
                100.0 * p2p.wu_iter.as_secs_f64() / p2p.iter_time.as_secs_f64()
            ),
        ]);
    }
    println!(
        "GPT2-Small from `workloads/transformer_pp.workload` ({} layers, {} pipeline stages), batch 8/GPU:",
        spec.layers.len(),
        spec.pipeline_stages
    );
    voltascope_bench::emit("Extension: transformer data-parallel", &dp);

    // ---- Part 2: the pipeline-parallel stage axis. ----
    let sys = SystemModel::dgx1();
    let mut pp = TextTable::new([
        "Micro-batches",
        "Iter (s)",
        "Bubble (%)",
        "Busiest stage (s)",
    ]);
    for microbatches in [1usize, 2, 4, 8, 16] {
        let cfg = PipelineConfig {
            microbatch: 1,
            microbatches,
        };
        let r = simulate_pipeline_epoch(&sys, spec, &cfg).expect("pipeline simulation");
        let busiest = r
            .stage_busy
            .iter()
            .copied()
            .max()
            .expect("at least one stage");
        pp.row([
            microbatches.to_string(),
            format!("{:.3}", r.iter_time.as_secs_f64()),
            format!("{:.1}", 100.0 * r.bubble_fraction),
            format!("{:.3}", busiest.as_secs_f64()),
        ]);
    }
    println!(
        "GPipe schedule over {} stages, micro-batch 1 (mini-batch = micro-batches):",
        spec.pipeline_stages
    );
    voltascope_bench::emit("Extension: transformer pipeline-parallel", &pp);
    voltascope_bench::save_service(&service);
}

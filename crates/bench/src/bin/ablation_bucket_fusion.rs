//! Gradient-bucket fusion ablation (DESIGN.md SS5): sweep the fusion
//! threshold and watch the per-key-overhead vs pipelining tradeoff —
//! the optimisation later popularised by Horovod/DDP, applied to the
//! paper's platform.
use voltascope::Harness;
use voltascope_comm::tuner::TunerMemo;
use voltascope_comm::CommMethod;
use voltascope_dnn::zoo::Workload;
use voltascope_profile::TextTable;
use voltascope_train::{
    fuse_buckets, DatasetSpec, EpochError, EpochRequest, ScalingMode, TrainConfig,
};
use voltascope_workload::lower_model;

fn main() -> Result<(), EpochError> {
    let h = Harness::paper();
    let tuner = TunerMemo::new();
    let mut table = TextTable::new([
        "Workload",
        "Method",
        "Fusion",
        "Buckets",
        "WU/iter",
        "Epoch (s)",
    ]);
    for workload in [Workload::ResNet, Workload::AlexNet] {
        let lowered = lower_model(&workload.build(), 16)?;
        for comm in CommMethod::ALL {
            for (label, fusion) in [
                ("per-layer", 0u64),
                ("1 MB", 1 << 20),
                ("16 MB", 16 << 20),
                ("single", u64::MAX / 2),
            ] {
                let cfg = TrainConfig {
                    batch_per_gpu: 16,
                    gpu_count: 8,
                    comm,
                    scaling: ScalingMode::Strong,
                    dataset: DatasetSpec::imagenet_256k(),
                    bucket_fusion_bytes: fusion,
                };
                let r = EpochRequest {
                    sys: &h.sys,
                    workload: &lowered,
                    cfg: &cfg,
                    fault: None,
                    tuner: &tuner,
                }
                .run()?;
                table.row([
                    workload.name().to_string(),
                    comm.name().to_string(),
                    label.to_string(),
                    fuse_buckets(&lowered.buckets, fusion)?.len().to_string(),
                    r.wu_iter.to_string(),
                    format!("{:.1}", r.epoch_time.as_secs_f64()),
                ]);
            }
        }
    }
    voltascope_bench::emit(
        "Ablation: gradient-bucket fusion (batch 16, 8 GPUs)",
        &table,
    );
    Ok(())
}

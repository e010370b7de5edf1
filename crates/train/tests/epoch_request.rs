//! `EpochRequest::run` turns every input it cannot simulate into a
//! typed `EpochError`: one regression test per failure class, then a
//! property test drawing random requests — random one-to-three-layer
//! workloads, batches, GPU counts, fusion thresholds, tuning
//! sub-spaces and mid-epoch faults — under which `run` must return,
//! never unwind.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use voltascope_comm::tuner::TunerMemo;
use voltascope_comm::{Algorithm, CommError, CommMethod, Protocol, TuningSpace};
use voltascope_dnn::zoo;
use voltascope_sim::SimError;
use voltascope_topo::{pcie_only, Device, FaultError, FaultSpec};
use voltascope_train::{
    DatasetSpec, EpochError, EpochReport, EpochRequest, MidEpochFault, ScalingMode, SystemModel,
    TrainConfig,
};
use voltascope_workload::{lower, lower_model, LowerError, LoweredWorkload, WorkloadSpec};

fn cfg(batch: usize, gpus: usize, comm: CommMethod) -> TrainConfig {
    TrainConfig {
        batch_per_gpu: batch,
        gpu_count: gpus,
        comm,
        scaling: ScalingMode::Strong,
        dataset: DatasetSpec {
            name: "small".into(),
            images: 1024,
            classes: 10,
        },
        bucket_fusion_bytes: 0,
    }
}

fn run(
    sys: &SystemModel,
    workload: &LoweredWorkload,
    cfg: &TrainConfig,
    fault: Option<&MidEpochFault>,
) -> Result<EpochReport, EpochError> {
    let request = EpochRequest {
        sys,
        workload,
        cfg,
        fault,
        tuner: &TunerMemo::new(),
    };
    request.run()
}

/// A parser-accepted one-`fc`-layer workload with `param_bytes` of
/// weights, lowered at `batch`.
fn one_fc_layer(param_bytes: u64, batch: usize) -> LoweredWorkload {
    let text = format!(
        "workload v1\nname Huge\ninput 4\nlayer fc1 fc 0 160 320 16 40 {param_bytes} 1\nend\n"
    );
    lower(&WorkloadSpec::parse(&text).unwrap(), batch).unwrap()
}

fn lenet(batch: usize) -> LoweredWorkload {
    lower_model(&zoo::lenet(), batch).unwrap()
}

#[test]
fn update_traffic_of_a_quarter_u64_bucket_overflows() {
    let sys = SystemModel::dgx1();
    let workload = one_fc_layer(u64::MAX / 4, 16);
    for gpus in [1, 2] {
        for comm in CommMethod::ALL {
            assert_eq!(
                run(&sys, &workload, &cfg(16, gpus, comm), None).unwrap_err(),
                EpochError::Overflow("weight-update traffic"),
                "{gpus} GPUs, {comm:?}"
            );
        }
    }
}

#[test]
fn extrapolating_an_eighth_u64_bucket_over_imagenet_overflows() {
    let sys = SystemModel::dgx1();
    let workload = one_fc_layer(u64::MAX / 8, 1);
    let imagenet = TrainConfig::strong(1, 1, CommMethod::P2p);
    assert_eq!(
        run(&sys, &workload, &imagenet, None).unwrap_err(),
        EpochError::Overflow("epoch time")
    );
}

#[test]
fn a_weak_scaling_epoch_beyond_u64_images_overflows() {
    let sys = SystemModel::dgx1();
    let mut weak = cfg(16, 2, CommMethod::P2p);
    weak.scaling = ScalingMode::Weak;
    weak.dataset.images = u64::MAX;
    assert_eq!(
        run(&sys, &lenet(16), &weak, None).unwrap_err(),
        EpochError::Overflow("epoch time")
    );
}

#[test]
fn gpu_counts_outside_the_topology_are_rejected() {
    let sys = SystemModel::dgx1();
    for gpus in [0, 9] {
        assert_eq!(
            run(&sys, &lenet(16), &cfg(16, gpus, CommMethod::P2p), None).unwrap_err(),
            EpochError::GpuCount {
                requested: gpus,
                available: 8
            }
        );
    }
}

#[test]
fn a_workload_lowered_for_another_batch_is_rejected() {
    let sys = SystemModel::dgx1();
    assert_eq!(
        run(&sys, &lenet(16), &cfg(32, 2, CommMethod::Nccl), None).unwrap_err(),
        EpochError::BatchMismatch {
            workload: 16,
            config: 32
        }
    );
}

#[test]
fn a_zero_batch_config_is_rejected() {
    let sys = SystemModel::dgx1();
    assert_eq!(
        run(&sys, &lenet(16), &cfg(0, 2, CommMethod::P2p), None).unwrap_err(),
        EpochError::ZeroBatch
    );
}

#[test]
fn an_empty_tuning_space_is_a_comm_error() {
    let mut sys = SystemModel::dgx1();
    sys.nccl.tuning = TuningSpace {
        protocols: vec![],
        ..TuningSpace::modern()
    };
    let err = run(&sys, &lenet(16), &cfg(16, 2, CommMethod::Nccl), None).unwrap_err();
    assert!(
        matches!(err, EpochError::Comm(CommError::EmptyTuningSpace { .. })),
        "{err:?}"
    );
}

#[test]
fn a_fault_on_a_link_the_dgx1_lacks_is_a_fault_error() {
    let sys = SystemModel::dgx1();
    let spec = FaultSpec::new().kill_link(Device::gpu(0), Device::gpu(7));
    let fault = MidEpochFault::new(spec, 0.5);
    let err = run(
        &sys,
        &lenet(16),
        &cfg(16, 8, CommMethod::Nccl),
        Some(&fault),
    )
    .unwrap_err();
    assert!(
        matches!(err, EpochError::Fault(FaultError::MissingLink { .. })),
        "{err:?}"
    );
    assert_eq!(
        err.to_string(),
        "fault kills non-existent link GPU0-GPU7 in topology 'DGX-1V'"
    );
}

#[test]
fn non_finite_or_negative_fault_fractions_are_rejected() {
    let sys = SystemModel::dgx1();
    for at_fraction in [f64::NAN, -1.0, f64::NEG_INFINITY] {
        let fault = MidEpochFault {
            spec: FaultSpec::new().kill_nvlinks_of(Device::gpu(3)),
            at_fraction,
        };
        let err = run(
            &sys,
            &lenet(16),
            &cfg(16, 8, CommMethod::Nccl),
            Some(&fault),
        )
        .unwrap_err();
        assert!(
            matches!(err, EpochError::FaultFraction(x) if x.to_bits() == at_fraction.to_bits()),
            "{err:?}"
        );
    }
}

#[test]
fn hand_built_workloads_that_cannot_lower_to_a_task_graph_are_rejected() {
    let sys = SystemModel::dgx1();
    let c = cfg(16, 2, CommMethod::Nccl);
    let mut no_kernels = lenet(16);
    no_kernels.kernels.clear();
    assert_eq!(
        run(&sys, &no_kernels, &c, None).unwrap_err(),
        EpochError::NoKernels("LeNet".into())
    );

    let mut no_buckets = lenet(16);
    no_buckets.buckets.clear();
    assert_eq!(
        run(&sys, &no_buckets, &c, None).unwrap_err(),
        EpochError::Lower(LowerError::NoParameters("LeNet".into()))
    );

    // Only overlapped communication waits on the producing kernel.
    let mut overlapped = sys.clone();
    overlapped.bp_wu_overlap = true;
    let mut orphan = lenet(16);
    orphan.buckets[0].name = "no-such-layer".into();
    assert_eq!(
        run(&overlapped, &orphan, &c, None).unwrap_err(),
        EpochError::OrphanBucket("bucket0".into())
    );

    let text = "workload v2\nname Fork\ninput 4\n\
                layer a fc 0 160 320 16 40 336 1\n\
                layer b fc 0 160 320 40 40 336 1\n\
                dep b a\n\
                end\n";
    let mut dag = lower(&WorkloadSpec::parse(text).unwrap(), 16).unwrap();
    dag.dag.as_mut().unwrap().preds[1] = vec![5];
    assert_eq!(
        run(&sys, &dag, &c, None).unwrap_err(),
        EpochError::DagMismatch {
            layers: 2,
            kernels: 4
        }
    );
}

#[test]
fn a_fault_cutting_a_gpus_cpu_link_is_a_fault_error() {
    let sys = SystemModel::dgx1();
    let workload = lenet(16);
    let spec = FaultSpec::new().kill_link(Device::gpu(0), Device::cpu(0));
    for comm in CommMethod::ALL {
        for at in [0.0, 0.5] {
            let fault = MidEpochFault::new(spec.clone(), at);
            let err = run(&sys, &workload, &cfg(16, 2, comm), Some(&fault)).unwrap_err();
            assert!(
                matches!(
                    err,
                    EpochError::Fault(FaultError::CutsUplink { gpu, .. }) if gpu == Device::gpu(0)
                ),
                "{comm:?} at {at}: {err:?}"
            );
        }
    }
}

#[test]
fn a_link_degraded_past_the_clock_is_a_sim_overflow() {
    let sys = SystemModel::dgx1();
    let alexnet = lower_model(&zoo::alexnet(), 16).unwrap();
    let spec = FaultSpec::new().degrade_link(Device::gpu(0), Device::gpu(1), 1e-12);
    let err = run(
        &sys.with_faults(&spec),
        &alexnet,
        &cfg(16, 2, CommMethod::P2p),
        None,
    )
    .unwrap_err();
    assert!(
        matches!(&err, EpochError::Sim(SimError::Overflow { task }) if task.starts_with("it")),
        "{err:?}"
    );
    assert!(err.to_string().contains("overflows u64 nanoseconds"));
}

/// A log-uniform draw below `2^bits` (zero when `bits` is zero).
fn below_pow2(bits: u32, r: u64) -> u64 {
    match bits {
        0 => 0,
        b => (1 << (b - 1)) | (r & ((1 << (b - 1)) - 1)),
    }
}

/// A random fault over GPUs 0..=9: each of the low bits of `mask`
/// adds one fault, with devices and factors taken from `r`.
fn fault_spec(mask: u8, r: u64) -> FaultSpec {
    let gpu = |shift: u32| Device::gpu(((r >> shift) % 10) as u8);
    let mut spec = FaultSpec::new();
    if mask & 1 != 0 {
        spec = spec.kill_link(gpu(0), gpu(8));
    }
    if mask & 2 != 0 {
        spec = spec.kill_nvlinks_of(gpu(16));
    }
    if mask & 4 != 0 {
        let factor = [1e-12, 0.25, 0.5, 0.75, 1.0][((r >> 24) % 5) as usize];
        spec = spec.degrade_link(gpu(32), gpu(40), factor);
    }
    if mask & 8 != 0 {
        spec = spec.slow_gpu(gpu(48), 1.0 + ((r >> 56) % 4) as f64);
    }
    spec
}

/// The sub-space of [`TuningSpace::modern`] keeping the entries
/// selected by the bits of `mask`; possibly empty.
fn sub_space(mask: u8) -> TuningSpace {
    let keep = |bit: usize| mask & (1 << bit) != 0;
    TuningSpace {
        algorithms: (Algorithm::ALL.iter().enumerate())
            .filter(|&(i, _)| keep(i))
            .map(|(_, &a)| a)
            .collect(),
        protocols: (Protocol::ALL.iter().enumerate())
            .filter(|&(i, _)| keep(2 + i))
            .map(|(_, &p)| p)
            .collect(),
        channels: [1, 2, 4]
            .into_iter()
            .enumerate()
            .filter(|&(i, _)| keep(5 + i))
            .map(|(_, c)| c)
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn run_returns_for_every_request(
        layers in proptest::collection::vec((0u32..=41, 0u32..=41, 0u32..=31, 0u32..=100, 0u64..u64::MAX), 1..4),
        (batch, other_batch, gpus, comm_bits) in (1usize..=64, 0usize..=64, 0usize..=10, 0u8..16),
        (space, fault_mask, fraction, r) in (0u8..=255, 0u8..32, 0usize..6, 0u64..u64::MAX),
    ) {
        // Parameter bytes are drawn log-uniform, weighted towards the
        // largest, and stay below 2^58 per layer, so 2^60 in total.
        let mut text = String::from("workload v1\nname Random\ninput 3 8 8\n");
        for (i, &(fp, bp, act, params, r)) in layers.iter().enumerate() {
            let (fp, bp) = (below_pow2(fp, r), below_pow2(bp, r >> 8));
            let (act, params) = (below_pow2(act, r >> 16), below_pow2(params.min(58), r >> 24));
            text += &format!("layer l{i} fc 0 {fp} {bp} {act} {act} {params} {}\n", r & 1);
        }
        text += "end\n";
        let spec = WorkloadSpec::parse(&text).unwrap();
        let Ok(workload) = lower(&spec, batch) else {
            return Ok(());
        };
        // Bit 0 of `comm_bits` picks the method, bits 1 and 2 both set
        // (a quarter of the cases) ask for `other_batch`, and bit 3
        // picks the PCIe-only platform.
        let mut sys = if comm_bits & 8 == 0 {
            SystemModel::dgx1()
        } else {
            SystemModel { topo: pcie_only(8), ..SystemModel::dgx1() }
        };
        sys.nccl.tuning = sub_space(space);
        sys.bp_wu_overlap = r & 2 != 0;
        let mut c = cfg(
            if comm_bits & 6 == 6 { other_batch } else { batch },
            gpus,
            CommMethod::ALL[(comm_bits & 1) as usize],
        );
        c.bucket_fusion_bytes = [0, 1 << 20, u64::MAX / 2][(r % 3) as usize];
        let fault = (fault_mask & 16 != 0).then(|| MidEpochFault {
            spec: fault_spec(fault_mask, r),
            at_fraction: [f64::NAN, -1.0, 0.0, 0.5, 1.0, 2.0][fraction],
        });
        let outcome = catch_unwind(AssertUnwindSafe(|| run(&sys, &workload, &c, fault.as_ref())));
        prop_assert!(outcome.is_ok(), "run unwound on {text}{c:?}\n{fault:?}");
    }
}

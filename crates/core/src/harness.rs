//! The experiment harness: configured system + measurement protocol.

use voltascope_comm::tuner::TunerMemo;
use voltascope_comm::CommMethod;
use voltascope_dnn::{zoo::Workload, Model};
use voltascope_sim::{mean_stddev, Jitter};
use voltascope_train::{
    simulate_epoch, simulate_epoch_dynamic_lowered_memo, simulate_epoch_lowered_memo, DatasetSpec,
    EpochReport, MemoryModel, MidEpochFault, ScalingMode, SystemModel, TrainConfig,
};
use voltascope_workload::Definition;

use crate::calibration;

/// A measurement: mean and standard deviation over the repetitions of
/// the paper's protocol (5 runs per configuration, Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Mean over repetitions, in seconds.
    pub mean_s: f64,
    /// Sample standard deviation, in seconds.
    pub stddev_s: f64,
}

/// The configured experiment harness: the calibrated DGX-1 plus the
/// paper's measurement protocol.
///
/// # Example
///
/// ```
/// use voltascope::Harness;
/// use voltascope_comm::CommMethod;
/// use voltascope_dnn::zoo::Workload;
///
/// let harness = Harness::paper();
/// let m = harness.training_time(Workload::LeNet, 64, 4, CommMethod::P2p,
///                               voltascope_train::ScalingMode::Strong);
/// assert!(m.mean_s > 0.0);
/// assert!(m.stddev_s < m.mean_s);
/// ```
#[derive(Debug, Clone)]
pub struct Harness {
    /// The simulated platform.
    pub sys: SystemModel,
    /// The memory model for Table IV.
    pub memory: MemoryModel,
    /// Repetitions per configuration.
    pub reps: u32,
    /// Relative jitter between repetitions.
    pub jitter_sigma: f64,
    /// Jitter seed.
    pub seed: u64,
}

impl Harness {
    /// The paper's calibrated protocol (see [`crate::calibration`]).
    pub fn paper() -> Self {
        Harness {
            sys: calibration::dgx1_system(),
            memory: calibration::memory_model(),
            reps: calibration::REPETITIONS,
            jitter_sigma: calibration::JITTER_SIGMA,
            seed: calibration::SEED,
        }
    }

    /// Simulates one epoch and returns the detailed report (no jitter).
    pub fn epoch(
        &self,
        model: &Model,
        batch: usize,
        gpus: usize,
        comm: CommMethod,
        scaling: ScalingMode,
    ) -> EpochReport {
        simulate_epoch(&self.sys, model, &train_config(batch, gpus, comm, scaling))
    }

    /// Like [`Harness::epoch`] but driven by a workload [`Definition`]:
    /// builder-backed definitions lower from the Rust model (identical
    /// to [`Harness::epoch`] by construction), data-backed ones from
    /// the parsed `.workload` spec.
    ///
    /// # Panics
    ///
    /// Panics with the lowering error's message when the definition
    /// fails validation (empty workload, zero batch, ...), matching
    /// [`simulate_epoch`]'s behaviour for invalid models.
    pub fn epoch_def(
        &self,
        def: &Definition,
        batch: usize,
        gpus: usize,
        comm: CommMethod,
        scaling: ScalingMode,
    ) -> EpochReport {
        let cfg = train_config(batch, gpus, comm, scaling);
        self.epoch_def_with(def, &cfg, None, &TunerMemo::new())
    }

    /// Like [`Harness::epoch_def`] but with `fault` striking partway
    /// through the epoch
    /// ([`voltascope_train::simulate_epoch_dynamic_lowered`]). The
    /// harness's system must be the *healthy* platform: the fault is
    /// lowered to dynamic engine events mid-epoch rather than rewiring
    /// the topology before lowering.
    ///
    /// The steady-state columns of the returned report (`iter_time`,
    /// `iter_trace`, utilisation, ...) describe the **post-fault**
    /// regime — the pace the epoch settles into once NCCL has
    /// renegotiated — while `epoch_time` is the piecewise composition
    /// (healthy head + transition iteration + degraded tail).
    ///
    /// # Panics
    ///
    /// As [`Harness::epoch_def`], plus the fault-spec validation of
    /// `Topology::apply`.
    pub fn epoch_def_dynamic(
        &self,
        def: &Definition,
        batch: usize,
        gpus: usize,
        comm: CommMethod,
        scaling: ScalingMode,
        fault: &MidEpochFault,
    ) -> EpochReport {
        let cfg = train_config(batch, gpus, comm, scaling);
        self.epoch_def_with(def, &cfg, Some(fault), &TunerMemo::new())
    }

    /// The body of [`Harness::epoch_def`] (no `fault`) and
    /// [`Harness::epoch_def_dynamic`], with NCCL tuning decisions
    /// priced through `tuner`.
    pub(crate) fn epoch_def_with(
        &self,
        def: &Definition,
        cfg: &TrainConfig,
        fault: Option<&MidEpochFault>,
        tuner: &TunerMemo,
    ) -> EpochReport {
        let lowered = def
            .lowered(cfg.batch_per_gpu)
            .unwrap_or_else(|e| panic!("{e}"));
        match fault {
            None => simulate_epoch_lowered_memo(&self.sys, &lowered, cfg, tuner),
            Some(fault) => {
                let dynamic =
                    simulate_epoch_dynamic_lowered_memo(&self.sys, &lowered, cfg, fault, tuner);
                EpochReport {
                    epoch_time: dynamic.epoch_time,
                    ..dynamic.degraded
                }
            }
        }
    }

    /// Simulates one epoch with full control over the configuration
    /// (used by the ablation sweeps, e.g. gradient-bucket fusion).
    pub fn epoch_cfg(&self, model: &Model, cfg: &TrainConfig) -> EpochReport {
        simulate_epoch(&self.sys, model, cfg)
    }

    /// Applies the repetition protocol to an epoch time: `reps`
    /// jittered samples, deterministic per configuration.
    pub fn measure(&self, epoch_seconds: f64, config_salt: u64) -> Measurement {
        let mut jitter = Jitter::new(self.seed ^ config_salt, self.jitter_sigma);
        let samples: Vec<f64> = (0..self.reps)
            .map(|_| jitter.perturb(epoch_seconds))
            .collect();
        let (mean_s, stddev_s) = mean_stddev(&samples);
        Measurement { mean_s, stddev_s }
    }

    /// End-to-end: simulate + repetition protocol for one cell of the
    /// Fig. 3 grid.
    pub fn training_time(
        &self,
        workload: Workload,
        batch: usize,
        gpus: usize,
        comm: CommMethod,
        scaling: ScalingMode,
    ) -> Measurement {
        let model = workload.build();
        self.training_time_of(&model, workload, batch, gpus, comm, scaling)
    }

    /// Like [`Harness::training_time`] but reusing a pre-built model
    /// (grids over many cells should build each model once).
    pub fn training_time_of(
        &self,
        model: &Model,
        workload: Workload,
        batch: usize,
        gpus: usize,
        comm: CommMethod,
        scaling: ScalingMode,
    ) -> Measurement {
        let report = self.epoch(model, batch, gpus, comm, scaling);
        let salt = ((workload as u64) << 40)
            | ((batch as u64) << 24)
            | ((gpus as u64) << 16)
            | (comm == CommMethod::Nccl) as u64;
        self.measure(report.epoch_time.as_secs_f64(), salt)
    }
}

/// The paper's ImageNet-256K configuration at one grid point, with
/// MXNet's per-layer gradient buckets.
pub(crate) fn train_config(
    batch: usize,
    gpus: usize,
    comm: CommMethod,
    scaling: ScalingMode,
) -> TrainConfig {
    TrainConfig {
        batch_per_gpu: batch,
        gpu_count: gpus,
        comm,
        scaling,
        dataset: DatasetSpec::imagenet_256k(),
        bucket_fusion_bytes: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_protocol_is_deterministic() {
        let h = Harness::paper();
        let a = h.measure(10.0, 42);
        let b = h.measure(10.0, 42);
        assert_eq!(a, b);
        let c = h.measure(10.0, 43);
        assert_ne!(a, c, "different configs must jitter differently");
    }

    #[test]
    fn jitter_is_small_relative_to_mean() {
        let h = Harness::paper();
        let m = h.measure(100.0, 7);
        assert!((m.mean_s - 100.0).abs() < 5.0);
        assert!(m.stddev_s < 6.0);
    }

    #[test]
    fn harness_runs_an_epoch() {
        let h = Harness::paper();
        let model = Workload::LeNet.build();
        let r = h.epoch(&model, 16, 2, CommMethod::P2p, ScalingMode::Strong);
        assert!(r.iterations > 0);
        assert!(!r.epoch_time.is_zero());
    }
}

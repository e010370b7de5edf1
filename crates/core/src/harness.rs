//! The experiment harness: configured system + measurement protocol.
//! [`Harness::epoch`] is the paper-protocol convenience over
//! [`EpochRequest::run`] that panics where `run` returns an error.

use voltascope_comm::tuner::TunerMemo;
use voltascope_comm::CommMethod;
use voltascope_dnn::{zoo::Workload, Model};
use voltascope_sim::{mean_stddev, Jitter};
use voltascope_train::{
    DatasetSpec, EpochReport, EpochRequest, MemoryModel, ScalingMode, SystemModel, TrainConfig,
};
use voltascope_workload::lower_model;

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
    ///
    /// # Panics
    ///
    /// Panics with the error's message where [`EpochRequest::run`]
    /// returns one (zero batch, more GPUs than the topology has, ...).
    pub fn epoch(
        &self,
        model: &Model,
        batch: usize,
        gpus: usize,
        comm: CommMethod,
        scaling: ScalingMode,
    ) -> EpochReport {
        let run = || {
            EpochRequest {
                sys: &self.sys,
                workload: &lower_model(model, batch)?,
                cfg: &train_config(batch, gpus, comm, scaling),
                fault: None,
                tuner: &TunerMemo::new(),
            }
            .run()
        };
        run().unwrap_or_else(|e| panic!("{e}"))
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

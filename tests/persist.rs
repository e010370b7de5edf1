//! Snapshot-format contract: the on-disk report cache must round-trip
//! exactly (save → load → byte-identical re-save), reject every broken,
//! stale or retired-layout file with a typed error instead of
//! panicking, and make a warm-started `GridService` indistinguishable
//! from a cold one.

use std::sync::Arc;

use dgx1_repro::prelude::persist::{decode, encode, PersistError};
use dgx1_repro::prelude::*;
use dgx1_repro::sim::{SimSpan, SimTime, TaskId, Trace, TraceEvent};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Deterministically derives a structurally varied cell from a seed.
fn arb_cell(seed: u64) -> Cell {
    const WORKLOADS: [Workload; 5] = [
        Workload::LeNet,
        Workload::AlexNet,
        Workload::GoogLeNet,
        Workload::InceptionV3,
        Workload::ResNet,
    ];
    const PLATFORMS: [Platform; 5] = [
        Platform::Dgx1,
        Platform::SingleLane,
        Platform::PcieOnly,
        Platform::NvSwitch,
        Platform::ForwardingGpus,
    ];
    const FAULTS: [FaultScenario; 4] = [
        FaultScenario::Healthy,
        FaultScenario::DeadNvLink,
        FaultScenario::StragglerGpu,
        FaultScenario::TwoStragglers,
    ];
    Cell {
        workload: WORKLOADS[(seed % 5) as usize].into(),
        comm: if seed.is_multiple_of(2) {
            CommMethod::P2p
        } else {
            CommMethod::Nccl
        },
        batch: 1 + (seed % 97) as usize,
        gpus: 1 + (seed % 8) as usize,
        scaling: if seed.is_multiple_of(3) {
            ScalingMode::Weak
        } else {
            ScalingMode::Strong
        },
        platform: PLATFORMS[(seed / 5 % 5) as usize],
        fault: FAULTS[(seed / 7 % 4) as usize],
    }
}

/// A synthetic report exercising every encoded field, including
/// resource-less trace events and non-round `f64` bit patterns.
fn arb_report(seed: u64) -> Arc<EpochReport> {
    let mut api_iter = BTreeMap::new();
    for k in 0..(seed % 4) {
        api_iter.insert(
            format!("api.cat{k}"),
            SimSpan::from_nanos(seed.wrapping_mul(31).wrapping_add(k)),
        );
    }
    let labels: Vec<String> = (0..(seed % 5))
        .map(|i| format!("it1/k{seed}.{i}"))
        .collect();
    let iter_trace = (0..(seed % 5))
        .map(|i| {
            let start = seed.wrapping_add(17 * i) % 1_000_000;
            TraceEvent {
                task: TaskId::from_index((seed.wrapping_add(i) % 1024) as usize),
                label: &labels[i as usize],
                category: ["fp", "wu", "comm"][(i % 3) as usize],
                resource: (i.is_multiple_of(2)).then_some(GPU_COMPUTE[(i % 8) as usize]),
                start: SimTime::from_nanos(start),
                end: SimTime::from_nanos(start + seed % 5_000),
            }
        })
        .collect();
    Arc::new(EpochReport {
        iterations: 1 + seed % 4096,
        iter_time: SimSpan::from_nanos(seed.wrapping_mul(0x9e37_79b9)),
        epoch_time: SimSpan::from_nanos(seed.wrapping_mul(0x85eb_ca6b)),
        fp_bp_iter: SimSpan::from_nanos(seed / 3),
        wu_iter: SimSpan::from_nanos(seed / 5 + 1),
        api_iter,
        sync_wall_iter: SimSpan::from_nanos(seed / 7),
        compute_utilization: (seed % 1000) as f64 / 997.0,
        iter_trace,
        critical_chain: (0..(seed % 4))
            .map(|i| format!("chain{seed}.{i}"))
            .collect(),
    })
}

/// Distinct-cell entry set of `n` entries derived from `seed`.
fn arb_entries(seed: u64, n: usize) -> Vec<(Cell, Arc<EpochReport>)> {
    let mut entries: Vec<(Cell, Arc<EpochReport>)> = Vec::new();
    let mut s = seed;
    while entries.len() < n {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let cell = arb_cell(s);
        if entries.iter().all(|(c, _)| *c != cell) {
            entries.push((cell, arb_report(s)));
        }
    }
    entries
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// save → load → re-save is byte-identical, and any permutation of
    /// the same entries encodes to the same canonical bytes.
    #[test]
    fn roundtrip_is_byte_identical_and_canonical(seed in 0u64..10_000, n in 0usize..12) {
        let fp = seed ^ 0xfeed;
        let entries = arb_entries(seed, n);
        let bytes = encode(fp, &entries);

        let decoded = decode(&bytes, fp).expect("valid snapshot must decode");
        prop_assert_eq!(decoded.len(), entries.len());
        prop_assert_eq!(encode(fp, &decoded), bytes.clone(), "re-save drifted");

        let mut reversed = entries.clone();
        reversed.reverse();
        prop_assert_eq!(encode(fp, &reversed), bytes, "encoding not canonical");
    }

    /// Every decoded field equals what was saved — including `f64` bit
    /// patterns and the full trace.
    #[test]
    fn every_field_survives_the_roundtrip(seed in 0u64..10_000) {
        let entries = arb_entries(seed, 4);
        let decoded = decode(&encode(7, &entries), 7).unwrap();
        prop_assert_eq!(decoded.len(), entries.len());
        // decode returns canonical (sorted) order; match by cell key.
        for (c0, r0) in &entries {
            let (_, r1) = decoded
                .iter()
                .find(|(c1, _)| c1 == c0)
                .expect("every saved cell must be decoded");
            prop_assert_eq!(r0.iterations, r1.iterations);
            prop_assert_eq!(r0.iter_time, r1.iter_time);
            prop_assert_eq!(r0.epoch_time, r1.epoch_time);
            prop_assert_eq!(r0.fp_bp_iter, r1.fp_bp_iter);
            prop_assert_eq!(r0.wu_iter, r1.wu_iter);
            prop_assert_eq!(&r0.api_iter, &r1.api_iter);
            prop_assert_eq!(r0.sync_wall_iter, r1.sync_wall_iter);
            prop_assert_eq!(
                r0.compute_utilization.to_bits(),
                r1.compute_utilization.to_bits()
            );
            prop_assert_eq!(r0.iter_trace.events(), r1.iter_trace.events());
        }
    }

    /// Truncating a valid snapshot anywhere yields a typed error,
    /// never a panic and never a silently shorter cache.
    #[test]
    fn truncations_are_rejected(seed in 0u64..10_000, frac in 0.0f64..1.0) {
        let bytes = encode(3, &arb_entries(seed, 3));
        let cut = ((bytes.len() as f64) * frac) as usize;
        prop_assert!(cut < bytes.len());
        prop_assert!(decode(&bytes[..cut], 3).is_err(), "cut at {} accepted", cut);
    }

    /// Flipping any single byte of a valid snapshot is detected: the
    /// header fields are each individually validated and the payload
    /// is checksummed.
    #[test]
    fn single_byte_corruption_is_rejected(seed in 0u64..10_000, pos in 0usize..4096) {
        let mut bytes = encode(11, &arb_entries(seed, 2));
        let pos = pos % bytes.len();
        bytes[pos] ^= 0x5a;
        prop_assert!(decode(&bytes, 11).is_err(), "flip at {} accepted", pos);
    }
}

/// Start values sitting on every LEB128 varint width boundary, plus
/// the top of the clock (deltas near `u64::MAX` wrap).
const START_BOUNDARIES: [u64; 9] = [
    0,
    1,
    127,
    128,
    16_383,
    16_384,
    2_097_151,
    2_097_152,
    u64::MAX - 5_000,
];

/// Durations covering zero-length markers, sub-µs kernels, and varint
/// width boundaries.
const DURATIONS: [u64; 6] = [0, 1, 127, 128, 300, 16_384];

/// Compute-stream resource names, per GPU.
const GPU_COMPUTE: [&str; 8] = [
    "GPU0.compute",
    "GPU1.compute",
    "GPU2.compute",
    "GPU3.compute",
    "GPU4.compute",
    "GPU5.compute",
    "GPU6.compute",
    "GPU7.compute",
];

/// Builds a report whose scalars come from `arb_report` but whose
/// trace is exactly `trace`.
fn report_with_trace(seed: u64, trace: Trace) -> Arc<EpochReport> {
    let mut report = (*arb_report(seed)).clone();
    report.iter_trace = trace;
    Arc::new(report)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// v5 compact trace blocks round-trip through every encoding edge:
    /// empty traces, single events, duplicate labels (interning),
    /// `u64::MAX`-adjacent spans, zero-duration markers, and start
    /// deltas straddling every varint width boundary — and the lazy
    /// decode path yields exactly what the eager one does, with
    /// re-save byte-identity throughout.
    #[test]
    fn v5_trace_blocks_roundtrip_through_edge_cases(
        seed in 0u64..10_000,
        specs in proptest::collection::vec(
            (0usize..9, 0u64..5_000, 0usize..6, 0usize..3, proptest::bool::ANY),
            0..12
        ),
    ) {
        let events: Trace = specs
            .iter()
            .enumerate()
            .map(|(i, &(b, off, d, lab, res))| {
                let start = START_BOUNDARIES[b].saturating_add(off);
                TraceEvent {
                    task: TaskId::from_index(i),
                    // Small label space forces duplicate interning.
                    label: ["kernel0", "kernel1", "kernel2"][lab],
                    category: ["fp", "wu", "comm"][lab],
                    resource: res.then_some(GPU_COMPUTE[lab]),
                    start: SimTime::from_nanos(start),
                    end: SimTime::from_nanos(start.saturating_add(DURATIONS[d])),
                }
            })
            .collect();
        let fp = seed ^ 0xabcd;
        let entries = vec![(arb_cell(seed), report_with_trace(seed, events.clone()))];
        let bytes = encode(fp, &entries);

        // Eager decode reproduces the events and re-saves identically.
        let decoded = decode(&bytes, fp).expect("edge-case snapshot must decode");
        prop_assert_eq!(decoded[0].1.iter_trace.events(), events.events());
        prop_assert_eq!(encode(fp, &decoded), bytes.clone(), "re-save drifted");

        // Lazy decode agrees with eager, event for event.
        let image: Arc<[u8]> = bytes.clone().into();
        let lazy = persist::decode_entries_lazy(&image, fp).expect("lazy decode");
        prop_assert_eq!(lazy.len(), 1);
        prop_assert!(
            lazy[0].1.iter_trace.events().is_empty(),
            "lazy report must not carry decoded events"
        );
        let block = &lazy[0].2;
        prop_assert_eq!(block.decode().expect("block decodes"), events);
        // Decoding is deterministic.
        prop_assert_eq!(block.decode().unwrap(), block.decode().unwrap());

        // Copying the still-encoded block through a re-save
        // (TraceOut::Raw) is byte-identical to re-encoding.
        let raw_entries: Vec<(Cell, Arc<EpochReport>, persist::TraceOut)> = lazy
            .iter()
            .map(|(c, r, b)| (*c, r.clone(), persist::TraceOut::Raw(b.clone())))
            .collect();
        prop_assert_eq!(
            persist::encode_with_traces(fp, &raw_entries),
            bytes,
            "raw copy-through drifted from the original image"
        );
    }
}

#[test]
fn stale_files_fail_with_the_right_typed_error() {
    let entries = arb_entries(42, 2);
    let good = encode(1, &entries);

    let mut wrong_version = good.clone();
    wrong_version[8] = wrong_version[8].wrapping_add(3);
    assert!(matches!(
        decode(&wrong_version, 1),
        Err(PersistError::UnsupportedVersion { .. })
    ));

    assert!(matches!(
        decode(&good, 2),
        Err(PersistError::FingerprintMismatch {
            expected: 2,
            found: 1
        })
    ));

    let mut not_a_snapshot = good;
    not_a_snapshot[0] = b'X';
    assert!(matches!(
        decode(&not_a_snapshot, 1),
        Err(PersistError::BadMagic)
    ));
}

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

#[test]
fn warm_service_is_equivalent_to_cold_over_a_mixed_stream() {
    let path = std::env::temp_dir().join(format!(
        "voltascope-persist-equiv-{}.snap",
        std::process::id()
    ));
    let stream = demo_stream();

    let cold = GridService::with_executor(Harness::paper(), Executor::Serial);
    let cold_outs: Vec<_> = stream.iter().map(|s| cold.sweep(s)).collect();
    let cold_stats = cold.stats();
    assert_eq!(cold_stats.cells, 72, "the demo stream is 72 cells");
    let saved = cold.save(&path).unwrap();
    assert_eq!(saved as u64, cold_stats.computed);

    let (warm, status) = GridService::with_snapshot(Harness::paper(), Executor::Serial, &path);
    assert!(matches!(status, SnapshotStatus::Loaded { .. }), "{status}");
    let warm_outs: Vec<_> = stream.iter().map(|s| warm.sweep(s)).collect();

    // Same cells, field-identical scalars, zero recomputation. The
    // table-only (non-traced) sweeps serve lazy entries without
    // decoding a single trace event.
    for (c_out, w_out) in cold_outs.iter().zip(warm_outs.iter()) {
        assert_eq!(c_out.cells(), w_out.cells());
        for ((cell, c), (_, w)) in c_out.iter().zip(w_out.iter()) {
            assert_eq!(c.iterations, w.iterations, "{cell:?}");
            assert_eq!(c.iter_time, w.iter_time, "{cell:?}");
            assert_eq!(c.epoch_time, w.epoch_time, "{cell:?}");
            assert_eq!(c.fp_bp_iter, w.fp_bp_iter, "{cell:?}");
            assert_eq!(c.wu_iter, w.wu_iter, "{cell:?}");
            assert_eq!(c.sync_wall_iter, w.sync_wall_iter, "{cell:?}");
            assert_eq!(c.api_iter, w.api_iter, "{cell:?}");
            assert_eq!(
                c.compute_utilization.to_bits(),
                w.compute_utilization.to_bits(),
                "{cell:?}"
            );
            assert!(
                w.iter_trace.events().is_empty(),
                "{cell:?}: non-traced warm serve must stay lazy"
            );
        }
    }
    let warm_stats = warm.stats();
    assert_eq!(warm_stats.computed, 0, "warm pass must not recompute");
    assert!(
        warm_stats.hit_rate() >= 0.95,
        "warm hit rate {:.3} below the acceptance bar",
        warm_stats.hit_rate()
    );
    assert_eq!(
        warm.trace_decodes(),
        0,
        "table-only sweeps must not decode any trace block"
    );

    // Re-saving the untouched warm cache reproduces the same bytes:
    // undecoded lazy blocks are copied through verbatim.
    let resaved = path.with_extension("snap2");
    warm.save(&resaved).unwrap();
    assert_eq!(
        std::fs::read(&path).unwrap(),
        std::fs::read(&resaved).unwrap(),
        "warm re-save must be byte-identical"
    );

    // Trace consumers get the full cold traces back via lazy decode —
    // still without recomputing anything.
    for c_out in &cold_outs {
        let cells: Vec<Cell> = c_out.cells().to_vec();
        let traced = warm.run_cells_traced(&cells, true);
        for ((cell, c), w) in c_out.iter().zip(traced.iter()) {
            assert_eq!(c.iter_trace.events(), w.iter_trace.events(), "{cell:?}");
        }
    }
    assert_eq!(
        warm.stats().computed,
        0,
        "traced requests decode lazily, never recompute"
    );
    assert!(warm.trace_decodes() > 0, "traced requests decode");

    // Re-saving after decoding is byte-identical too: a decoded entry
    // re-encodes to exactly its original canonical block.
    let resaved_decoded = path.with_extension("snap3");
    warm.save(&resaved_decoded).unwrap();
    assert_eq!(
        std::fs::read(&path).unwrap(),
        std::fs::read(&resaved_decoded).unwrap(),
        "post-decode re-save must be byte-identical"
    );
    std::fs::remove_file(&path).unwrap();
    std::fs::remove_file(&resaved).unwrap();
    std::fs::remove_file(&resaved_decoded).unwrap();
}

/// FNV-1a, the snapshot header's payload checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The layout older builds wrote for a *slim* entry: trace tag `0` and
/// no trace block. Built from a one-entry `encode` image by splicing
/// out the entry's length-prefixed block, which ends the payload, and
/// refreshing the header's payload length and checksum — so only the
/// structural check can reject it.
fn retired_slim_image(fp: u64, cell: Cell, report: Arc<EpochReport>) -> Vec<u8> {
    let full = encode(fp, &[(cell, report)]);
    let image: Arc<[u8]> = full.clone().into();
    let block_len = persist::decode_entries_lazy(&image, fp).unwrap()[0]
        .2
        .encoded_len();
    let tag_pos = full.len() - block_len - 5;
    assert_eq!(full[tag_pos], 1, "full entries carry trace tag 1");
    let mut slim = full[..=tag_pos].to_vec();
    slim[tag_pos] = 0;
    let payload_len = (slim.len() - 44) as u64;
    slim[28..36].copy_from_slice(&payload_len.to_le_bytes());
    let checksum = fnv1a(&slim[44..]);
    slim[36..44].copy_from_slice(&checksum.to_le_bytes());
    slim
}

#[test]
fn retired_slim_entries_are_rejected_and_recomputed() {
    let cell = Cell {
        workload: Workload::LeNet.into(),
        comm: CommMethod::P2p,
        batch: 16,
        gpus: 2,
        scaling: ScalingMode::Strong,
        platform: Platform::Dgx1,
        fault: FaultScenario::Healthy,
    };
    let h = Harness::paper();
    let fp = persist::harness_fingerprint(&h);
    let cold = GridService::with_executor(h.clone(), Executor::Serial);
    let cold_report = cold.run_cells(&[cell]).remove(0);
    let slim = retired_slim_image(fp, cell, cold_report.clone());

    assert!(matches!(
        decode(&slim, fp),
        Err(PersistError::Corrupted("unknown trace tag"))
    ));

    // A warm start rejects the file as a whole and caches nothing...
    let path = std::env::temp_dir().join(format!(
        "voltascope-persist-retired-slim-{}.snap",
        std::process::id()
    ));
    std::fs::write(&path, &slim).unwrap();
    let (warm, status) = GridService::with_snapshot(h, Executor::Serial, &path);
    assert!(
        matches!(
            status,
            SnapshotStatus::Rejected(PersistError::Corrupted("unknown trace tag"))
        ),
        "{status}"
    );
    assert_eq!(warm.cached_cells(), 0);

    // ...so even a table-only request recomputes the cell, and gets
    // exactly the cold report back, trace included.
    let again = warm.run_cells(&[cell]).remove(0);
    assert_eq!(warm.stats().computed, 1);
    assert_eq!(
        encode(0, &[(cell, again)]),
        encode(0, &[(cell, cold_report)])
    );
    std::fs::remove_file(&path).unwrap();
}

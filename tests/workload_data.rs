//! "Workloads as data" integration suite: the checked-in `.workload`
//! files must stay byte-identical to their Rust builders, the lowered
//! data path must reproduce the builder path's `EpochReport`s across
//! the full Fig. 3 grid at every executor, the text format must
//! round-trip exactly, and every malformed input must come back as a
//! typed error naming the offending line.

use std::collections::BTreeMap;
use std::sync::Arc;

use dgx1_repro::prelude::*;
use proptest::prelude::*;
use voltascope::grid::GridOut;
use voltascope::workloads::{self, WorkloadSel};
use voltascope_train::EpochReport as Report;
use voltascope_workload::{LayerSpec, ParseErrorKind, WorkloadSpec, KNOWN_KINDS};

/// The zoo roster with the stable file stems `export_workloads` uses.
fn zoo_exports() -> Vec<(&'static str, Model)> {
    vec![
        ("lenet", zoo::lenet()),
        ("alexnet", zoo::alexnet()),
        ("googlenet", zoo::googlenet()),
        ("resnet", zoo::resnet50()),
        ("inception_v3", zoo::inception_v3()),
        ("vgg16", zoo::vgg16()),
    ]
}

#[test]
fn zoo_workload_files_match_builder_exports_byte_for_byte() {
    let dir = workloads::workload_dir();
    for (stem, model) in zoo_exports() {
        let path = dir.join(format!("{stem}.workload"));
        let on_disk = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: {e}; run export_workloads", path.display()));
        let spec = WorkloadSpec::from_model(&model);
        assert_eq!(on_disk, spec.to_text(), "{stem}.workload drifted");
        assert_eq!(WorkloadSpec::parse(&on_disk).unwrap(), spec, "{stem}");
    }
}

/// Flattens a report grid into a workload-name-keyed map so grids over
/// zoo selectors and data selectors (different `Cell` keys, same
/// physics) can be compared cell-for-cell via their `Debug` output.
fn keyed(out: &GridOut<Arc<Report>>) -> BTreeMap<(String, &'static str, usize, usize), String> {
    out.iter()
        .map(|(cell, report)| {
            (
                (
                    cell.workload.name().to_string(),
                    cell.comm.name(),
                    cell.batch,
                    cell.gpus,
                ),
                format!("{report:?}"),
            )
        })
        .collect()
}

#[test]
fn data_path_reports_match_builders_across_fig3_grid_at_1_2_8_threads() {
    let h = Harness::paper();
    let data_sels: Vec<WorkloadSel> = Workload::ALL
        .iter()
        .map(|w| {
            workloads::find_data(w.name())
                .unwrap_or_else(|| panic!("{} missing from workloads/", w.name()))
                .into()
        })
        .collect();
    let sweep = |spec: &GridSpec, exec| GridService::with_executor(h.clone(), exec).sweep(spec);
    let builder_ref = keyed(&sweep(&GridSpec::paper(), Executor::Serial));
    assert_eq!(builder_ref.len(), 120, "full fig3 grid");
    for exec in [
        Executor::Serial,
        Executor::Parallel { threads: 2 },
        Executor::Parallel { threads: 8 },
    ] {
        let spec = GridSpec::paper().workloads(data_sels.clone());
        let data = keyed(&sweep(&spec, exec));
        assert_eq!(data, builder_ref, "data path diverged under {exec:?}");
    }
}

/// A generator over valid specs: arbitrary dims, stage axis, and layer
/// rows (names synthesised by index, so uniqueness holds; stages
/// reduced modulo the axis, so they are always in range).
fn arb_spec() -> impl Strategy<Value = WorkloadSpec> {
    let layer = (
        (0usize..KNOWN_KINDS.len(), 0usize..8, proptest::bool::ANY),
        (1u64..1_000_000_000, 1u64..1_000_000_000),
        (0u64..100_000_000, 0u64..100_000_000, 0u64..1_000_000_000),
    );
    (
        0u64..1_000_000,
        1usize..7,
        proptest::collection::vec(1usize..257, 1..5),
        proptest::collection::vec(layer, 1..13),
    )
        .prop_map(|(name_seed, stages, input_dims, rows)| WorkloadSpec {
            version: 1,
            name: format!("Gen-{name_seed}"),
            input_dims,
            pipeline_stages: stages,
            layers: rows
                .into_iter()
                .enumerate()
                .map(
                    |(i, ((kind, stage, tc), (fp, bp), (inb, outb, pb)))| LayerSpec {
                        name: format!("l{i}"),
                        kind: KNOWN_KINDS[kind].to_string(),
                        stage: stage % stages,
                        fp_flops: fp,
                        bp_flops: bp,
                        in_bytes: inb,
                        out_bytes: outb,
                        param_bytes: pb,
                        tensor_cores: tc,
                        deps: None,
                    },
                )
                .collect(),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn parse_reserialize_parse_round_trips_exactly(spec in arb_spec()) {
        let text = spec.to_text();
        let parsed = match WorkloadSpec::parse(&text) {
            Ok(p) => p,
            Err(e) => return Err(TestCaseError::fail(format!("canonical text rejected: {e}"))),
        };
        prop_assert_eq!(&parsed, &spec);
        // Canonical text is a fixed point of parse → to_text.
        prop_assert_eq!(parsed.to_text(), text);
    }

    #[test]
    fn comments_and_blank_lines_do_not_change_the_parse(spec in arb_spec()) {
        let canonical = spec.to_text();
        let mut noisy = String::from("# leading comment\n\n");
        for line in canonical.lines() {
            noisy.push_str(line);
            noisy.push_str("\n# interleaved comment\n\n");
        }
        let parsed = match WorkloadSpec::parse(&noisy) {
            Ok(p) => p,
            Err(e) => return Err(TestCaseError::fail(format!("noisy text rejected: {e}"))),
        };
        prop_assert_eq!(parsed, spec);
    }
}

#[test]
fn parser_errors_name_the_offending_line() {
    // Truncated file: `end` never arrives.
    let e = WorkloadSpec::parse("workload v1\nname T\ninput 4\n").unwrap_err();
    assert_eq!(e.kind, ParseErrorKind::Truncated);
    assert_eq!(e.line, 4);

    // Unknown layer kind, pointing at the kind token's column.
    let e =
        WorkloadSpec::parse("workload v1\nname T\ninput 4\nlayer a softmax 0 1 1 1 1 4 0\nend\n")
            .unwrap_err();
    assert_eq!(e.kind, ParseErrorKind::UnknownLayerKind("softmax".into()));
    assert_eq!((e.line, e.column), (4, 9));

    // Duplicate layer name, pointing at the second declaration.
    let e = WorkloadSpec::parse(
        "workload v1\nname T\ninput 4\nlayer a fc 0 1 1 1 1 4 0\nlayer a fc 0 1 1 1 1 4 0\nend\n",
    )
    .unwrap_err();
    assert_eq!(e.kind, ParseErrorKind::DuplicateLayer("a".into()));
    assert_eq!(e.line, 5);

    // Pipeline stage beyond the declared axis.
    let e = WorkloadSpec::parse(
        "workload v1\nname T\ninput 4\naxis pipeline 2\nlayer a fc 5 1 1 1 1 4 0\nend\n",
    )
    .unwrap_err();
    assert_eq!(
        e.kind,
        ParseErrorKind::StageOutOfRange {
            stage: 5,
            stages: 2
        }
    );
    assert_eq!(e.line, 5);

    // Every error Display names its line for the CI log.
    assert!(e.to_string().starts_with("line 5, "));
}

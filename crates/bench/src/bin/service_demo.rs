//! Demonstrates the caching sweep service (`voltascope::service`):
//! replays a mixed stream of overlapping sweep requests — the kind an
//! interactive exploration session produces — and reports, per
//! request, how many cells were answered from cache versus computed.
//!
//! The request stream is fixed and the service answers each request in
//! full before the next one, so the printed table is deterministic for
//! any `VOLTASCOPE_THREADS` setting: the thread count changes which
//! worker computes a cell, never whether the cell is a hit.
use voltascope::grid::GridSpec;
use voltascope::service::GridService;
use voltascope::Harness;
use voltascope_comm::CommMethod;
use voltascope_dnn::zoo::Workload;
use voltascope_profile::TextTable;

fn main() {
    // Deliberately NOT wired to `VOLTASCOPE_CACHE`: the printed
    // per-request hit/computed accounting *is* this demo's output, and
    // a warm-started cache would turn every row into a hit and change
    // the pinned golden. The cold in-memory stream is the artefact.
    let service = GridService::new(Harness::paper());
    // A plausible exploration session: start narrow, widen the batch
    // axis, revisit, then pivot to another workload that shares the
    // communication sweep.
    let stream: Vec<(&str, GridSpec)> = vec![
        (
            "lenet b16, all gpus",
            GridSpec::paper().workloads([Workload::LeNet]).batches([16]),
        ),
        (
            "lenet all batches",
            GridSpec::paper().workloads([Workload::LeNet]),
        ),
        (
            "lenet b16 again",
            GridSpec::paper().workloads([Workload::LeNet]).batches([16]),
        ),
        (
            "lenet nccl only",
            GridSpec::paper()
                .workloads([Workload::LeNet])
                .comms([CommMethod::Nccl]),
        ),
        (
            "alexnet b16, 1-2 gpus",
            GridSpec::paper()
                .workloads([Workload::AlexNet])
                .batches([16])
                .gpu_counts([1, 2]),
        ),
        (
            "lenet + alexnet b16",
            GridSpec::paper()
                .workloads([Workload::LeNet, Workload::AlexNet])
                .batches([16]),
        ),
    ];

    let mut table = TextTable::new([
        "Request",
        "Cells",
        "Hits",
        "Computed",
        "Cumulative hit rate",
    ]);
    let mut prev = service.stats();
    for (name, spec) in &stream {
        let out = service.sweep(spec);
        let now = service.stats();
        table.row([
            name.to_string(),
            out.len().to_string(),
            (now.hits - prev.hits).to_string(),
            (now.computed - prev.computed).to_string(),
            format!("{:.1}%", 100.0 * now.hit_rate()),
        ]);
        prev = now;
    }
    let stats = service.stats();
    table.row([
        "TOTAL".to_string(),
        stats.cells.to_string(),
        stats.hits.to_string(),
        stats.computed.to_string(),
        format!("{:.1}%", 100.0 * stats.hit_rate()),
    ]);
    voltascope_bench::emit("Grid service: cached sweep request stream", &table);
}

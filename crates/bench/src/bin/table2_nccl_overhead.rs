//! Regenerates Table II: NCCL overhead relative to P2P on one GPU.
//! The sweep is issued through the caching `GridService`; set
//! `VOLTASCOPE_CACHE` to warm-start from (and re-save) a snapshot.
use voltascope::experiments::table2;

fn main() {
    let service = voltascope_bench::service();
    let rows = table2::rows(&service, &voltascope_bench::workloads());
    voltascope_bench::emit(
        "Table II: NCCL overhead vs P2P, single GPU",
        &table2::render(&rows),
    );
    voltascope_bench::save_service(&service);
}

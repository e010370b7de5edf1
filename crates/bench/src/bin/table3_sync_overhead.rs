//! Regenerates Table III: cudaStreamSynchronize time share for LeNet.
//! The sweep is issued through the caching `GridService`; set
//! `VOLTASCOPE_CACHE` to warm-start from (and re-save) a snapshot.
use voltascope::experiments::table3;

fn main() {
    let service = voltascope_bench::service();
    let rows = table3::rows(&service);
    voltascope_bench::emit(
        "Table III: cudaStreamSynchronize share, LeNet",
        &table3::render(&rows),
    );
    voltascope_bench::save_service(&service);
}

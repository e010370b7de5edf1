//! Regenerates Fig. 5: weak-scaling vs strong-scaling training time
//! (256K images per GPU under weak scaling). The sweep is issued
//! through the caching `GridService`; set `VOLTASCOPE_CACHE` to
//! warm-start from (and re-save) an on-disk snapshot.
use voltascope::experiments::fig5;

fn main() {
    let service = voltascope_bench::service();
    let cells = fig5::grid(&service, &voltascope_bench::workloads());
    voltascope_bench::emit("Fig. 5: Weak vs strong scaling", &fig5::render(&cells));
    voltascope_bench::save_service(&service);
}

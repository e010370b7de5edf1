//! # voltascope-bench — paper table/figure regeneration binaries
//!
//! One binary per artefact of the paper's evaluation section (see
//! DESIGN.md §3 for the index). Each binary prints the corresponding
//! table to stdout; pass `--csv` to emit CSV instead. Criterion
//! micro-benchmarks of the simulator itself live under `benches/`.
//!
//! ```text
//! cargo run --release -p voltascope-bench --bin table1
//! cargo run --release -p voltascope-bench --bin fig3_training_time
//! ...
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use voltascope::grid::Executor;
use voltascope::service::GridService;
use voltascope::Harness;
use voltascope_profile::TextTable;

/// Environment variable naming the snapshot file the sweep binaries
/// warm-start from and re-save to. Unset → plain in-memory service.
pub const CACHE_ENV: &str = "VOLTASCOPE_CACHE";

/// The [`CACHE_ENV`] snapshot path, if set and non-empty.
fn cache_path() -> Option<String> {
    std::env::var(CACHE_ENV)
        .ok()
        .filter(|path| !path.is_empty())
}

/// Builds the [`GridService`] a regeneration binary issues its sweeps
/// through. With `VOLTASCOPE_CACHE=<path>` set, the service warm-starts
/// from that snapshot (load-or-empty: a missing, stale, or corrupt file
/// just means a cold start) and the binary should call [`save_service`]
/// before exiting to persist what it computed. Status goes to stderr so
/// the golden stdout tables stay byte-identical either way.
pub fn service() -> GridService {
    let base = Harness::paper();
    match cache_path() {
        Some(path) => {
            let (service, status) = GridService::with_snapshot(base, Executor::from_env(), &path);
            eprintln!("voltascope-bench: cache {path}: {status}");
            service
        }
        None => GridService::new(base),
    }
}

/// Re-saves the service's cache to the `VOLTASCOPE_CACHE` snapshot (a
/// no-op when the variable is unset) and reports the request-stream
/// hit rate plus the lazy trace-decode count on stderr (a warm
/// table-only run reports `trace decodes 0` — CI asserts it). Call
/// once, after the last sweep.
pub fn save_service(service: &GridService) {
    let Some(path) = cache_path() else {
        return;
    };
    let stats = service.stats();
    match service.save(&path) {
        Ok(cells) => eprintln!(
            "voltascope-bench: saved {cells} cells to {path} (request hit rate {:.1}%, trace decodes {})",
            stats.hit_rate() * 100.0,
            service.trace_decodes()
        ),
        Err(e) => eprintln!("voltascope-bench: failed to save cache {path}: {e}"),
    }
}

/// Prints `table` under `title`, as CSV when `--csv` was passed.
pub fn emit(title: &str, table: &TextTable) {
    if std::env::args().any(|a| a == "--csv") {
        print!("{}", table.to_csv());
    } else {
        println!("== {title} ==");
        println!("{}", table.render());
    }
}

/// Restricts a full workload sweep when `--quick` was passed (LeNet
/// only, for CI-speed smoke runs).
pub fn workloads() -> Vec<voltascope_dnn::zoo::Workload> {
    if std::env::args().any(|a| a == "--quick") {
        vec![voltascope_dnn::zoo::Workload::LeNet]
    } else {
        voltascope_dnn::zoo::Workload::ALL.to_vec()
    }
}

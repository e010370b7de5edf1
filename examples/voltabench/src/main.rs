//! # voltabench
//!
//! End-to-end and per-layer host-time benchmark of the voltascope DGX-1
//! simulator. One command runs a workload for a fixed time, checks
//! every output it produces against checked-in expectations, prints
//! every metric by name with its unit, and ends with one JSON line:
//!
//! ```text
//! cargo run --release --manifest-path examples/voltabench/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--json PATH]
//! cargo run --release --manifest-path examples/voltabench/Cargo.toml -- \
//!     compare A.json... -- B.json...
//! ```
//!
//! See README.md for the workloads, the metrics and how to compare two
//! builds.

mod check;
mod compare;
mod json;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;

use check::{Expected, Ops};
use stats::{fastest, median, percentile, stream_seed, tail_percentile};
use trace::Tracer;
use workloads::Pass;

/// The end-to-end metrics, measured with tracing off.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("request_ms_p50", "ms"),
    ("request_ms_p90", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// The traced run's extra metric: traced against untraced pass time.
const TRACE_OVERHEAD: (&str, &str) = ("trace.overhead_pct", "%");

/// Set-up is repeated at least this often and for at least
/// `SETUP_SECONDS`, so a set-up of a few milliseconds is timed over
/// many repetitions; the median is reported and the last one measured.
const SETUP_REPEATS: usize = 3;
const SETUP_SECONDS: f64 = 1.0;

/// Untraced passes a run makes before it may stop, so that every step
/// and request has this many samples to take the fastest of.
const MIN_PASSES: usize = 3;

struct Opts {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    json: Option<PathBuf>,
    write_expected: bool,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workloads: workloads::NAMES.to_vec(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        json: None,
        write_expected: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--write-expected" {
            opts.write_expected = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let name = workloads::NAMES
                    .iter()
                    .find(|n| *n == value)
                    .ok_or_else(|| {
                        format!(
                            "unknown workload `{value}`; one of {}",
                            workloads::NAMES.join(", ")
                        )
                    })?;
                opts.workloads = vec![name];
            }
            "--seed" => opts.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds {value}: not a duration"))?
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            "--json" => opts.json = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(opts)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        _ => parse_opts(&args).and_then(|opts| run(&opts)),
    };
    if let Err(e) = result {
        eprintln!("voltabench: {e}");
        std::process::exit(2);
    }
}

fn run(opts: &Opts) -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a build with debug assertions; use --release".into());
    }
    let removed = strip_environment();
    print_environment(opts, &removed);
    for name in &opts.workloads {
        run_workload(name, opts)?;
    }
    Ok(())
}

/// Removes every `VOLTASCOPE_*` variable, so executor, tuning space and
/// workload source are the ones the workloads set in code.
fn strip_environment() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("VOLTASCOPE_"))
        .collect();
    for name in &names {
        std::env::remove_var(name);
    }
    names
}

fn print_environment(opts: &Opts, removed: &[String]) {
    let read = |path: &str| fs::read_to_string(path).unwrap_or_default();
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "env nproc={nproc} cpu=\"{cpu}\" kernel={}",
        read("/proc/sys/kernel/osrelease").trim()
    );
    println!(
        "env rustc=\"{}\" head={}",
        env!("VOLTABENCH_RUSTC"),
        git_head()
    );
    println!(
        "env seed={} seconds={} trace={} executor=serial removed_env=[{}]",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        removed.join(",")
    );
}

/// The commit the benchmark was built from, read from the repository's
/// `.git` directory when there is one.
fn git_head() -> String {
    let git = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../.git");
    let read = |p: PathBuf| fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    match read(git.join("HEAD")) {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(git.join(r))
                .or_else(|| {
                    read(git.join("packed-refs"))?
                        .lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split(' ').next().map(str::to_string))
                })
                .unwrap_or_else(|| "unknown".to_string()),
            None => head,
        },
        None => "unknown".to_string(),
    }
}

/// Resets the kernel's peak-RSS mark so the next reading covers one
/// pass; false where `/proc/self/clear_refs` refuses.
fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

fn peak_rss_mib() -> Result<f64, String> {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "cannot read VmHWM from /proc/self/status".to_string())
}

fn run_workload(name: &'static str, opts: &Opts) -> Result<(), String> {
    let mut setups: Vec<f64> = Vec::new();
    let mut bench = None;
    while setups.len() < SETUP_REPEATS || setups.iter().sum::<f64>() < SETUP_SECONDS {
        drop(bench.take());
        let start = Instant::now();
        let expected = if opts.write_expected {
            Expected::recording()
        } else {
            Expected::parse(workloads::expected_text(name))
                .map_err(|e| format!("{name} expected outputs: {e}"))?
        };
        bench = Some(workloads::setup(name, expected)?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("at least one set-up");

    let mut t = Tracer::new();
    let mut ops = Ops::default();
    let mut requests: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    // Host time of each untraced pass outside its operations, in ms.
    let mut rest_ms = Vec::new();
    let mut rss_mib = Vec::new();
    let mut rss_reset = true;
    let start = Instant::now();
    for index in 0u32.. {
        // A traced run alternates untraced and traced passes, so the
        // two sides of the tracing overhead see the same conditions.
        let tracing = opts.trace && index % 2 == 1;
        t.set_enabled(tracing);
        let seed = stream_seed(opts.seed, u64::from(index));
        rss_reset &= reset_peak_rss();
        ops.start_pass();
        let pass_start = Instant::now();
        bench.pass(&mut Pass::new(index, seed, &mut t, &mut ops, &mut requests));
        let secs = pass_start.elapsed().as_secs_f64();
        if tracing {
            traced.push(secs);
        } else {
            untraced.push(secs);
            rest_ms.push(secs * 1e3 - ops.pass_ms());
            rss_mib.push(peak_rss_mib()?);
        }
        let enough = if opts.trace {
            !traced.is_empty()
        } else {
            untraced.len() >= MIN_PASSES
        };
        if opts.write_expected || (enough && start.elapsed().as_secs_f64() >= opts.seconds) {
            break;
        }
    }

    if opts.write_expected {
        let path = workloads::expected_path(name);
        fs::write(&path, bench.expected().render())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if opts.trace {
        let layers = t.layer_metrics();
        for (name, unit) in trace::PER_LAYER {
            metrics.push((name, layers[name], unit));
        }
        let (on, off) = (median(&traced), median(&untraced));
        metrics.push((TRACE_OVERHEAD.0, 100.0 * (on - off) / off, TRACE_OVERHEAD.1));
        let dir = workloads::work_dir();
        let path = dir.join(format!("spans-{name}-seed{}.json", opts.seed));
        fs::create_dir_all(&dir)
            .and_then(|()| fs::write(&path, t.to_json()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "{name}: {} spans written to {}",
            t.spans().len(),
            path.display()
        );
    } else {
        // A pass takes the sum of its steps' fastest times, and a
        // request mix is the spread of its requests' fastest latencies.
        let pass_ms = ops.times.values().map(|v| fastest(v)).sum::<f64>() + fastest(&rest_ms);
        let mut request_ms: Vec<f64> = requests.values().map(|v| fastest(v)).collect();
        // Every request failing leaves no latency; the run then reports
        // zero latency and `correct: false`.
        if request_ms.is_empty() {
            request_ms.push(0.0);
        }
        for (metric, unit) in END_TO_END {
            let value = match metric {
                "setup_s" => median(&setups),
                "pass_s" => pass_ms / 1e3,
                "request_ms_p50" => percentile(&request_ms, 50),
                "request_ms_p90" => percentile(&request_ms, 90),
                "peak_rss_mib" => rss_mib.iter().copied().fold(0.0, f64::max),
                _ => unreachable!("END_TO_END lists {metric} without a measurement"),
            };
            metrics.push((metric, value, unit));
        }
    }
    drop(bench);

    let samples: Vec<f64> = requests.values().flatten().copied().collect();
    println!(
        "{name}: {} untraced + {} traced passes in {:.1} s, median pass {:.4} s, \
         {} requests, {} request samples{}",
        untraced.len(),
        traced.len(),
        start.elapsed().as_secs_f64(),
        median(&untraced),
        requests.len(),
        samples.len(),
        tail_percentile(samples.len())
            .map(|p| format!(
                ", over all samples p50 = {:.4} ms and p{p} = {:.4} ms, \
                 the highest percentile with 10 beyond",
                percentile(&samples, 50),
                percentile(&samples, p)
            ))
            .unwrap_or_default()
    );
    if !rss_reset {
        println!("{name}: peak RSS could not be reset per pass and covers the whole process");
    }
    for note in &ops.notes {
        println!("{name}: FAILED {note}");
    }
    for (metric, value, unit) in &metrics {
        println!("{name}: {metric} = {value} {unit}");
    }
    let line = result_line(&ops, &metrics);
    if let Some(path) = &opts.json {
        let record = format!(
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, {}",
            json::quote(name),
            opts.seed,
            u8::from(opts.trace),
            &line[1..]
        );
        fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{record}"))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{line}");
    Ok(())
}

/// The one-line JSON result.
fn result_line(ops: &Ops, metrics: &[(&str, f64, &str)]) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(name),
                json::number(*value),
                json::quote(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.failed == 0 && ops.attempted > 0,
        ops.attempted,
        ops.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metrics this program reports are the ones `BENCHMARK.json`
    /// declares, with the same units.
    #[test]
    fn benchmark_json_declares_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).unwrap();
        let declared: Vec<(String, String)> = compare::metric_specs(&text)
            .unwrap()
            .into_iter()
            .map(|m| (m.name, m.unit))
            .collect();
        let reported: Vec<(String, String)> = END_TO_END
            .iter()
            .chain(trace::PER_LAYER.iter())
            .chain([&TRACE_OVERHEAD])
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared, reported);
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(json::Value::as_array)
            .unwrap()
            .iter()
            .filter_map(|w| w.get("name").and_then(json::Value::as_str))
            .collect();
        assert_eq!(names, workloads::NAMES);
    }

    #[test]
    fn result_line_is_valid_json_with_the_contract_keys() {
        let mut ops = Ops::default();
        ops.attempted = 3;
        ops.failed = 1;
        let line = result_line(&ops, &[("pass_s", 1.25, "s")]);
        let v = json::parse(&line).unwrap();
        let keys: Vec<&String> = v.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&json::Value::Bool(false)));
        let pass = v.get("metrics").and_then(|m| m.get("pass_s")).unwrap();
        assert_eq!(pass.get("value").and_then(json::Value::as_f64), Some(1.25));
    }
}

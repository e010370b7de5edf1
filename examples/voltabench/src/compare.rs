//! `voltabench compare A.json… -- B.json…`: sets two sets of saved
//! results side by side and judges every (metric, workload) pair by
//! the bounds and directions in `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;

use crate::json::{self, Value};
use crate::stats::{median, quartiles};

/// What `BENCHMARK.json` says about one metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the baseline median by which the metric may worsen;
    /// per-layer metrics have none.
    pub bound: Option<f64>,
}

/// Reads the end-to-end and per-layer metric lists of `BENCHMARK.json`.
pub fn metric_specs(text: &str) -> Result<Vec<MetricSpec>, String> {
    let doc = json::parse(text)?;
    let mut out = Vec::new();
    for list in ["end_to_end", "per_layer"] {
        let items = doc
            .get(list)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("BENCHMARK.json has no `{list}` list"))?;
        for m in items {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("a `{list}` metric has no `{k}`"))
            };
            let better = field("better")?;
            if better != "lower" && better != "higher" {
                return Err(format!("`better` must be lower or higher, not {better}"));
            }
            out.push(MetricSpec {
                name: field("name")?.to_string(),
                unit: field("unit")?.to_string(),
                lower_is_better: better == "lower",
                bound: m.get("bound").and_then(Value::as_f64),
            });
        }
    }
    Ok(out)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    NoWorse,
    Regressed,
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Improved => "improved",
            Verdict::NoWorse => "no worse",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// Judges the change `b` against the baseline `a` (runs in the order
/// they were made, so `a[i]` and `b[i]` form a pair).
///
/// Improved: `b` wins at least nine tenths of the pairs and the medians
/// differ by more than the baseline's quartile spread. Regressed: the
/// median worsened by more than the bound. Unresolved: the baseline's
/// own spread is wider than the bound, unless every run of `b` beats
/// every run of `a`. Without a bound only the win rule, applied either
/// way, can decide.
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: Option<f64>) -> Verdict {
    // Orient every value so that smaller is better.
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let a: Vec<f64> = a.iter().map(|v| v * sign).collect();
    let b: Vec<f64> = b.iter().map(|v| v * sign).collect();
    let (ma, mb) = (median(&a), median(&b));
    let (q1, q3) = quartiles(&a);
    let spread = q3 - q1;
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(&b).filter(|(x, y)| y < x).count();
    let losses = a.iter().zip(&b).filter(|(x, y)| y > x).count();
    if pairs > 0 && wins * 10 >= pairs * 9 && ma - mb > spread {
        return Verdict::Improved;
    }
    match bound {
        Some(bound) => {
            let every_run_better = b.iter().all(|y| a.iter().all(|x| y < x));
            if mb - ma > bound * ma.abs() {
                Verdict::Regressed
            } else if spread > bound * ma.abs() && !every_run_better {
                Verdict::Unresolved
            } else {
                Verdict::NoWorse
            }
        }
        None if pairs > 0 && losses * 10 >= pairs * 9 && mb - ma > spread => Verdict::Regressed,
        None => Verdict::Unresolved,
    }
}

/// Values by (workload, metric), in file and line order.
type Samples = BTreeMap<(String, String), Vec<f64>>;

/// Reads result records (one JSON object per line, as `--json` writes
/// them) from `paths`.
fn load(paths: &[String]) -> Result<Samples, String> {
    let mut out = Samples::new();
    for path in paths {
        let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        for (n, line) in text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
        {
            let record = json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
            let workload = record
                .get("workload")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("{path}:{}: no workload", n + 1))?;
            let metrics = record
                .get("metrics")
                .and_then(Value::as_object)
                .ok_or_else(|| format!("{path}:{}: no metrics", n + 1))?;
            for (name, m) in metrics {
                let value = m
                    .get("value")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("{path}:{}: {name} has no value", n + 1))?;
                out.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(out)
}

/// Runs the subcommand on its arguments (everything after `compare`).
pub fn main(args: &[String]) -> Result<(), String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("usage: voltabench compare A.json... -- B.json...")?;
    let (a_paths, b_paths) = (&args[..split], &args[split + 1..]);
    if a_paths.is_empty() || b_paths.is_empty() {
        return Err("both sides need at least one results file".to_string());
    }
    let bench = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let specs = metric_specs(&fs::read_to_string(bench).map_err(|e| format!("{bench}: {e}"))?)?;
    let (a, b) = (load(a_paths)?, load(b_paths)?);
    println!(
        "{:<14} {:<24} {:>5} {:>34} {:>34}  verdict",
        "workload", "metric", "n", "A median [q1, q3]", "B median [q1, q3]"
    );
    for ((workload, name), av) in &a {
        let (Some(bv), Some(spec)) = (
            b.get(&(workload.clone(), name.clone())),
            specs.iter().find(|s| &s.name == name),
        ) else {
            continue;
        };
        let side = |v: &[f64]| {
            let (q1, q3) = quartiles(v);
            format!("{:.6} [{q1:.6}, {q3:.6}]", median(v))
        };
        println!(
            "{workload:<14} {:<24} {:>5} {:>34} {:>34}  {}",
            format!("{name} ({})", spec.unit),
            format!("{}/{}", av.len(), bv.len()),
            side(av),
            side(bv),
            verdict(av, bv, spec.lower_is_better, spec.bound)
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(base: f64, steps: &[f64]) -> Vec<f64> {
        steps.iter().map(|s| base + s).collect()
    }

    const JITTER: [f64; 10] = [0.0, 0.1, -0.1, 0.2, -0.2, 0.05, -0.05, 0.15, -0.15, 0.0];

    #[test]
    fn verdicts_on_synthetic_runs() {
        let a = runs(10.0, &JITTER);
        // A clear 20% speed-up wins every pair.
        assert_eq!(
            verdict(&a, &runs(8.0, &JITTER), true, Some(0.1)),
            Verdict::Improved
        );
        // The same numbers read as a 20% loss when higher is better.
        assert_eq!(
            verdict(&a, &runs(8.0, &JITTER), false, Some(0.1)),
            Verdict::Regressed
        );
        // Within the bound and the noise.
        assert_eq!(
            verdict(&a, &runs(10.1, &JITTER), true, Some(0.1)),
            Verdict::NoWorse
        );
        // 15% worse against a 10% bound.
        assert_eq!(
            verdict(&a, &runs(11.5, &JITTER), true, Some(0.1)),
            Verdict::Regressed
        );
        // A baseline noisier than the bound cannot vouch for "no worse".
        let noisy = runs(
            10.0,
            &[0.0, 3.0, -3.0, 2.0, -2.0, 1.0, -1.0, 2.5, -2.5, 0.0],
        );
        assert_eq!(
            verdict(&noisy, &runs(10.2, &JITTER), true, Some(0.1)),
            Verdict::Unresolved
        );
        // Without a bound only a decisive win or loss resolves.
        assert_eq!(
            verdict(&a, &runs(10.0, &JITTER), true, None),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&a, &runs(12.0, &JITTER), true, None),
            Verdict::Regressed
        );
    }

    #[test]
    fn reads_metric_specs() {
        let text = r#"{"end_to_end": [{"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.1}],
                       "per_layer": [{"name": "service.hit_rate", "unit": "ratio", "better": "higher"}]}"#;
        let specs = metric_specs(text).unwrap();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].bound, Some(0.1));
        assert!(!specs[1].lower_is_better);
        assert_eq!(specs[1].bound, None);
        assert!(metric_specs(r#"{"end_to_end": []}"#).is_err());
    }
}

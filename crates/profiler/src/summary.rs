//! nvprof-style trace aggregation.

use std::collections::BTreeMap;
use std::fmt;

use voltascope_sim::{SimSpan, Trace};

/// One aggregated row of a profile: a category with its total time,
/// call count, and share of its section.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileLine {
    /// Category name (e.g. `"fp"`, `"api.cudaStreamSynchronize"`).
    pub category: String,
    /// Share of the section's total time, in percent.
    pub percent: f64,
    /// Total time across calls.
    pub total: SimSpan,
    /// Number of calls.
    pub calls: u64,
    /// Average time per call.
    pub average: SimSpan,
}

/// An nvprof-style summary: "GPU activities" (kernels and transfers)
/// and "API calls" (host runtime), each sorted by descending time.
///
/// # Example
///
/// ```
/// use voltascope_sim::{Engine, SimSpan, TaskGraph};
/// use voltascope_profile::ProfileSummary;
///
/// let mut g = TaskGraph::new();
/// let gpu = g.add_resource("gpu", 1);
/// g.task("k1").on(gpu).lasting(SimSpan::from_micros(90)).category("fp").build();
/// g.task("s").lasting(SimSpan::from_micros(10)).category("api.cudaStreamSynchronize").build();
/// let trace = Engine::new().run(&g).unwrap().trace(&g, ..);
/// let summary = ProfileSummary::from_trace(&trace);
/// assert_eq!(summary.gpu_activities()[0].category, "fp");
/// assert_eq!(summary.api_calls()[0].calls, 1);
/// ```
#[derive(Debug, Clone)]
pub struct ProfileSummary {
    gpu: Vec<ProfileLine>,
    api: Vec<ProfileLine>,
}

impl ProfileSummary {
    /// Aggregates a trace. Categories starting with `api.` become API
    /// rows; `marker` and `setup` events are skipped; everything else
    /// is a GPU activity.
    pub fn from_trace(trace: &Trace) -> Self {
        let mut gpu: BTreeMap<&str, (SimSpan, u64)> = BTreeMap::new();
        let mut api: BTreeMap<&str, (SimSpan, u64)> = BTreeMap::new();
        for e in trace.events() {
            if e.category == "marker" || e.category == "setup" || e.category.is_empty() {
                continue;
            }
            let slot = if e.category.starts_with("api.") {
                api.entry(e.category).or_insert((SimSpan::ZERO, 0))
            } else {
                gpu.entry(e.category).or_insert((SimSpan::ZERO, 0))
            };
            slot.0 += e.duration();
            slot.1 += 1;
        }
        ProfileSummary {
            gpu: section(gpu),
            api: section(api),
        }
    }

    /// Kernel/transfer rows, sorted by descending total time.
    pub fn gpu_activities(&self) -> &[ProfileLine] {
        &self.gpu
    }

    /// Host API rows, sorted by descending total time.
    pub fn api_calls(&self) -> &[ProfileLine] {
        &self.api
    }

    /// The share (in percent of total API time) of the named call —
    /// Table III queries this for `cudaStreamSynchronize`.
    pub fn api_percent(&self, name: &str) -> f64 {
        self.api
            .iter()
            .find(|l| l.category == name)
            .map(|l| l.percent)
            .unwrap_or(0.0)
    }
}

impl ProfileSummary {
    /// Converts the summary into a [`TextTable`](crate::TextTable)
    /// (one section column distinguishing GPU activities from API
    /// calls) for CSV export.
    pub fn to_table(&self) -> crate::TextTable {
        let mut table =
            crate::TextTable::new(["Section", "Name", "Time (%)", "Time", "Calls", "Avg"]);
        for (section, lines) in [("GPU activities", &self.gpu), ("API calls", &self.api)] {
            for l in lines {
                table.row([
                    section.to_string(),
                    l.category.clone(),
                    format!("{:.2}", l.percent),
                    l.total.to_string(),
                    l.calls.to_string(),
                    l.average.to_string(),
                ]);
            }
        }
        table
    }
}

fn section(map: BTreeMap<&str, (SimSpan, u64)>) -> Vec<ProfileLine> {
    let total: SimSpan = map.values().map(|(t, _)| *t).sum();
    let mut lines: Vec<ProfileLine> = map
        .into_iter()
        .map(|(category, (time, calls))| ProfileLine {
            category: category.to_string(),
            percent: 100.0 * time.ratio(total),
            total: time,
            calls,
            average: if calls == 0 {
                SimSpan::ZERO
            } else {
                time / calls
            },
        })
        .collect();
    lines.sort_by(|a, b| b.total.cmp(&a.total).then(a.category.cmp(&b.category)));
    lines
}

impl fmt::Display for ProfileSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "==== Profiling result (simulated nvprof) ====")?;
        writeln!(f, "GPU activities:")?;
        writeln!(
            f,
            "  {:>7}  {:>12}  {:>8}  {:>12}  Name",
            "Time(%)", "Time", "Calls", "Avg"
        )?;
        for l in &self.gpu {
            writeln!(
                f,
                "  {:>6.2}%  {:>12}  {:>8}  {:>12}  {}",
                l.percent,
                l.total.to_string(),
                l.calls,
                l.average.to_string(),
                l.category
            )?;
        }
        writeln!(f, "API calls:")?;
        for l in &self.api {
            writeln!(
                f,
                "  {:>6.2}%  {:>12}  {:>8}  {:>12}  {}",
                l.percent,
                l.total.to_string(),
                l.calls,
                l.average.to_string(),
                l.category
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voltascope_sim::{SimTime, TaskId, TraceEvent};

    fn ev(cat: &str, start: u64, end: u64) -> TraceEvent<'_> {
        TraceEvent {
            task: TaskId::from_index(0),
            label: "x",
            category: cat,
            resource: None,
            start: SimTime::from_nanos(start),
            end: SimTime::from_nanos(end),
        }
    }

    fn trace<const N: usize>(events: [TraceEvent<'_>; N]) -> Trace {
        events.into_iter().collect()
    }

    #[test]
    fn sections_split_and_sort() {
        let trace = trace([
            ev("fp", 0, 100),
            ev("bp", 0, 300),
            ev("api.cudaLaunchKernel", 0, 10),
            ev("api.cudaStreamSynchronize", 0, 30),
            ev("marker", 0, 999),
        ]);
        let s = ProfileSummary::from_trace(&trace);
        assert_eq!(s.gpu_activities().len(), 2);
        assert_eq!(s.gpu_activities()[0].category, "bp");
        assert_eq!(s.api_calls()[0].category, "api.cudaStreamSynchronize");
        assert!((s.api_calls()[0].percent - 75.0).abs() < 1e-9);
        assert_eq!(
            s.api_percent("api.cudaStreamSynchronize"),
            s.api_calls()[0].percent
        );
        assert_eq!(s.api_percent("api.nonexistent"), 0.0);
    }

    #[test]
    fn percentages_sum_to_hundred_per_section() {
        let trace = trace([ev("fp", 0, 123), ev("bp", 0, 456), ev("wu.update", 0, 78)]);
        let s = ProfileSummary::from_trace(&trace);
        let sum: f64 = s.gpu_activities().iter().map(|l| l.percent).sum();
        assert!((sum - 100.0).abs() < 1e-9);
    }

    #[test]
    fn call_counts_and_averages() {
        let trace = trace([ev("fp", 0, 10), ev("fp", 10, 30)]);
        let s = ProfileSummary::from_trace(&trace);
        let line = &s.gpu_activities()[0];
        assert_eq!(line.calls, 2);
        assert_eq!(line.total, SimSpan::from_nanos(30));
        assert_eq!(line.average, SimSpan::from_nanos(15));
    }

    #[test]
    fn display_includes_both_sections() {
        let trace = trace([ev("fp", 0, 10), ev("api.cudaMalloc", 0, 5)]);
        let text = ProfileSummary::from_trace(&trace).to_string();
        assert!(text.contains("GPU activities:"));
        assert!(text.contains("API calls:"));
        assert!(text.contains("api.cudaMalloc"));
    }

    #[test]
    fn to_table_covers_both_sections() {
        let trace = trace([ev("fp", 0, 10), ev("api.cudaMalloc", 0, 5)]);
        let table = ProfileSummary::from_trace(&trace).to_table();
        assert_eq!(table.len(), 2);
        let csv = table.to_csv();
        assert!(csv.contains("GPU activities,fp"));
        assert!(csv.contains("API calls,api.cudaMalloc"));
    }

    #[test]
    fn empty_trace_is_fine() {
        let s = ProfileSummary::from_trace(&Trace::default());
        assert!(s.gpu_activities().is_empty());
        assert!(s.api_calls().is_empty());
    }
}

//! In-memory spans and counters for the traced run, and their
//! reduction to per-layer metrics.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; nothing inside the program is
//! instrumented. Every span carries the request it belongs to (pass
//! and request index), so per-request quantities such as the service's
//! overhead over the simulation it wraps can be paired up.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json;
use crate::stats::median;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub pass: u32,
    pub request: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A count recorded where the work happens.
#[derive(Debug, Clone, PartialEq)]
pub struct Counter {
    pub name: &'static str,
    pub pass: u32,
    pub value: f64,
}

/// The span and counter recorder. While disabled every call is a
/// branch and nothing is stored.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    pass: u32,
    request: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: Vec<Counter>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            enabled: false,
            pass: 0,
            request: 0,
            spans: Vec::new(),
            open: Vec::new(),
            counters: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Tags the spans and counters that follow with a request id.
    pub fn set_request(&mut self, pass: u32, request: u32) {
        self.pass = pass;
        self.request = request;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            pass: self.pass,
            request: self.request,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes `id` and any span opened inside it that is still open.
    pub fn end(&mut self, id: Option<usize>) {
        let Some(id) = id else { return };
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Times `f` as one leaf span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Number of open spans, to restore after a caught panic.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Closes every span opened since the tracer was at `depth`.
    pub fn unwind_to(&mut self, depth: usize) {
        if let Some(&id) = self.open.get(depth) {
            self.end(Some(id));
        }
    }

    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            self.counters.push(Counter {
                name,
                pass: self.pass,
                value,
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The recorded spans and counters as one JSON document.
    pub fn to_json(&self) -> String {
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"pass\": {}, \"request\": {}}}",
                    json::quote(s.name),
                    s.start_ns,
                    s.end_ns,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.pass,
                    s.request
                )
            })
            .collect();
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|c| {
                format!(
                    "{{\"name\": {}, \"pass\": {}, \"value\": {}}}",
                    json::quote(c.name),
                    c.pass,
                    json::number(c.value)
                )
            })
            .collect();
        format!(
            "{{\"spans\": [\n{}\n], \"counters\": [\n{}\n]}}\n",
            spans.join(",\n"),
            counters.join(",\n")
        )
    }

    /// The per-layer metrics: each is computed per traced pass and the
    /// median over passes is reported. Layers a workload never calls
    /// read zero.
    pub fn layer_metrics(&self) -> BTreeMap<&'static str, f64> {
        let mut passes: BTreeMap<u32, PassTotals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let p = passes.entry(s.pass).or_default();
            let self_ms = self_time_ns(&self.spans, i) as f64 / 1e6;
            *p.ms.entry(s.name).or_default() += self_ms;
            *p.calls.entry(s.name).or_default() += 1.0;
            let req = p.requests.entry(s.request).or_default();
            match s.name {
                "service.request" => req.0 += self_ms,
                "train.epoch" => req.1 += self_ms,
                _ => {}
            }
        }
        for c in &self.counters {
            *passes
                .entry(c.pass)
                .or_default()
                .counts
                .entry(c.name)
                .or_default() += c.value;
        }
        let per_pass: Vec<BTreeMap<&'static str, f64>> =
            passes.values().map(PassTotals::metrics).collect();
        PER_LAYER
            .iter()
            .map(|&(name, _)| {
                let values: Vec<f64> = per_pass.iter().map(|m| m[name]).collect();
                (
                    name,
                    if values.is_empty() {
                        0.0
                    } else {
                        median(&values)
                    },
                )
            })
            .collect()
    }
}

/// Every per-layer metric with its unit, in report order. Named
/// `<layer>.<quantity>` after the workspace crate the layer lives in.
pub const PER_LAYER: [(&str, &str); 21] = [
    ("dnn.build_ms", "ms"),
    ("workload.parse_ms", "ms"),
    ("workload.lower_ms", "ms"),
    ("topo.apply_ms", "ms"),
    ("comm.ring_build_ms", "ms"),
    ("comm.tune_ms", "ms"),
    ("comm.tune_calls", "count"),
    ("comm.tune_unique_ratio", "ratio"),
    ("train.epoch_ms", "ms"),
    ("train.pipeline_ms", "ms"),
    ("train.ns_per_event", "ns"),
    ("sim.trace_events", "count"),
    ("service.overhead_ms", "ms"),
    ("service.hit_rate", "ratio"),
    ("service.trace_decodes", "count"),
    ("persist.encode_ms", "ms"),
    ("persist.write_ms", "ms"),
    ("persist.decode_lazy_ms", "ms"),
    ("persist.trace_decode_ms", "ms"),
    ("persist.bytes_per_cell", "B"),
    ("profile.render_ms", "ms"),
];

#[derive(Default)]
struct PassTotals {
    /// Self time in ms, by span name.
    ms: BTreeMap<&'static str, f64>,
    calls: BTreeMap<&'static str, f64>,
    counts: BTreeMap<&'static str, f64>,
    /// Per request: (service request ms, simulation ms).
    requests: BTreeMap<u32, (f64, f64)>,
}

impl PassTotals {
    fn metrics(&self) -> BTreeMap<&'static str, f64> {
        let ms = |n: &str| self.ms.get(n).copied().unwrap_or(0.0);
        let count = |n: &str| self.counts.get(n).copied().unwrap_or(0.0);
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let tune_calls = self.calls.get("comm.tune").copied().unwrap_or(0.0);
        // `train.epoch` spans wrap whole-epoch simulations, which run
        // the tuner internally; the replayed `comm.tune` spans price
        // exactly those calls, so subtracting them leaves the epoch's
        // own time.
        let epoch_ms = (ms("train.epoch") - ms("comm.tune")).max(0.0);
        let events = count("sim.trace_events");
        // A request's overhead is its time beyond the simulation the
        // benchmark replayed for the same cell (all of it on a hit).
        let overhead = self
            .requests
            .values()
            .filter(|(req, _)| *req > 0.0)
            .fold(0.0, |acc, (req, sim)| acc + req - sim);
        BTreeMap::from([
            ("dnn.build_ms", ms("dnn.build")),
            ("workload.parse_ms", ms("workload.parse")),
            ("workload.lower_ms", ms("workload.lower")),
            ("topo.apply_ms", ms("topo.apply")),
            ("comm.ring_build_ms", ms("comm.ring_build")),
            ("comm.tune_ms", ms("comm.tune")),
            ("comm.tune_calls", tune_calls),
            (
                "comm.tune_unique_ratio",
                ratio(count("comm.tune_unique"), tune_calls),
            ),
            ("train.epoch_ms", epoch_ms),
            ("train.pipeline_ms", ms("train.pipeline")),
            ("train.ns_per_event", ratio(epoch_ms * 1e6, events)),
            ("sim.trace_events", events),
            ("service.overhead_ms", overhead),
            (
                "service.hit_rate",
                ratio(count("service.hits"), count("service.cells")),
            ),
            ("service.trace_decodes", count("service.trace_decodes")),
            ("persist.encode_ms", ms("persist.encode")),
            ("persist.write_ms", ms("persist.write")),
            ("persist.decode_lazy_ms", ms("persist.decode_lazy")),
            ("persist.trace_decode_ms", ms("persist.trace_decode")),
            (
                "persist.bytes_per_cell",
                ratio(count("persist.bytes"), count("persist.cells")),
            ),
            ("profile.render_ms", ms("profile.render")),
        ])
    }
}

/// A span's self time: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_time_ns(spans: &[Span], i: usize) -> u64 {
    let s = &spans[i];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|c| c.parent == Some(i))
        .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = s.start_ns;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    s.duration_ns() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            pass: 0,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_direct_children() {
        let spans = vec![
            span("cell", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)),  // overlaps a: union 10..50
            span("c", 90, 120, Some(0)), // clipped to the parent: 90..100
            span("grandchild", 12, 18, Some(1)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 40 - 10);
        assert_eq!(self_time_ns(&spans, 1), 20 - 6);
        assert_eq!(self_time_ns(&spans, 2), 30);
        assert_eq!(self_time_ns(&spans, 4), 6);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_unwinding_closes_spans() {
        let mut t = Tracer::new();
        assert_eq!(t.span("x", || 7), 7);
        t.count("c", 1.0);
        assert!(t.spans().is_empty());

        t.set_enabled(true);
        let depth = t.depth();
        let outer = t.begin("outer");
        t.begin("inner");
        t.unwind_to(depth);
        assert_eq!(t.depth(), 0);
        assert_eq!(t.spans()[1].parent, outer);
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn layer_metrics_pair_requests_with_their_simulation() {
        let mut t = Tracer::new();
        t.spans = vec![
            span("service.request", 0, 5_000_000, None),
            span("comm.tune", 5_000_000, 6_000_000, None),
            span("train.epoch", 6_000_000, 9_000_000, None),
        ];
        t.counters = vec![Counter {
            name: "sim.trace_events",
            pass: 0,
            value: 1000.0,
        }];
        let m = t.layer_metrics();
        assert_eq!(m.len(), PER_LAYER.len());
        assert_eq!(m["train.epoch_ms"], 2.0);
        assert_eq!(m["service.overhead_ms"], 2.0);
        assert_eq!(m["train.ns_per_event"], 2000.0);
        assert_eq!(m["comm.tune_calls"], 1.0);
        assert_eq!(m["persist.encode_ms"], 0.0);
    }
}

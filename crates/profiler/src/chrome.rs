//! Chrome trace-event export: load a simulated run into
//! `chrome://tracing` / Perfetto for interactive inspection.

use std::fmt::Write as _;

use voltascope_sim::Trace;

/// Serialises a trace as Chrome trace-event JSON (array format): one
/// complete event (`"ph":"X"`) per task, grouped into tracks by
/// resource name. Timestamps are microseconds, as the format requires,
/// with fractional digits preserved so sub-µs kernels keep their true
/// position and length (the format accepts decimal `ts`/`dur`).
///
/// The output is hand-rolled JSON (the workspace deliberately avoids a
/// JSON dependency); labels are escaped.
///
/// # Example
///
/// ```
/// use voltascope_profile::chrome_trace;
/// use voltascope_sim::{Engine, SimSpan, TaskGraph};
///
/// let mut g = TaskGraph::new();
/// let r = g.add_resource("gpu0", 1);
/// g.task("fp.conv1").on(r).lasting(SimSpan::from_micros(5)).category("fp").build();
/// let trace = Engine::new().run(&g).unwrap().trace(&g, ..);
/// let json = chrome_trace(&trace);
/// assert!(json.starts_with('['));
/// assert!(json.contains("\"fp.conv1\""));
/// assert!(json.ends_with("]\n"));
/// ```
pub fn chrome_trace(trace: &Trace) -> String {
    let mut tracks: Vec<&str> = trace.events().iter().filter_map(|e| e.resource).collect();
    tracks.sort();
    tracks.dedup();
    chrome_trace_with_tracks(trace, &tracks)
}

/// Like [`chrome_trace`], but with an explicit track list (and order):
/// track `i` of `tracks` becomes tid `i + 1`, letting callers pin a
/// stable track layout across traces whose resource sets differ.
///
/// Events whose resource is absent from `tracks` land on a dedicated
/// overflow track (tid `tracks.len() + 1`, labelled `(unresolved)`),
/// never on tid 0 — that id is reserved for events with *no* resource,
/// matching the metadata-track convention tooling expects.
pub fn chrome_trace_with_tracks(trace: &Trace, tracks: &[&str]) -> String {
    let overflow = tracks.len() + 1;
    let tid = |name: &str| {
        tracks
            .iter()
            .position(|t| *t == name)
            .map(|i| i + 1)
            .unwrap_or(overflow)
    };
    let has_overflow = trace
        .events()
        .iter()
        .any(|e| e.resource.is_some_and(|r| !tracks.contains(&r)));

    let mut out = String::from("[\n");
    let mut first = true;
    // Thread-name metadata events give each resource a labelled track.
    for (i, name) in tracks.iter().enumerate() {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        write!(
            out,
            "  {{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
            i + 1,
            escape(name)
        )
        .unwrap();
    }
    if has_overflow {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        write!(
            out,
            "  {{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{overflow},\"args\":{{\"name\":\"(unresolved)\"}}}}",
        )
        .unwrap();
    }
    for e in trace.events() {
        if e.duration().is_zero() && e.resource.is_none() {
            continue; // barriers/markers add noise without information
        }
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let track = e.resource.map(tid).unwrap_or(0);
        write!(
            out,
            "  {{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{}}}",
            escape(e.label),
            escape(e.category),
            track,
            micros(e.start.as_nanos()),
            micros(e.duration().as_nanos())
        )
        .unwrap();
    }
    out.push_str("\n]\n");
    out
}

/// Formats a nanosecond count as microseconds with up to three
/// fractional digits, trailing zeros trimmed: `3000` → `"3"`,
/// `300` → `"0.3"`, `1250` → `"1.25"`. Keeps sub-µs events at their
/// true position instead of truncating to whole microseconds.
fn micros(ns: u64) -> String {
    let whole = ns / 1000;
    let frac = ns % 1000;
    if frac == 0 {
        return whole.to_string();
    }
    let mut s = format!("{whole}.{frac:03}");
    while s.ends_with('0') {
        s.pop();
    }
    s
}

/// JSON string escaping per RFC 8259: the two mandatory characters,
/// short escapes for the common control characters, and `\uXXXX` for
/// the rest — labels with tabs or newlines round-trip instead of
/// being flattened to spaces.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            '\u{0008}' => out.push_str("\\b"),
            '\u{000C}' => out.push_str("\\f"),
            c if c.is_control() => {
                write!(out, "\\u{:04x}", c as u32).unwrap();
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use voltascope_sim::{Engine, SimSpan, TaskGraph};

    fn demo() -> Trace {
        let mut g = TaskGraph::new();
        let r0 = g.add_resource("gpu0.compute", 1);
        let r1 = g.add_resource("link.GPU0>GPU1", 1);
        let a = g
            .task("fp.conv")
            .on(r0)
            .lasting(SimSpan::from_micros(3))
            .category("fp")
            .build();
        g.task("grad")
            .on(r1)
            .lasting(SimSpan::from_micros(2))
            .category("wu")
            .after(a)
            .build();
        g.task("barrier").after(a).build();
        Engine::new().run(&g).unwrap().trace(&g, ..)
    }

    #[test]
    fn emits_one_track_per_resource() {
        let json = chrome_trace(&demo());
        assert!(json.contains("\"gpu0.compute\""));
        assert!(json.contains("\"link.GPU0>GPU1\""));
        assert_eq!(json.matches("thread_name").count(), 2);
    }

    #[test]
    fn events_carry_timing_in_microseconds() {
        let json = chrome_trace(&demo());
        assert!(json.contains("\"ts\":0,\"dur\":3"));
        assert!(json.contains("\"ts\":3,\"dur\":2"));
    }

    #[test]
    fn zero_length_barriers_are_skipped() {
        let json = chrome_trace(&demo());
        assert!(!json.contains("\"barrier\""));
    }

    #[test]
    fn unresolved_resources_get_the_overflow_track_not_tid_zero() {
        // An explicit track list that omits one of the trace's
        // resources: events on the missing resource must land on the
        // dedicated overflow track (tracks.len() + 1), not collide
        // with tid 0 (the metadata/no-resource convention).
        let trace = demo();
        let json = chrome_trace_with_tracks(&trace, &["gpu0.compute"]);
        // The resolved resource keeps its position-based tid.
        assert!(
            json.contains("\"name\":\"fp.conv\",\"cat\":\"fp\",\"ph\":\"X\",\"pid\":1,\"tid\":1")
        );
        // The unresolved one overflows to tracks.len() + 1 = 2.
        assert!(json.contains("\"name\":\"grad\",\"cat\":\"wu\",\"ph\":\"X\",\"pid\":1,\"tid\":2"));
        assert!(!json.contains("\"tid\":0"));
        // The overflow track is labelled so viewers show it grouped.
        assert!(json.contains("\"tid\":2,\"args\":{\"name\":\"(unresolved)\"}"));
    }

    #[test]
    fn explicit_track_order_is_respected() {
        // Caller-pinned ordering, not sorted: link first → tid 1.
        let json = chrome_trace_with_tracks(&demo(), &["link.GPU0>GPU1", "gpu0.compute"]);
        assert!(json.contains("\"tid\":1,\"args\":{\"name\":\"link.GPU0>GPU1\"}"));
        assert!(json.contains("\"tid\":2,\"args\":{\"name\":\"gpu0.compute\"}"));
        assert!(json.contains("\"name\":\"grad\",\"cat\":\"wu\",\"ph\":\"X\",\"pid\":1,\"tid\":1"));
        // No overflow track when every resource resolves.
        assert!(!json.contains("(unresolved)"));
    }

    #[test]
    fn derived_track_list_never_overflows() {
        // chrome_trace derives tracks from the trace itself, so the
        // overflow path must be unreachable through it.
        let json = chrome_trace(&demo());
        assert!(!json.contains("(unresolved)"));
        assert!(!json.contains("\"tid\":0"));
    }

    #[test]
    fn labels_are_escaped() {
        use voltascope_sim::{SimTime, TaskId, TraceEvent};
        let trace: Trace = [TraceEvent {
            task: TaskId::from_index(0),
            label: "evil\"label\\",
            category: "c",
            resource: Some("r"),
            start: SimTime::ZERO,
            end: SimTime::from_nanos(5_000),
        }]
        .into_iter()
        .collect();
        let json = chrome_trace(&trace);
        assert!(json.contains("evil\\\"label\\\\"));
    }

    fn event(i: usize, label: &str, start_ns: u64, end_ns: u64) -> voltascope_sim::TraceEvent<'_> {
        use voltascope_sim::{SimTime, TaskId, TraceEvent};
        TraceEvent {
            task: TaskId::from_index(i),
            label,
            category: "fp",
            resource: Some("gpu0"),
            start: SimTime::from_nanos(start_ns),
            end: SimTime::from_nanos(end_ns),
        }
    }

    #[test]
    fn sub_microsecond_kernels_keep_fractional_timing() {
        // Two adjacent 300 ns kernels. The old exporter truncated ts
        // with as_micros() and fabricated dur.max(1), rendering both
        // at ts 0 with 1 µs durations — overlapping events that never
        // overlapped.
        let json = chrome_trace(
            &[event(0, "k0", 0, 300), event(1, "k1", 300, 600)]
                .into_iter()
                .collect(),
        );
        assert!(json.contains("\"ts\":0,\"dur\":0.3"), "{json}");
        assert!(json.contains("\"ts\":0.3,\"dur\":0.3"), "{json}");
        assert!(!json.contains("\"dur\":1}"), "no fabricated 1 µs: {json}");
        assert_json(&json);
    }

    #[test]
    fn fractional_microseconds_trim_trailing_zeros() {
        assert_eq!(micros(3_000), "3");
        assert_eq!(micros(300), "0.3");
        assert_eq!(micros(1_250), "1.25");
        assert_eq!(micros(1_234), "1.234");
        assert_eq!(micros(0), "0");
        assert_eq!(micros(1_000_001), "1000.001");
    }

    #[test]
    fn control_characters_escape_to_strict_json() {
        // The old escape() replaced control characters with a space,
        // silently corrupting the label; now they become proper JSON
        // escapes and the document stays strictly parseable.
        let json = chrome_trace(&[event(0, "a\tb\nc\u{1}d", 0, 5_000)].into_iter().collect());
        assert!(json.contains("a\\tb\\nc\\u0001d"), "{json}");
        assert_json(&json);
    }

    #[test]
    fn exported_documents_parse_as_strict_json() {
        assert_json(&chrome_trace(&demo()));
        assert_json(&chrome_trace_with_tracks(&demo(), &["gpu0.compute"]));
    }

    /// Minimal strict JSON validator (RFC 8259): panics with a
    /// position on the first violation. Kept test-local because the
    /// workspace deliberately has no JSON dependency.
    fn assert_json(s: &str) {
        let b = s.as_bytes();
        let mut i = 0;
        skip_ws(b, &mut i);
        value(b, &mut i);
        skip_ws(b, &mut i);
        assert_eq!(i, b.len(), "trailing bytes after JSON value");
    }

    fn skip_ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
            *i += 1;
        }
    }

    fn value(b: &[u8], i: &mut usize) {
        match b.get(*i) {
            Some(b'{') => {
                *i += 1;
                skip_ws(b, i);
                if b.get(*i) == Some(&b'}') {
                    *i += 1;
                    return;
                }
                loop {
                    skip_ws(b, i);
                    string(b, i);
                    skip_ws(b, i);
                    assert_eq!(b.get(*i), Some(&b':'), "expected ':' at {i}");
                    *i += 1;
                    skip_ws(b, i);
                    value(b, i);
                    skip_ws(b, i);
                    match b.get(*i) {
                        Some(b',') => *i += 1,
                        Some(b'}') => {
                            *i += 1;
                            return;
                        }
                        other => panic!("expected ',' or '}}' at {i}, got {other:?}"),
                    }
                }
            }
            Some(b'[') => {
                *i += 1;
                skip_ws(b, i);
                if b.get(*i) == Some(&b']') {
                    *i += 1;
                    return;
                }
                loop {
                    skip_ws(b, i);
                    value(b, i);
                    skip_ws(b, i);
                    match b.get(*i) {
                        Some(b',') => *i += 1,
                        Some(b']') => {
                            *i += 1;
                            return;
                        }
                        other => panic!("expected ',' or ']' at {i}, got {other:?}"),
                    }
                }
            }
            Some(b'"') => string(b, i),
            Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, i),
            other => panic!("unexpected JSON byte at {i}: {other:?}"),
        }
    }

    fn string(b: &[u8], i: &mut usize) {
        assert_eq!(b.get(*i), Some(&b'"'), "expected '\"' at {i}");
        *i += 1;
        loop {
            match b.get(*i) {
                Some(b'"') => {
                    *i += 1;
                    return;
                }
                Some(b'\\') => {
                    *i += 1;
                    match b.get(*i) {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *i += 1,
                        Some(b'u') => {
                            for k in 1..=4 {
                                assert!(
                                    b.get(*i + k).is_some_and(u8::is_ascii_hexdigit),
                                    "bad \\u escape at {i}"
                                );
                            }
                            *i += 5;
                        }
                        other => panic!("bad escape at {i}: {other:?}"),
                    }
                }
                Some(c) if *c < 0x20 => panic!("raw control character 0x{c:02x} at {i}"),
                Some(_) => *i += 1,
                None => panic!("unterminated string"),
            }
        }
    }

    fn number(b: &[u8], i: &mut usize) {
        if b.get(*i) == Some(&b'-') {
            *i += 1;
        }
        assert!(
            b.get(*i).is_some_and(u8::is_ascii_digit),
            "expected digit at {i}"
        );
        while b.get(*i).is_some_and(u8::is_ascii_digit) {
            *i += 1;
        }
        if b.get(*i) == Some(&b'.') {
            *i += 1;
            assert!(
                b.get(*i).is_some_and(u8::is_ascii_digit),
                "digit must follow '.' at {i}"
            );
            while b.get(*i).is_some_and(u8::is_ascii_digit) {
                *i += 1;
            }
        }
    }
}

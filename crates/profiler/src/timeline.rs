//! ASCII timeline rendering (the paper's Fig. 1).

use std::collections::BTreeMap;

use voltascope_sim::Trace;

/// Renders a trace as an ASCII Gantt chart: one row per resource,
/// `width` time buckets, each bucket showing the first letter of the
/// category that was active (uppercase) or `.` for idle. Events without
/// a resource (barriers, markers) are skipped.
///
/// This regenerates the structure of the paper's Fig. 1: FP/BP bands on
/// every GPU followed by the staggered WU transfers.
///
/// # Example
///
/// ```
/// use voltascope_profile::render_timeline;
/// use voltascope_sim::{Engine, SimSpan, TaskGraph};
///
/// let mut g = TaskGraph::new();
/// let gpu = g.add_resource("gpu0", 1);
/// let fp = g.task("fp").on(gpu).lasting(SimSpan::from_micros(10)).category("fp").build();
/// g.task("bp").on(gpu).lasting(SimSpan::from_micros(20)).category("bp").after(fp).build();
/// let trace = Engine::new().run(&g).unwrap().trace(&g, ..);
/// let art = render_timeline(&trace, 30);
/// assert!(art.contains("gpu0"));
/// assert!(art.contains('F') && art.contains('B'));
/// ```
pub fn render_timeline(trace: &Trace, width: usize) -> String {
    let width = width.max(1);
    let end = trace.end_time().as_nanos().max(1);
    let mut rows: BTreeMap<&str, Vec<char>> = BTreeMap::new();
    for e in trace.events() {
        let Some(res) = e.resource else { continue };
        let row = rows.entry(res).or_insert_with(|| vec!['.'; width]);
        let glyph = e
            .category
            .chars()
            .next()
            .unwrap_or('?')
            .to_ascii_uppercase();
        let lo = (e.start.as_nanos() as u128 * width as u128 / end as u128) as usize;
        let hi = (e.end.as_nanos() as u128 * width as u128 / end as u128) as usize;
        for slot in row.iter_mut().take(hi.max(lo + 1).min(width)).skip(lo) {
            *slot = glyph;
        }
    }
    let name_width = rows.keys().map(|k| k.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (name, row) in rows {
        out.push_str(&format!("{name:>name_width$} |"));
        out.extend(row);
        out.push_str("|\n");
    }
    out.push_str(&format!(
        "{:>name_width$}  0{:>width$}\n",
        "",
        format!("{}", trace.end_time()),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use voltascope_sim::{SimSpan, TaskGraph};

    fn demo_trace() -> Trace {
        let mut g = TaskGraph::new();
        let g0 = g.add_resource("gpu0.compute", 1);
        let g1 = g.add_resource("gpu1.compute", 1);
        let link = g.add_resource("link.GPU1>GPU0", 1);
        let f0 = g
            .task("fp0")
            .on(g0)
            .lasting(SimSpan::from_micros(50))
            .category("fp")
            .build();
        let b0 = g
            .task("bp0")
            .on(g0)
            .lasting(SimSpan::from_micros(100))
            .category("bp")
            .after(f0)
            .build();
        let f1 = g
            .task("fp1")
            .on(g1)
            .lasting(SimSpan::from_micros(50))
            .category("fp")
            .build();
        let b1 = g
            .task("bp1")
            .on(g1)
            .lasting(SimSpan::from_micros(100))
            .category("bp")
            .after(f1)
            .build();
        let x = g
            .task("grad")
            .on(link)
            .lasting(SimSpan::from_micros(30))
            .category("wu.p2p")
            .after(b1)
            .build();
        g.task("upd")
            .on(g0)
            .lasting(SimSpan::from_micros(10))
            .category("wu.update")
            .after(x)
            .after(b0)
            .build();
        voltascope_sim::Engine::new().run(&g).unwrap().trace(&g, ..)
    }

    #[test]
    fn one_row_per_resource() {
        let art = render_timeline(&demo_trace(), 40);
        assert!(art.contains("gpu0.compute"));
        assert!(art.contains("gpu1.compute"));
        assert!(art.contains("link.GPU1>GPU0"));
    }

    #[test]
    fn stages_appear_in_order() {
        let art = render_timeline(&demo_trace(), 60);
        let gpu0_row = art.lines().find(|l| l.contains("gpu0.compute")).unwrap();
        let f = gpu0_row.find('F').unwrap();
        let b = gpu0_row.find('B').unwrap();
        let w = gpu0_row.find('W').unwrap();
        assert!(f < b && b < w, "row was: {gpu0_row}");
    }

    #[test]
    fn idle_time_is_dots() {
        let art = render_timeline(&demo_trace(), 60);
        let link_row = art.lines().find(|l| l.contains("link.")).unwrap();
        assert!(link_row.contains('.'));
        assert!(link_row.contains('W'));
    }

    #[test]
    fn zero_width_clamps() {
        let art = render_timeline(&demo_trace(), 0);
        assert!(!art.is_empty());
    }

    #[test]
    fn empty_trace_renders_axis_only() {
        let art = render_timeline(&Trace::default(), 10);
        assert!(art.contains('0'));
    }
}

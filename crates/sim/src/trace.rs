//! Columnar execution traces.
//!
//! A [`Trace`] is the simulator's analogue of an `nvprof` timeline
//! export: one event per executed task, with its resource, category,
//! and start/end instants. It stores columns (task, start, end, and
//! `u32` indices for label, category and resource) over one owned
//! [`StringTable`], so an event costs a few fixed-size entries plus its
//! label bytes. [`Trace::events`] iterates borrowed [`TraceEvent`]s;
//! the profiler crate builds its reports from these.

use std::collections::HashMap;
use std::fmt;
use std::ops::Range;

use crate::graph::{ResourceId, TaskGraph, TaskId};
use crate::time::{SimSpan, SimTime};

/// An append-only table of strings stored in one buffer, addressed by
/// `u32` index.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StringTable {
    text: String,
    /// `ends[i]` is the byte offset where string `i` ends; it starts
    /// where string `i - 1` ends.
    ends: Vec<u32>,
}

impl StringTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `s` and returns its index.
    ///
    /// # Panics
    ///
    /// Panics if the table outgrows `u32` offsets (4 GiB of text).
    pub fn push(&mut self, s: &str) -> u32 {
        self.text.push_str(s);
        let end = u32::try_from(self.text.len()).expect("string table exceeds 4 GiB");
        self.ends.push(end);
        (self.ends.len() - 1) as u32
    }

    /// Number of strings in the table.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` when the table holds no strings.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The strings in index order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        (0..self.ends.len() as u32).map(|i| &self[i])
    }
}

impl std::ops::Index<u32> for StringTable {
    type Output = str;
    fn index(&self, index: u32) -> &str {
        let i = index as usize;
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.text[start..self.ends[i] as usize]
    }
}

/// One executed task in a trace, with its strings borrowed from the
/// trace's table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent<'a> {
    /// The task's id in its graph.
    pub task: TaskId,
    /// Task label (e.g. `"gpu2/bp.conv4"`).
    pub label: &'a str,
    /// Aggregation category (e.g. `"fp"`, `"wu.comm"`, `"api.sync"`).
    pub category: &'a str,
    /// Name of the resource the task ran on, if any.
    pub resource: Option<&'a str>,
    /// Start instant.
    pub start: SimTime,
    /// End instant.
    pub end: SimTime,
}

impl TraceEvent<'_> {
    /// The event's duration.
    pub fn duration(&self) -> SimSpan {
        self.end - self.start
    }
}

/// One event of a trace with its strings as indices into the trace's
/// [`StringTable`] — the form snapshot codecs read and write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexedEvent {
    /// The task's id in its graph.
    pub task: TaskId,
    /// Table index of the label.
    pub label: u32,
    /// Table index of the category.
    pub category: u32,
    /// Table index of the resource name, if the task ran on one.
    pub resource: Option<u32>,
    /// Start instant.
    pub start: SimTime,
    /// End instant.
    pub end: SimTime,
}

/// Resource column value of an event without a resource.
const NO_RESOURCE: u32 = u32::MAX;

/// The events of one run (or a window of it), stored as columns over
/// one owned [`StringTable`].
///
/// Traces compare by content: two traces are equal when their events
/// are, whatever order their tables hold the strings in.
///
/// # Example
///
/// ```
/// use voltascope_sim::{SimTime, TaskId, Trace, TraceEvent};
///
/// let ev = |task, label, start, end| TraceEvent {
///     task: TaskId::from_index(task),
///     label,
///     category: "fp",
///     resource: Some("GPU0.compute"),
///     start: SimTime::from_nanos(start),
///     end: SimTime::from_nanos(end),
/// };
/// let trace: Trace = [ev(0, "conv1", 0, 10), ev(1, "conv2", 10, 25)].into_iter().collect();
/// assert_eq!(trace.len(), 2);
/// assert_eq!(trace.events().get(1).unwrap().label, "conv2");
/// assert_eq!(trace.busy_on("GPU0.compute").as_nanos(), 25);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Trace {
    task: Vec<TaskId>,
    start: Vec<SimTime>,
    end: Vec<SimTime>,
    label: Vec<u32>,
    category: Vec<u32>,
    resource: Vec<u32>,
    table: StringTable,
}

impl Trace {
    /// An empty trace over `table`; events are added with
    /// [`Trace::push_indexed`].
    pub fn with_table(table: StringTable) -> Self {
        Trace {
            table,
            ..Trace::default()
        }
    }

    /// Reserves room for `additional` more events.
    pub fn reserve(&mut self, additional: usize) {
        self.task.reserve(additional);
        self.start.reserve(additional);
        self.end.reserve(additional);
        self.label.reserve(additional);
        self.category.reserve(additional);
        self.resource.reserve(additional);
    }

    /// Appends an event whose strings are already in the table.
    ///
    /// # Panics
    ///
    /// Panics if an index is outside the table.
    pub fn push_indexed(&mut self, e: IndexedEvent) {
        let n = self.table.len();
        let in_table = |i: u32| (i as usize) < n;
        assert!(
            in_table(e.label) && in_table(e.category) && e.resource.is_none_or(in_table),
            "trace event indexes past a table of {n} strings"
        );
        self.task.push(e.task);
        self.start.push(e.start);
        self.end.push(e.end);
        self.label.push(e.label);
        self.category.push(e.category);
        self.resource.push(e.resource.unwrap_or(NO_RESOURCE));
    }

    /// The string table the events index into.
    pub fn table(&self) -> &StringTable {
        &self.table
    }

    /// The events with their strings as table indices, in trace order.
    pub fn indexed(&self) -> impl ExactSizeIterator<Item = IndexedEvent> + '_ {
        (0..self.len()).map(|i| IndexedEvent {
            task: self.task[i],
            label: self.label[i],
            category: self.category[i],
            resource: (self.resource[i] != NO_RESOURCE).then_some(self.resource[i]),
            start: self.start[i],
            end: self.end[i],
        })
    }

    /// A view of the events, in trace order.
    pub fn events(&self) -> Events<'_> {
        Events { trace: self }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.task.len()
    }

    /// `true` when the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.task.is_empty()
    }

    /// Sum of durations of events whose category starts with `prefix`.
    pub fn total_of(&self, prefix: &str) -> SimSpan {
        let hit: Vec<bool> = self.table.iter().map(|s| s.starts_with(prefix)).collect();
        self.sum_where(|i| hit[self.category[i] as usize])
    }

    /// Sum of durations of the events that ran on the resource named
    /// `resource`: its busy time, since a capacity-1 resource serves
    /// one task at a time.
    pub fn busy_on(&self, resource: &str) -> SimSpan {
        let hit: Vec<bool> = self.table.iter().map(|s| s == resource).collect();
        self.sum_where(|i| self.resource[i] != NO_RESOURCE && hit[self.resource[i] as usize])
    }

    fn sum_where(&self, mut pred: impl FnMut(usize) -> bool) -> SimSpan {
        (0..self.len())
            .filter(|&i| pred(i))
            .map(|i| self.end[i] - self.start[i])
            .sum()
    }

    /// The end instant of the last event, or `SimTime::ZERO` if empty.
    pub fn end_time(&self) -> SimTime {
        self.end.iter().copied().max().unwrap_or(SimTime::ZERO)
    }

    /// Shifts every event earlier by the earliest start, so the trace
    /// begins at `SimTime::ZERO`.
    pub fn rebase(&mut self) {
        let Some(&base) = self.start.iter().min() else {
            return;
        };
        let offset = base - SimTime::ZERO;
        for t in self.start.iter_mut().chain(self.end.iter_mut()) {
            *t = *t - offset;
        }
    }

    /// The trace of `ids` in a finished run of `graph`, which the
    /// caller has put in `(start, task id)` order: labels are copied
    /// from the graph's arena, each category and resource name is
    /// stored once. `bound` is each task's final resource.
    pub(crate) fn of_run(
        graph: &TaskGraph,
        ids: &[TaskId],
        start: &[SimTime],
        end: &[SimTime],
        bound: &[Option<ResourceId>],
    ) -> Trace {
        let mut trace = Trace::default();
        trace.reserve(ids.len());
        let mut category_at = vec![None; graph.categories.len()];
        let mut resource_at = vec![None; graph.resources.len()];
        for &id in ids {
            let i = id.index();
            let label = trace.table.push(graph.label(id));
            let c = graph.tasks[i].category as usize;
            let category =
                *category_at[c].get_or_insert_with(|| trace.table.push(&graph.categories[c]));
            let resource = bound[i].map(|r| {
                *resource_at[r.index()].get_or_insert_with(|| trace.table.push(&graph[r].name))
            });
            trace.push_indexed(IndexedEvent {
                task: id,
                label,
                category,
                resource,
                start: start[i],
                end: end[i],
            });
        }
        trace
    }

    fn event(&self, i: usize) -> TraceEvent<'_> {
        let r = self.resource[i];
        TraceEvent {
            task: self.task[i],
            label: &self.table[self.label[i]],
            category: &self.table[self.category[i]],
            resource: (r != NO_RESOURCE).then(|| &self.table[r]),
            start: self.start[i],
            end: self.end[i],
        }
    }
}

/// Collects events into a trace, storing each distinct string once.
impl<'a> FromIterator<TraceEvent<'a>> for Trace {
    fn from_iter<I: IntoIterator<Item = TraceEvent<'a>>>(iter: I) -> Self {
        let mut trace = Trace::default();
        let mut index: HashMap<&'a str, u32> = HashMap::new();
        let mut intern =
            |table: &mut StringTable, s: &'a str| *index.entry(s).or_insert_with(|| table.push(s));
        for e in iter {
            let label = intern(&mut trace.table, e.label);
            let category = intern(&mut trace.table, e.category);
            let resource = e.resource.map(|r| intern(&mut trace.table, r));
            trace.push_indexed(IndexedEvent {
                task: e.task,
                label,
                category,
                resource,
                start: e.start,
                end: e.end,
            });
        }
        trace
    }
}

impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        self.events() == other.events()
    }
}

impl Eq for Trace {}

/// A borrowed view of a [`Trace`]'s events; see [`Trace::events`].
#[derive(Clone, Copy)]
pub struct Events<'a> {
    trace: &'a Trace,
}

impl<'a> Events<'a> {
    /// Number of events.
    pub fn len(&self) -> usize {
        self.trace.len()
    }

    /// `true` when there are no events.
    pub fn is_empty(&self) -> bool {
        self.trace.is_empty()
    }

    /// The event at position `i`, if any.
    pub fn get(&self, i: usize) -> Option<TraceEvent<'a>> {
        (i < self.len()).then(|| self.trace.event(i))
    }

    /// Iterates over the events in trace order.
    pub fn iter(&self) -> EventIter<'a> {
        EventIter {
            trace: self.trace,
            range: 0..self.len(),
        }
    }
}

impl<'a> IntoIterator for Events<'a> {
    type Item = TraceEvent<'a>;
    type IntoIter = EventIter<'a>;
    fn into_iter(self) -> EventIter<'a> {
        self.iter()
    }
}

/// Events compare by content: task, instants and strings.
impl PartialEq for Events<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for Events<'_> {}

impl fmt::Debug for Events<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Iterator over a trace's events; see [`Events::iter`].
#[derive(Clone)]
pub struct EventIter<'a> {
    trace: &'a Trace,
    range: Range<usize>,
}

impl<'a> Iterator for EventIter<'a> {
    type Item = TraceEvent<'a>;

    fn next(&mut self) -> Option<TraceEvent<'a>> {
        self.range.next().map(|i| self.trace.event(i))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.range.size_hint()
    }
}

impl ExactSizeIterator for EventIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev<'a>(label: &'a str, cat: &'a str, start: u64, end: u64) -> TraceEvent<'a> {
        TraceEvent {
            task: TaskId(0),
            label,
            category: cat,
            resource: None,
            start: SimTime::from_nanos(start),
            end: SimTime::from_nanos(end),
        }
    }

    #[test]
    fn prefix_matching_selects_subcategories() {
        let trace: Trace = [
            ev("a", "wu.comm", 0, 4),
            ev("b", "wu.update", 4, 6),
            ev("c", "fp", 0, 1),
        ]
        .into_iter()
        .collect();
        assert_eq!(trace.total_of("wu"), SimSpan::from_nanos(6));
        assert_eq!(trace.total_of("wu.update"), SimSpan::from_nanos(2));
        // Overlap is double-counted: nvprof's "GPU activities" style.
        let fp: Trace = [ev("k1", "fp", 0, 10), ev("k2", "fp", 5, 15)]
            .into_iter()
            .collect();
        assert_eq!(fp.total_of("fp"), SimSpan::from_nanos(20));
    }

    #[test]
    fn busy_on_sums_one_resource() {
        let on = |r, start, end| TraceEvent {
            resource: Some(r),
            ..ev("k", "fp", start, end)
        };
        let trace: Trace = [
            on("GPU0.compute", 0, 10),
            on("GPU1.compute", 0, 7),
            on("GPU0.compute", 10, 13),
            ev("marker", "GPU0.compute", 0, 50),
        ]
        .into_iter()
        .collect();
        assert_eq!(trace.busy_on("GPU0.compute"), SimSpan::from_nanos(13));
        assert_eq!(trace.busy_on("GPU1.compute"), SimSpan::from_nanos(7));
        assert_eq!(trace.busy_on("GPU2.compute"), SimSpan::ZERO);
    }

    #[test]
    fn collecting_stores_each_string_once() {
        let trace: Trace = [ev("fp", "fp", 0, 1), ev("fp", "fp", 1, 2)]
            .into_iter()
            .collect();
        assert_eq!(trace.table().len(), 1);
        assert_eq!(trace.events().get(1).unwrap().label, "fp");
        assert!(trace.events().get(2).is_none());
    }

    #[test]
    fn equality_is_by_content_not_table_order() {
        let events = [ev("a", "fp", 0, 1), ev("b", "bp", 1, 3)];
        let fresh: Trace = events.into_iter().collect();
        // The same events over a table in another order.
        let mut table = StringTable::new();
        let (bp, b, fp, a) = (
            table.push("bp"),
            table.push("b"),
            table.push("fp"),
            table.push("a"),
        );
        let mut reordered = Trace::with_table(table);
        for (label, category, start, end) in [(a, fp, 0, 1), (b, bp, 1, 3)] {
            reordered.push_indexed(IndexedEvent {
                task: TaskId(0),
                label,
                category,
                resource: None,
                start: SimTime::from_nanos(start),
                end: SimTime::from_nanos(end),
            });
        }
        assert_ne!(fresh.table(), reordered.table());
        assert_eq!(fresh, reordered);
        assert_eq!(fresh.events(), reordered.events());
        // One changed label breaks equality.
        let changed: Trace = [ev("a", "fp", 0, 1), ev("c", "bp", 1, 3)]
            .into_iter()
            .collect();
        assert_ne!(fresh.events(), changed.events());
    }

    #[test]
    fn rebase_starts_the_trace_at_zero() {
        // Out of start order: the earliest start, not the first, is
        // the new origin.
        let mut trace: Trace = [ev("a", "fp", 45, 60), ev("b", "fp", 40, 50)]
            .into_iter()
            .collect();
        trace.rebase();
        let spans: Vec<_> = trace
            .events()
            .iter()
            .map(|e| (e.start.as_nanos(), e.end.as_nanos()))
            .collect();
        assert_eq!(spans, [(5, 20), (0, 10)]);
        assert_eq!(trace.end_time(), SimTime::from_nanos(20));
    }

    #[test]
    #[should_panic(expected = "indexes past a table")]
    fn out_of_table_indices_panic() {
        let mut trace = Trace::default();
        trace.push_indexed(IndexedEvent {
            task: TaskId(0),
            label: 0,
            category: 0,
            resource: None,
            start: SimTime::ZERO,
            end: SimTime::ZERO,
        });
    }

    #[test]
    fn end_time_of_empty_trace_is_zero() {
        assert_eq!(Trace::default().end_time(), SimTime::ZERO);
        assert!(Trace::default().is_empty());
        assert!(Trace::default().events().is_empty());
    }
}

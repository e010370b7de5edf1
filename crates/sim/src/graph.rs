//! Task graphs: the static description of work handed to the [`Engine`].
//!
//! [`Engine`]: crate::Engine

use std::fmt::{self, Write as _};

use crate::time::{SimSpan, SimTime};

/// Identifies a task within one [`TaskGraph`]. Indices are dense and
/// assigned in insertion order, which is also the deterministic
/// tie-break order used by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub(crate) u32);

impl TaskId {
    /// The dense index of this task inside its graph.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a task id from its dense index (for synthesising
    /// trace events outside the engine, e.g. in tests and importers).
    pub fn from_index(index: usize) -> Self {
        TaskId(index as u32)
    }
}

/// Identifies a resource within one [`TaskGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ResourceId(pub(crate) u32);

impl ResourceId {
    /// The dense index of this resource inside its graph.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An exclusive (or capacity-limited) server that tasks occupy while
/// they run: a GPU stream, one direction of an NVLink, a PCIe segment,
/// or the host thread issuing CUDA API calls.
#[derive(Debug, Clone)]
pub struct Resource {
    /// Human-readable name, e.g. `"gpu3.compute"` or `"nvlink.0>2"`.
    pub name: String,
    /// How many tasks may occupy the resource simultaneously.
    pub capacity: u32,
}

/// One unit of simulated work. Its label and category live in the
/// graph: read them with [`TaskGraph::label`] and
/// [`TaskGraph::category`].
#[derive(Debug, Clone)]
pub struct Task {
    /// Resource the task occupies while running; `None` means the task
    /// only waits for its dependencies and consumes no shared capacity.
    pub resource: Option<ResourceId>,
    /// Service time once the task starts.
    pub duration: SimSpan,
    /// Tasks that must finish before this one may start.
    pub deps: Vec<TaskId>,
    /// Earliest simulated instant the task may start, independent of
    /// dependencies (used for externally-paced arrivals like the CPU
    /// feeding mini-batches).
    pub release: SimTime,
    /// Where this task's label ends in the graph's label arena (it
    /// starts where the previous task's ends).
    label_end: u32,
    /// Index into the graph's category table.
    pub(crate) category: u32,
}

/// A static DAG of [`Task`]s plus the [`Resource`]s they contend for.
///
/// Labels are written into one arena owned by the graph, and each
/// distinct category is stored once, so adding a task allocates no
/// strings of its own.
///
/// Build one with [`TaskGraph::new`], [`TaskGraph::add_resource`] and
/// the [`TaskGraph::task`] builder, then execute it with
/// [`Engine::run`](crate::Engine::run).
///
/// # Example
///
/// ```
/// use voltascope_sim::{SimSpan, TaskGraph};
///
/// let mut graph = TaskGraph::new();
/// let cpu = graph.add_resource("cpu", 1);
/// let a = graph.task("a").on(cpu).lasting(SimSpan::from_nanos(5)).build();
/// let b = graph.task("b").after(a).build(); // zero-length barrier task
/// assert_eq!(graph.task_count(), 2);
/// assert_eq!(graph[b].deps, vec![a]);
/// assert_eq!(graph.label(b), "b");
/// ```
#[derive(Debug, Clone)]
pub struct TaskGraph {
    pub(crate) tasks: Vec<Task>,
    pub(crate) resources: Vec<Resource>,
    /// Every task's label, back to back in id order.
    labels: String,
    /// Distinct categories; index 0 is the empty default.
    pub(crate) categories: Vec<Box<str>>,
}

impl Default for TaskGraph {
    fn default() -> Self {
        TaskGraph {
            tasks: Vec::new(),
            resources: Vec::new(),
            labels: String::new(),
            categories: vec!["".into()],
        }
    }
}

impl TaskGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a resource with the given concurrent `capacity`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — a zero-capacity resource could
    /// never serve any task and would deadlock the schedule.
    pub fn add_resource(&mut self, name: impl Into<String>, capacity: u32) -> ResourceId {
        assert!(capacity > 0, "resource capacity must be at least 1");
        let id = ResourceId(self.resources.len() as u32);
        self.resources.push(Resource {
            name: name.into(),
            capacity,
        });
        id
    }

    /// Starts building a task labelled `label`, which is written
    /// straight into the graph's label arena (pass `format_args!` to
    /// build no intermediate `String`). The task is added to the graph
    /// when [`TaskBuilder::build`] is called.
    pub fn task(&mut self, label: impl fmt::Display) -> TaskBuilder<'_> {
        // Drops the label of a builder that was never built.
        self.labels.truncate(self.label_start(self.tasks.len()));
        write!(self.labels, "{label}").expect("writing to a String cannot fail");
        TaskBuilder {
            graph: self,
            task: Task {
                resource: None,
                duration: SimSpan::ZERO,
                deps: Vec::new(),
                release: SimTime::ZERO,
                label_end: 0,
                category: 0,
            },
        }
    }

    /// Where the label of the task at `index` starts in the arena.
    fn label_start(&self, index: usize) -> usize {
        match index {
            0 => 0,
            i => self.tasks[i - 1].label_end as usize,
        }
    }

    /// The task's label.
    pub fn label(&self, id: TaskId) -> &str {
        let end = self.tasks[id.index()].label_end as usize;
        &self.labels[self.label_start(id.index())..end]
    }

    /// The task's aggregation category (`""` when none was set).
    pub fn category(&self, id: TaskId) -> &str {
        &self.categories[self.tasks[id.index()].category as usize]
    }

    /// Number of tasks added so far.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Number of resources registered so far.
    pub fn resource_count(&self) -> usize {
        self.resources.len()
    }

    /// Iterates over `(TaskId, &Task)` in insertion order.
    pub fn tasks(&self) -> impl Iterator<Item = (TaskId, &Task)> {
        self.tasks
            .iter()
            .enumerate()
            .map(|(i, t)| (TaskId(i as u32), t))
    }

    /// Iterates over `(ResourceId, &Resource)` in insertion order.
    pub fn resources(&self) -> impl Iterator<Item = (ResourceId, &Resource)> {
        self.resources
            .iter()
            .enumerate()
            .map(|(i, r)| (ResourceId(i as u32), r))
    }

    /// Adds an extra dependency edge `from -> to` after both tasks were
    /// built (useful when wiring pipelined iterations together).
    ///
    /// # Panics
    ///
    /// Panics if either id does not belong to this graph.
    pub fn add_dep(&mut self, first: TaskId, then: TaskId) {
        assert!(first.index() < self.tasks.len(), "unknown task {first:?}");
        let task = self
            .tasks
            .get_mut(then.index())
            .unwrap_or_else(|| panic!("unknown task {then:?}"));
        if !task.deps.contains(&first) {
            task.deps.push(first);
        }
    }

    /// Total service time across all tasks (ignores contention; the
    /// lower bound on total busy time).
    pub fn total_work(&self) -> SimSpan {
        self.tasks.iter().map(|t| t.duration).sum()
    }
}

impl std::ops::Index<TaskId> for TaskGraph {
    type Output = Task;
    fn index(&self, id: TaskId) -> &Task {
        &self.tasks[id.index()]
    }
}

impl std::ops::Index<ResourceId> for TaskGraph {
    type Output = Resource;
    fn index(&self, id: ResourceId) -> &Resource {
        &self.resources[id.index()]
    }
}

/// Builder returned by [`TaskGraph::task`].
#[derive(Debug)]
pub struct TaskBuilder<'g> {
    graph: &'g mut TaskGraph,
    task: Task,
}

impl TaskBuilder<'_> {
    /// Runs the task on `resource` (occupying one capacity slot).
    pub fn on(mut self, resource: ResourceId) -> Self {
        assert!(
            resource.index() < self.graph.resources.len(),
            "unknown resource {resource:?}"
        );
        self.task.resource = Some(resource);
        self
    }

    /// Sets the service duration.
    pub fn lasting(mut self, duration: SimSpan) -> Self {
        self.task.duration = duration;
        self
    }

    /// Adds a dependency on `dep`.
    ///
    /// # Panics
    ///
    /// Panics if `dep` was not created earlier in the same graph; this
    /// ordering rule makes accidental cycles impossible to build through
    /// the builder (only [`TaskGraph::add_dep`] can create one, and the
    /// engine reports those as [`SimError::Deadlock`](crate::SimError)).
    pub fn after(mut self, dep: TaskId) -> Self {
        assert!(
            dep.index() < self.graph.tasks.len(),
            "dependency {dep:?} does not exist yet"
        );
        if !self.task.deps.contains(&dep) {
            self.task.deps.push(dep);
        }
        self
    }

    /// Adds dependencies on every task in `deps`.
    pub fn after_all(mut self, deps: impl IntoIterator<Item = TaskId>) -> Self {
        for dep in deps {
            self = self.after(dep);
        }
        self
    }

    /// Sets the aggregation category used by profiler reports (e.g.
    /// `"fp"`, `"bp"`, `"wu.comm"`, `"api.cudaLaunchKernel"`). Each
    /// distinct category is stored once per graph.
    pub fn category(mut self, category: impl AsRef<str>) -> Self {
        let category = category.as_ref();
        let table = &mut self.graph.categories;
        let index = table
            .iter()
            .position(|c| **c == *category)
            .unwrap_or_else(|| {
                table.push(category.into());
                table.len() - 1
            });
        self.task.category = index as u32;
        self
    }

    /// Sets the earliest start instant (release time).
    pub fn not_before(mut self, release: SimTime) -> Self {
        self.task.release = release;
        self
    }

    /// Finalises the task and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the graph's labels outgrow 4 GiB.
    pub fn build(mut self) -> TaskId {
        let id = TaskId(self.graph.tasks.len() as u32);
        self.task.label_end =
            u32::try_from(self.graph.labels.len()).expect("task labels exceed 4 GiB");
        self.graph.tasks.push(self.task);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assembles_task() {
        let mut g = TaskGraph::new();
        let r = g.add_resource("r", 2);
        let a = g.task("a").build();
        let b = g
            .task("b")
            .on(r)
            .lasting(SimSpan::from_nanos(7))
            .after(a)
            .category("fp")
            .not_before(SimTime::from_nanos(3))
            .build();
        assert_eq!(g.label(b), "b");
        assert_eq!(g.category(b), "fp");
        assert_eq!(g.label(a), "a");
        assert_eq!(g.category(a), "");
        assert_eq!(g[b].resource, Some(r));
        assert_eq!(g[b].duration, SimSpan::from_nanos(7));
        assert_eq!(g[b].deps, vec![a]);
        assert_eq!(g[b].release, SimTime::from_nanos(3));
        assert_eq!(g[r].capacity, 2);
    }

    #[test]
    fn labels_share_one_arena_and_categories_are_interned() {
        let mut g = TaskGraph::new();
        let ids: Vec<_> = (0..6)
            .map(|i| {
                g.task(format_args!("it{}/k{i}", i % 2))
                    .category(if i % 2 == 0 { "fp" } else { "bp" })
                    .build()
            })
            .collect();
        // A builder dropped without `build` leaves no trace in the
        // next task's label.
        let _ = g.task("abandoned").category("wu");
        let last = g.task("last").build();
        assert_eq!(g.label(ids[0]), "it0/k0");
        assert_eq!(g.label(ids[5]), "it1/k5");
        assert_eq!(g.label(last), "last");
        assert_eq!(g.category(ids[4]), "fp");
        assert_eq!(g.category(ids[3]), "bp");
        assert_eq!(g.category(last), "");
        // "", "fp", "bp" and the abandoned builder's "wu".
        assert_eq!(g.categories.len(), 4);
    }

    #[test]
    fn duplicate_deps_are_collapsed() {
        let mut g = TaskGraph::new();
        let a = g.task("a").build();
        let b = g.task("b").after(a).after(a).build();
        assert_eq!(g[b].deps, vec![a]);
        g.add_dep(a, b);
        assert_eq!(g[b].deps, vec![a]);
    }

    #[test]
    #[should_panic(expected = "does not exist yet")]
    fn forward_dependency_panics() {
        let mut g = TaskGraph::new();
        let _ = g.task("a").after(TaskId(5)).build();
    }

    #[test]
    #[should_panic(expected = "capacity must be at least 1")]
    fn zero_capacity_panics() {
        let mut g = TaskGraph::new();
        let _ = g.add_resource("r", 0);
    }

    #[test]
    fn total_work_sums_durations() {
        let mut g = TaskGraph::new();
        g.task("a").lasting(SimSpan::from_nanos(3)).build();
        g.task("b").lasting(SimSpan::from_nanos(4)).build();
        assert_eq!(g.total_work(), SimSpan::from_nanos(7));
    }

    #[test]
    fn iterators_follow_insertion_order() {
        let mut g = TaskGraph::new();
        let r0 = g.add_resource("r0", 1);
        let r1 = g.add_resource("r1", 1);
        let a = g.task("a").build();
        let b = g.task("b").build();
        let task_ids: Vec<_> = g.tasks().map(|(id, _)| id).collect();
        assert_eq!(task_ids, vec![a, b]);
        let res_ids: Vec<_> = g.resources().map(|(id, _)| id).collect();
        assert_eq!(res_ids, vec![r0, r1]);
    }
}

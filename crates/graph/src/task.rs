//! Tasks and their constraint annotations.

use std::collections::BTreeSet;
use std::fmt;

use crate::catalog::ResourceId;
use crate::time::{Dur, Time};

/// Whether a task may be interrupted and resumed.
///
/// The overlap analysis (Theorems 3 and 4 of the paper) differs between the
/// two modes: a preemptive task can split its execution around an interval,
/// a non-preemptive task cannot.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum ExecutionMode {
    /// The task, once started, runs to completion.
    #[default]
    NonPreemptive,
    /// The task may be preempted and resumed at no cost.
    Preemptive,
}

impl fmt::Display for ExecutionMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecutionMode::NonPreemptive => f.write_str("non-preemptive"),
            ExecutionMode::Preemptive => f.write_str("preemptive"),
        }
    }
}

/// Declarative description of a task, consumed by
/// [`TaskGraphBuilder::add_task`](crate::TaskGraphBuilder::add_task).
///
/// Release time defaults to [`Time::ZERO`]; the deadline may be left unset
/// if the builder provides a default deadline
/// ([`TaskGraphBuilder::default_deadline`](crate::TaskGraphBuilder::default_deadline)).
///
/// # Example
///
/// ```
/// use rtlb_graph::{Catalog, Dur, TaskSpec, Time};
/// let mut catalog = Catalog::new();
/// let p1 = catalog.processor("P1");
/// let sensor = catalog.resource("sensor");
/// let spec = TaskSpec::new("sample", Dur::new(4), p1)
///     .release(Time::new(2))
///     .deadline(Time::new(30))
///     .resource(sensor)
///     .preemptive();
/// assert_eq!(spec.name(), "sample");
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskSpec {
    name: String,
    computation: Dur,
    processor: ResourceId,
    release: Time,
    deadline: Option<Time>,
    resources: BTreeSet<ResourceId>,
    mode: ExecutionMode,
}

impl TaskSpec {
    /// Starts a spec for a non-preemptive task named `name` with
    /// computation time `computation` executing on processor type
    /// `processor`, released at time zero.
    pub fn new(name: impl Into<String>, computation: Dur, processor: ResourceId) -> TaskSpec {
        TaskSpec {
            name: name.into(),
            computation,
            processor,
            release: Time::ZERO,
            deadline: None,
            resources: BTreeSet::new(),
            mode: ExecutionMode::NonPreemptive,
        }
    }

    /// Sets the release time `rel_i`.
    pub fn release(mut self, release: Time) -> TaskSpec {
        self.release = release;
        self
    }

    /// Sets the deadline `D_i`.
    pub fn deadline(mut self, deadline: Time) -> TaskSpec {
        self.deadline = Some(deadline);
        self
    }

    /// Adds one resource requirement to `R_i`.
    pub fn resource(mut self, resource: ResourceId) -> TaskSpec {
        self.resources.insert(resource);
        self
    }

    /// Adds several resource requirements to `R_i`.
    pub fn resources<I: IntoIterator<Item = ResourceId>>(mut self, resources: I) -> TaskSpec {
        self.resources.extend(resources);
        self
    }

    /// Marks the task preemptive.
    pub fn preemptive(mut self) -> TaskSpec {
        self.mode = ExecutionMode::Preemptive;
        self
    }

    /// Sets the execution mode explicitly.
    pub fn mode(mut self, mode: ExecutionMode) -> TaskSpec {
        self.mode = mode;
        self
    }

    /// The task's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The processor type, for the builder's typing check.
    pub(crate) fn processor_id(&self) -> ResourceId {
        self.processor
    }

    /// The resources `R_i`, for the builder's typing check.
    pub(crate) fn resource_ids(&self) -> &BTreeSet<ResourceId> {
        &self.resources
    }

    /// The task this spec describes, or the spec back when it has no
    /// deadline of its own and `default_deadline` is `None`.
    pub(crate) fn into_task(self, default_deadline: Option<Time>) -> Result<Task, TaskSpec> {
        let Some(deadline) = self.deadline.or(default_deadline) else {
            return Err(self);
        };
        Ok(Task {
            name: self.name,
            computation: self.computation,
            processor: self.processor,
            release: self.release,
            deadline,
            resources: self.resources,
            mode: self.mode,
        })
    }
}

/// A validated task inside a [`TaskGraph`](crate::TaskGraph).
///
/// Corresponds to an annotated vertex of the paper's application DAG.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Task {
    name: String,
    computation: Dur,
    processor: ResourceId,
    release: Time,
    deadline: Time,
    resources: BTreeSet<ResourceId>,
    mode: ExecutionMode,
}

impl Task {
    /// The task's human-readable name (unique within its graph).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Computation time `C_i`.
    pub fn computation(&self) -> Dur {
        self.computation
    }

    /// Processor type `φ_i` on which the task executes.
    pub fn processor(&self) -> ResourceId {
        self.processor
    }

    /// Release time `rel_i`: the task cannot start earlier.
    pub fn release(&self) -> Time {
        self.release
    }

    /// Deadline `D_i`: the task must complete no later.
    pub fn deadline(&self) -> Time {
        self.deadline
    }

    /// Additional resources `R_i` held for the task's whole execution.
    pub fn resources(&self) -> &BTreeSet<ResourceId> {
        &self.resources
    }

    /// Whether the task is preemptive.
    pub fn mode(&self) -> ExecutionMode {
        self.mode
    }

    /// Whether the task may be preempted.
    pub fn is_preemptive(&self) -> bool {
        self.mode == ExecutionMode::Preemptive
    }

    /// All resource ids the task occupies while executing: `R_i ∪ {φ_i}`.
    pub fn demands(&self) -> impl Iterator<Item = ResourceId> + '_ {
        std::iter::once(self.processor).chain(self.resources.iter().copied())
    }

    /// Whether the task occupies resource `r` while executing,
    /// i.e. `r ∈ R_i ∪ {φ_i}`.
    pub fn demands_resource(&self, r: ResourceId) -> bool {
        self.processor == r || self.resources.contains(&r)
    }

    // Mutators are crate-private: edits go through the validating
    // [`TaskGraph`](crate::TaskGraph) methods so the graph's invariants
    // (typing, dense ids, cached topological order) stay intact.

    pub(crate) fn set_computation(&mut self, computation: Dur) {
        self.computation = computation;
    }

    pub(crate) fn set_release(&mut self, release: Time) {
        self.release = release;
    }

    pub(crate) fn set_deadline(&mut self, deadline: Time) {
        self.deadline = deadline;
    }

    pub(crate) fn set_mode(&mut self, mode: ExecutionMode) {
        self.mode = mode;
    }

    pub(crate) fn add_resource(&mut self, resource: ResourceId) -> bool {
        self.resources.insert(resource)
    }

    pub(crate) fn remove_resource(&mut self, resource: ResourceId) -> bool {
        self.resources.remove(&resource)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;

    fn ids() -> (ResourceId, ResourceId, ResourceId) {
        let mut c = Catalog::new();
        (c.processor("P1"), c.resource("r1"), c.resource("r2"))
    }

    #[test]
    fn spec_builder_sets_all_fields() {
        let (p, r1, r2) = ids();
        let task = TaskSpec::new("t", Dur::new(5), p)
            .release(Time::new(2))
            .deadline(Time::new(40))
            .resource(r1)
            .resources([r2])
            .preemptive()
            .into_task(None)
            .unwrap();
        assert_eq!(task.name(), "t");
        assert_eq!(task.computation(), Dur::new(5));
        assert_eq!(task.release(), Time::new(2));
        assert_eq!(task.deadline(), Time::new(40));
        assert!(task.is_preemptive());
        assert_eq!(task.resources().len(), 2);
    }

    #[test]
    fn default_deadline_applies_only_when_unset() {
        let (p, _, _) = ids();
        let t = TaskSpec::new("a", Dur::new(1), p)
            .into_task(Some(Time::new(9)))
            .unwrap();
        assert_eq!(t.deadline(), Time::new(9));
        let t = TaskSpec::new("b", Dur::new(1), p)
            .deadline(Time::new(5))
            .into_task(Some(Time::new(9)))
            .unwrap();
        assert_eq!(t.deadline(), Time::new(5));
        assert!(TaskSpec::new("c", Dur::new(1), p).into_task(None).is_err());
    }

    #[test]
    fn demands_include_processor_and_resources() {
        let (p, r1, _) = ids();
        let t = TaskSpec::new("t", Dur::new(1), p)
            .deadline(Time::new(10))
            .resource(r1)
            .into_task(None)
            .unwrap();
        let demands: Vec<_> = t.demands().collect();
        assert!(demands.contains(&p));
        assert!(demands.contains(&r1));
        assert!(t.demands_resource(p));
        assert!(t.demands_resource(r1));
    }

    #[test]
    fn default_mode_is_non_preemptive() {
        let (p, _, _) = ids();
        let t = TaskSpec::new("t", Dur::new(1), p)
            .deadline(Time::new(10))
            .into_task(None)
            .unwrap();
        assert_eq!(t.mode(), ExecutionMode::NonPreemptive);
        assert!(!t.is_preemptive());
    }

    #[test]
    fn mode_display() {
        assert_eq!(ExecutionMode::Preemptive.to_string(), "preemptive");
        assert_eq!(ExecutionMode::NonPreemptive.to_string(), "non-preemptive");
    }
}

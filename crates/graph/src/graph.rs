//! The validated application DAG and its builder.

use std::collections::{BTreeSet, HashMap};
use std::fmt;

use crate::catalog::{Catalog, ResourceId, ResourceKind};
use crate::error::GraphError;
use crate::task::{ExecutionMode, Task, TaskSpec};
use crate::time::{Dur, Time};

/// Identifier of a task inside one [`TaskGraph`].
///
/// Ids are dense indices assigned in insertion order; they are only
/// meaningful together with the graph (or builder) that produced them.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TaskId(u32);

impl TaskId {
    /// Returns the dense index of this id.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs an id from a dense index.
    ///
    /// Intended for code that stores per-task data in flat vectors; the
    /// caller is responsible for `index` being in range for the graph it
    /// will be used with.
    pub const fn from_index(index: usize) -> TaskId {
        TaskId(index as u32)
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task#{}", self.0)
    }
}

/// One precedence edge, viewed from one of its endpoints.
///
/// The `message` field is the paper's `m_ji`: the time to transmit the
/// message between the two tasks if they are assigned to *different*
/// processors/nodes. Co-located tasks communicate for free.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Edge {
    /// The task at the far end of the edge (a successor when obtained from
    /// [`TaskGraph::successors`], a predecessor when obtained from
    /// [`TaskGraph::predecessors`]).
    pub other: TaskId,
    /// Message transmission time `m`.
    pub message: Dur,
}

/// Incrementally builds a [`TaskGraph`], validating on
/// [`build`](TaskGraphBuilder::build).
///
/// # Example
///
/// ```
/// use rtlb_graph::{Catalog, Dur, TaskGraphBuilder, TaskSpec, Time};
/// # fn main() -> Result<(), rtlb_graph::GraphError> {
/// let mut catalog = Catalog::new();
/// let p = catalog.processor("P");
/// let mut b = TaskGraphBuilder::new(catalog);
/// b.default_deadline(Time::new(20));
/// let a = b.add_task(TaskSpec::new("a", Dur::new(3), p))?;
/// let c = b.add_task(TaskSpec::new("c", Dur::new(4), p))?;
/// b.add_edge(a, c, Dur::new(1))?;
/// let graph = b.build()?;
/// assert_eq!(graph.topological_order().first(), Some(&a));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct TaskGraphBuilder {
    catalog: Catalog,
    specs: Vec<TaskSpec>,
    names: HashMap<String, TaskId>,
    edges: Vec<(TaskId, TaskId, Dur)>,
    edge_set: BTreeSet<(TaskId, TaskId)>,
    default_deadline: Option<Time>,
}

impl TaskGraphBuilder {
    /// Starts a builder over the given catalog of processor/resource types.
    pub fn new(catalog: Catalog) -> TaskGraphBuilder {
        TaskGraphBuilder {
            catalog,
            specs: Vec::new(),
            names: HashMap::new(),
            edges: Vec::new(),
            edge_set: BTreeSet::new(),
            default_deadline: None,
        }
    }

    /// Sets the deadline applied to every task whose spec leaves the
    /// deadline unset (the paper's example uses a common deadline of 36 for
    /// most tasks).
    pub fn default_deadline(&mut self, deadline: Time) -> &mut TaskGraphBuilder {
        self.default_deadline = Some(deadline);
        self
    }

    /// Read access to the catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Adds a task, returning its id.
    ///
    /// # Errors
    ///
    /// * [`GraphError::DuplicateTaskName`] if a task of the same name exists.
    /// * [`GraphError::BadTaskTyping`] if the spec's processor id is not a
    ///   processor in the catalog, or a listed resource is not a plain
    ///   resource, or any id is foreign to the catalog.
    pub fn add_task(&mut self, spec: TaskSpec) -> Result<TaskId, GraphError> {
        if self.names.contains_key(spec.name()) {
            return Err(GraphError::DuplicateTaskName(spec.name().to_owned()));
        }
        self.check_spec_typing(&spec)?;
        let id = TaskId(self.specs.len() as u32);
        self.names.insert(spec.name().to_owned(), id);
        self.specs.push(spec);
        Ok(id)
    }

    fn check_spec_typing(&self, spec: &TaskSpec) -> Result<(), GraphError> {
        let bad = |detail: String| GraphError::BadTaskTyping {
            task: spec.name().to_owned(),
            detail,
        };
        let processor = spec.processor_id();
        if !self.catalog.contains(processor) {
            return Err(bad(format!(
                "processor id {processor} is not in the catalog"
            )));
        }
        if self.catalog.kind(processor) != ResourceKind::Processor {
            return Err(bad(format!(
                "`{}` is not a processor type",
                self.catalog.name(processor)
            )));
        }
        for &r in spec.resource_ids() {
            if !self.catalog.contains(r) {
                return Err(bad(format!("resource id {r} is not in the catalog")));
            }
            if self.catalog.kind(r) != ResourceKind::Resource {
                return Err(bad(format!(
                    "`{}` is a processor type but was listed in R_i",
                    self.catalog.name(r)
                )));
            }
        }
        Ok(())
    }

    /// Adds a precedence edge `from -> to` with message time `message`.
    ///
    /// # Errors
    ///
    /// * [`GraphError::UnknownTask`] if either endpoint was not added to
    ///   this builder.
    /// * [`GraphError::SelfLoop`] if `from == to`.
    /// * [`GraphError::DuplicateEdge`] if the edge already exists.
    pub fn add_edge(&mut self, from: TaskId, to: TaskId, message: Dur) -> Result<(), GraphError> {
        let name_of = |id: TaskId| -> Result<&str, GraphError> {
            self.specs
                .get(id.index())
                .map(|s| s.name())
                .ok_or_else(|| GraphError::UnknownTask(format!("{id}")))
        };
        // Names are copied only into an error.
        let from_name = name_of(from)?;
        let to_name = name_of(to)?;
        if from == to {
            return Err(GraphError::SelfLoop(from_name.to_owned()));
        }
        if !self.edge_set.insert((from, to)) {
            return Err(GraphError::DuplicateEdge {
                from: from_name.to_owned(),
                to: to_name.to_owned(),
            });
        }
        self.edges.push((from, to, message));
        Ok(())
    }

    /// Looks up a task id by name.
    pub fn task_id(&self, name: &str) -> Option<TaskId> {
        self.names.get(name).copied()
    }

    /// Number of tasks added so far.
    pub fn task_count(&self) -> usize {
        self.specs.len()
    }

    /// Validates and freezes the graph.
    ///
    /// # Errors
    ///
    /// * [`GraphError::Empty`] if no tasks were added.
    /// * [`GraphError::MissingDeadline`] if a task lacks a deadline and no
    ///   default deadline was set.
    /// * [`GraphError::Cycle`] if the precedence relation is cyclic.
    pub fn build(self) -> Result<TaskGraph, GraphError> {
        if self.specs.is_empty() {
            return Err(GraphError::Empty);
        }
        let mut tasks = Vec::with_capacity(self.specs.len());
        for spec in self.specs {
            let task = spec
                .into_task(self.default_deadline)
                .map_err(|spec| GraphError::MissingDeadline(spec.name().to_owned()))?;
            tasks.push(task);
        }

        let n = tasks.len();
        let mut succs: Vec<Vec<Edge>> = vec![Vec::new(); n];
        let mut preds: Vec<Vec<Edge>> = vec![Vec::new(); n];
        for (from, to, message) in &self.edges {
            succs[from.index()].push(Edge {
                other: *to,
                message: *message,
            });
            preds[to.index()].push(Edge {
                other: *from,
                message: *message,
            });
        }
        for list in succs.iter_mut().chain(preds.iter_mut()) {
            list.sort_by_key(|e| e.other);
        }

        let topo = topological_sort(n, &succs, &preds, &tasks)?;

        Ok(TaskGraph {
            catalog: self.catalog,
            tasks,
            names: self.names,
            succs,
            preds,
            topo,
        })
    }
}

/// Kahn's algorithm; returns tasks in a topological order or the name of a
/// task on a cycle.
fn topological_sort(
    n: usize,
    succs: &[Vec<Edge>],
    preds: &[Vec<Edge>],
    tasks: &[Task],
) -> Result<Vec<TaskId>, GraphError> {
    let mut indegree: Vec<usize> = preds.iter().map(Vec::len).collect();
    let mut ready: Vec<TaskId> = (0..n)
        .filter(|&i| indegree[i] == 0)
        .map(TaskId::from_index)
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(id) = ready.pop() {
        order.push(id);
        for e in &succs[id.index()] {
            indegree[e.other.index()] -= 1;
            if indegree[e.other.index()] == 0 {
                ready.push(e.other);
            }
        }
    }
    if order.len() != n {
        let on_cycle = (0..n)
            .find(|&i| indegree[i] > 0)
            .expect("incomplete order implies a positive indegree");
        return Err(GraphError::Cycle(tasks[on_cycle].name().to_owned()));
    }
    Ok(order)
}

/// A validated application: tasks, precedence edges with message times, and
/// the catalog of processor/resource types, with a cached topological order.
///
/// Construct instances with [`TaskGraphBuilder`]. Built graphs support
/// *annotation* edits — changing a task's timing parameters, an edge's
/// message time, or a resource demand — but not *shape* edits: tasks and
/// edges can be neither added nor removed, so the cached topological order
/// stays valid across all edits.
#[derive(Clone, Debug)]
pub struct TaskGraph {
    catalog: Catalog,
    tasks: Vec<Task>,
    /// Task ids by name; names are fixed at build time.
    names: HashMap<String, TaskId>,
    succs: Vec<Vec<Edge>>,
    preds: Vec<Vec<Edge>>,
    topo: Vec<TaskId>,
}

impl TaskGraph {
    /// The catalog of processor/resource types used by this application.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Number of tasks.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Returns the task with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this graph.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.index()]
    }

    /// Iterates over `(id, task)` pairs in insertion order.
    pub fn tasks(&self) -> impl Iterator<Item = (TaskId, &Task)> {
        self.tasks
            .iter()
            .enumerate()
            .map(|(i, t)| (TaskId::from_index(i), t))
    }

    /// All task ids in insertion order.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.tasks.len()).map(TaskId::from_index)
    }

    /// Looks up a task id by name.
    pub fn task_id(&self, name: &str) -> Option<TaskId> {
        self.names.get(name).copied()
    }

    /// Immediate successors of `id` (the paper's `Succ_i`), with message
    /// times, sorted by task id.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this graph.
    pub fn successors(&self, id: TaskId) -> &[Edge] {
        &self.succs[id.index()]
    }

    /// Immediate predecessors of `id` (the paper's `Pred_i`), with message
    /// times, sorted by task id.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this graph.
    pub fn predecessors(&self, id: TaskId) -> &[Edge] {
        &self.preds[id.index()]
    }

    /// The message time `m_{from,to}` of the edge `from -> to`, if the edge
    /// exists.
    pub fn message(&self, from: TaskId, to: TaskId) -> Option<Dur> {
        self.succs[from.index()]
            .iter()
            .find(|e| e.other == to)
            .map(|e| e.message)
    }

    /// Number of precedence edges.
    pub fn edge_count(&self) -> usize {
        self.succs.iter().map(Vec::len).sum()
    }

    /// A topological order over the tasks (sources first).
    pub fn topological_order(&self) -> &[TaskId] {
        &self.topo
    }

    /// Tasks with no predecessors.
    pub fn sources(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.task_ids()
            .filter(move |id| self.preds[id.index()].is_empty())
    }

    /// Tasks with no successors.
    pub fn sinks(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.task_ids()
            .filter(move |id| self.succs[id.index()].is_empty())
    }

    /// The paper's `RES`: every resource id some task demands,
    /// `⋃_{i∈S} (R_i ∪ {φ_i})`, in id order.
    pub fn resources_used(&self) -> BTreeSet<ResourceId> {
        let mut res = BTreeSet::new();
        for t in &self.tasks {
            res.extend(t.demands());
        }
        res
    }

    /// The paper's `ST_r`: ids of all tasks that demand resource `r`,
    /// in id order.
    pub fn tasks_demanding(&self, r: ResourceId) -> Vec<TaskId> {
        self.tasks()
            .filter(|(_, t)| t.demands_resource(r))
            .map(|(id, _)| id)
            .collect()
    }

    /// Sum of all computation times — a trivial upper bound on schedule
    /// length on one processor, handy for choosing candidate horizons.
    pub fn total_computation(&self) -> Dur {
        self.tasks.iter().map(|t| t.computation()).sum()
    }

    fn checked_mut(&mut self, id: TaskId) -> Result<&mut Task, GraphError> {
        self.tasks
            .get_mut(id.index())
            .ok_or_else(|| GraphError::UnknownTask(format!("{id}")))
    }

    /// Sets the computation time `C_i` of task `id`.
    ///
    /// # Errors
    ///
    /// [`GraphError::UnknownTask`] if `id` did not come from this graph.
    pub fn set_computation(&mut self, id: TaskId, computation: Dur) -> Result<(), GraphError> {
        self.checked_mut(id)?.set_computation(computation);
        Ok(())
    }

    /// Sets the release time `rel_i` of task `id`.
    ///
    /// # Errors
    ///
    /// [`GraphError::UnknownTask`] if `id` did not come from this graph.
    pub fn set_release(&mut self, id: TaskId, release: Time) -> Result<(), GraphError> {
        self.checked_mut(id)?.set_release(release);
        Ok(())
    }

    /// Sets the deadline `D_i` of task `id`.
    ///
    /// # Errors
    ///
    /// [`GraphError::UnknownTask`] if `id` did not come from this graph.
    pub fn set_deadline(&mut self, id: TaskId, deadline: Time) -> Result<(), GraphError> {
        self.checked_mut(id)?.set_deadline(deadline);
        Ok(())
    }

    /// Sets the execution mode of task `id`.
    ///
    /// # Errors
    ///
    /// [`GraphError::UnknownTask`] if `id` did not come from this graph.
    pub fn set_mode(&mut self, id: TaskId, mode: ExecutionMode) -> Result<(), GraphError> {
        self.checked_mut(id)?.set_mode(mode);
        Ok(())
    }

    /// Sets the message time of the existing edge `from -> to`, updating
    /// both adjacency views.
    ///
    /// # Errors
    ///
    /// * [`GraphError::UnknownTask`] if either endpoint is foreign.
    /// * [`GraphError::UnknownEdge`] if the edge does not exist (edges
    ///   cannot be created after [`TaskGraphBuilder::build`]).
    pub fn set_message(
        &mut self,
        from: TaskId,
        to: TaskId,
        message: Dur,
    ) -> Result<(), GraphError> {
        for id in [from, to] {
            if id.index() >= self.tasks.len() {
                return Err(GraphError::UnknownTask(format!("{id}")));
            }
        }
        let fwd = self.succs[from.index()]
            .iter_mut()
            .find(|e| e.other == to)
            .ok_or_else(|| GraphError::UnknownEdge {
                from: self.tasks[from.index()].name().to_owned(),
                to: self.tasks[to.index()].name().to_owned(),
            })?;
        fwd.message = message;
        let back = self.preds[to.index()]
            .iter_mut()
            .find(|e| e.other == from)
            .expect("succs and preds mirror the same edge set");
        back.message = message;
        Ok(())
    }

    /// Adds resource `r` to task `id`'s demand set `R_i`. Returns whether
    /// the set changed (`false` if the demand was already present).
    ///
    /// # Errors
    ///
    /// * [`GraphError::UnknownTask`] if `id` did not come from this graph.
    /// * [`GraphError::BadTaskTyping`] if `r` is not a plain resource in
    ///   the catalog (processor demands are fixed by `φ_i`).
    pub fn add_resource_demand(&mut self, id: TaskId, r: ResourceId) -> Result<bool, GraphError> {
        if !self.catalog.contains(r) || self.catalog.kind(r) != ResourceKind::Resource {
            let task = self.checked_mut(id)?.name().to_owned();
            return Err(GraphError::BadTaskTyping {
                task,
                detail: format!("id {r} is not a plain resource in the catalog"),
            });
        }
        Ok(self.checked_mut(id)?.add_resource(r))
    }

    /// Removes resource `r` from task `id`'s demand set `R_i`. Returns
    /// whether the set changed (`false` if the demand was absent; the
    /// processor demand `φ_i` is not removable).
    ///
    /// # Errors
    ///
    /// [`GraphError::UnknownTask`] if `id` did not come from this graph.
    pub fn remove_resource_demand(
        &mut self,
        id: TaskId,
        r: ResourceId,
    ) -> Result<bool, GraphError> {
        Ok(self.checked_mut(id)?.remove_resource(r))
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    fn diamond() -> TaskGraph {
        let mut c = Catalog::new();
        let p = c.processor("P");
        let r = c.resource("r");
        let mut b = TaskGraphBuilder::new(c);
        b.default_deadline(Time::new(50));
        let a = b
            .add_task(TaskSpec::new("a", Dur::new(2), p).resource(r))
            .unwrap();
        let l = b.add_task(TaskSpec::new("l", Dur::new(3), p)).unwrap();
        let rr = b.add_task(TaskSpec::new("r", Dur::new(4), p)).unwrap();
        let d = b
            .add_task(TaskSpec::new("d", Dur::new(5), p).deadline(Time::new(40)))
            .unwrap();
        b.add_edge(a, l, Dur::new(1)).unwrap();
        b.add_edge(a, rr, Dur::new(2)).unwrap();
        b.add_edge(l, d, Dur::new(3)).unwrap();
        b.add_edge(rr, d, Dur::new(4)).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn diamond_structure_is_preserved() {
        let g = diamond();
        assert_eq!(g.task_count(), 4);
        assert_eq!(g.edge_count(), 4);
        let a = g.task_id("a").unwrap();
        let d = g.task_id("d").unwrap();
        assert_eq!(g.successors(a).len(), 2);
        assert_eq!(g.predecessors(d).len(), 2);
        assert_eq!(g.sources().collect::<Vec<_>>(), vec![a]);
        assert_eq!(g.sinks().collect::<Vec<_>>(), vec![d]);
        assert_eq!(g.message(a, d), None);
        let l = g.task_id("l").unwrap();
        assert_eq!(g.message(a, l), Some(Dur::new(1)));
    }

    #[test]
    fn topological_order_respects_edges() {
        let g = diamond();
        let pos: BTreeMap<TaskId, usize> = g
            .topological_order()
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i))
            .collect();
        for id in g.task_ids() {
            for e in g.successors(id) {
                assert!(pos[&id] < pos[&e.other], "edge violated in topo order");
            }
        }
    }

    #[test]
    fn default_deadline_fills_unset_only() {
        let g = diamond();
        let a = g.task_id("a").unwrap();
        let d = g.task_id("d").unwrap();
        assert_eq!(g.task(a).deadline(), Time::new(50));
        assert_eq!(g.task(d).deadline(), Time::new(40));
    }

    #[test]
    fn cycle_is_rejected() {
        let mut c = Catalog::new();
        let p = c.processor("P");
        let mut b = TaskGraphBuilder::new(c);
        b.default_deadline(Time::new(10));
        let a = b.add_task(TaskSpec::new("a", Dur::new(1), p)).unwrap();
        let bb = b.add_task(TaskSpec::new("b", Dur::new(1), p)).unwrap();
        b.add_edge(a, bb, Dur::ZERO).unwrap();
        b.add_edge(bb, a, Dur::ZERO).unwrap();
        assert!(matches!(b.build(), Err(GraphError::Cycle(_))));
    }

    #[test]
    fn duplicate_names_and_edges_are_rejected() {
        let mut c = Catalog::new();
        let p = c.processor("P");
        let mut b = TaskGraphBuilder::new(c);
        let a = b.add_task(TaskSpec::new("a", Dur::new(1), p)).unwrap();
        assert!(matches!(
            b.add_task(TaskSpec::new("a", Dur::new(2), p)),
            Err(GraphError::DuplicateTaskName(_))
        ));
        let b2 = b.add_task(TaskSpec::new("b", Dur::new(1), p)).unwrap();
        b.add_edge(a, b2, Dur::ZERO).unwrap();
        assert!(matches!(
            b.add_edge(a, b2, Dur::new(1)),
            Err(GraphError::DuplicateEdge { .. })
        ));
        assert!(matches!(
            b.add_edge(a, a, Dur::ZERO),
            Err(GraphError::SelfLoop(_))
        ));
        assert!(matches!(
            b.add_edge(TaskId::from_index(99), a, Dur::ZERO),
            Err(GraphError::UnknownTask(_))
        ));
    }

    #[test]
    fn missing_deadline_is_rejected() {
        let mut c = Catalog::new();
        let p = c.processor("P");
        let mut b = TaskGraphBuilder::new(c);
        b.add_task(TaskSpec::new("a", Dur::new(1), p)).unwrap();
        assert!(matches!(
            b.build(),
            Err(GraphError::MissingDeadline(name)) if name == "a"
        ));
    }

    #[test]
    fn empty_graph_is_rejected() {
        let mut c = Catalog::new();
        c.processor("P");
        let b = TaskGraphBuilder::new(c);
        assert!(matches!(b.build(), Err(GraphError::Empty)));
    }

    #[test]
    fn bad_typing_is_rejected() {
        let mut c = Catalog::new();
        let p = c.processor("P");
        let r = c.resource("r");
        let mut b = TaskGraphBuilder::new(c);
        // Plain resource used as processor.
        assert!(matches!(
            b.add_task(TaskSpec::new("x", Dur::new(1), r)),
            Err(GraphError::BadTaskTyping { .. })
        ));
        // Processor listed among R_i.
        assert!(matches!(
            b.add_task(TaskSpec::new("y", Dur::new(1), p).resource(p)),
            Err(GraphError::BadTaskTyping { .. })
        ));
        // Foreign id.
        assert!(matches!(
            b.add_task(TaskSpec::new("z", Dur::new(1), ResourceId::from_index(77))),
            Err(GraphError::BadTaskTyping { .. })
        ));
    }

    #[test]
    fn resources_used_is_union_of_demands() {
        let g = diamond();
        let res = g.resources_used();
        assert_eq!(res.len(), 2); // P and r
        let r = g.catalog().lookup("r").unwrap();
        let p = g.catalog().lookup("P").unwrap();
        assert!(res.contains(&r) && res.contains(&p));
        assert_eq!(g.tasks_demanding(r), vec![g.task_id("a").unwrap()]);
        assert_eq!(g.tasks_demanding(p).len(), 4);
    }

    #[test]
    fn aggregates() {
        let g = diamond();
        assert_eq!(g.total_computation(), Dur::new(14));
    }

    #[test]
    fn annotation_edits_update_views() {
        let mut g = diamond();
        let a = g.task_id("a").unwrap();
        let l = g.task_id("l").unwrap();

        g.set_computation(a, Dur::new(9)).unwrap();
        g.set_release(a, Time::new(3)).unwrap();
        g.set_deadline(a, Time::new(45)).unwrap();
        g.set_mode(a, ExecutionMode::Preemptive).unwrap();
        assert_eq!(g.task(a).computation(), Dur::new(9));
        assert_eq!(g.task(a).release(), Time::new(3));
        assert_eq!(g.task(a).deadline(), Time::new(45));
        assert!(g.task(a).is_preemptive());

        // Message edits update both adjacency views.
        g.set_message(a, l, Dur::new(7)).unwrap();
        assert_eq!(g.message(a, l), Some(Dur::new(7)));
        let back = g.predecessors(l).iter().find(|e| e.other == a).unwrap();
        assert_eq!(back.message, Dur::new(7));
        assert!(matches!(
            g.set_message(l, a, Dur::ZERO),
            Err(GraphError::UnknownEdge { .. })
        ));
        assert!(matches!(
            g.set_computation(TaskId::from_index(99), Dur::ZERO),
            Err(GraphError::UnknownTask(_))
        ));
    }

    #[test]
    fn demand_edits_validate_against_catalog() {
        let mut g = diamond();
        let l = g.task_id("l").unwrap();
        let r = g.catalog().lookup("r").unwrap();
        let p = g.catalog().lookup("P").unwrap();

        assert!(g.add_resource_demand(l, r).unwrap());
        assert!(!g.add_resource_demand(l, r).unwrap(), "already present");
        assert!(g.tasks_demanding(r).contains(&l));
        assert!(g.remove_resource_demand(l, r).unwrap());
        assert!(!g.remove_resource_demand(l, r).unwrap(), "already absent");

        // Processor types cannot be demanded as plain resources, and the
        // processor demand cannot be removed.
        assert!(matches!(
            g.add_resource_demand(l, p),
            Err(GraphError::BadTaskTyping { .. })
        ));
        assert!(!g.remove_resource_demand(l, p).unwrap());
        assert!(g.task(l).demands_resource(p));
    }

    #[test]
    fn debug_output_is_nonempty_and_structured() {
        let g = diamond();
        let dbg = format!("{g:?}");
        assert!(dbg.contains("tasks"));
        assert!(dbg.contains("catalog"));
    }

    #[test]
    fn graph_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TaskGraph>();
        assert_send_sync::<TaskGraphBuilder>();
        assert_send_sync::<GraphError>();
    }
}

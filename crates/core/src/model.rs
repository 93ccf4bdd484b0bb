//! Distributed-system models: shared and dedicated (Section 2.2 of the
//! paper).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use rtlb_graph::{ResourceId, Task, TaskGraph};

use crate::error::AnalysisError;

/// Identifier of a node type inside one [`DedicatedModel`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeTypeId(u32);

impl NodeTypeId {
    /// Dense index of this node type.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs an id from a dense index; the caller is responsible
    /// for `index` being in range for the model it is used with.
    pub const fn from_index(index: usize) -> NodeTypeId {
        NodeTypeId(index as u32)
    }
}

impl fmt::Display for NodeTypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node#{}", self.0)
    }
}

/// One node type `n ∈ Λ` of the dedicated model: a processor of one type
/// plus a set of resources dedicated to it, with a unit cost `CostN(n)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeType {
    name: String,
    processor: ResourceId,
    resources: BTreeSet<ResourceId>,
    cost: i64,
}

impl NodeType {
    /// Creates a node type named `name` with processor type `processor`,
    /// dedicated resource set `resources` (the paper's `λ_n` minus the
    /// processor itself), and cost `cost`.
    pub fn new(
        name: impl Into<String>,
        processor: ResourceId,
        resources: impl IntoIterator<Item = ResourceId>,
        cost: i64,
    ) -> NodeType {
        NodeType {
            name: name.into(),
            processor,
            resources: resources.into_iter().collect(),
            cost,
        }
    }

    /// The node type's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The processor type of this node.
    pub fn processor(&self) -> ResourceId {
        self.processor
    }

    /// The dedicated (non-processor) resources of this node.
    pub fn resources(&self) -> &BTreeSet<ResourceId> {
        &self.resources
    }

    /// `CostN(n)`.
    pub fn cost(&self) -> i64 {
        self.cost
    }

    /// Number of units of resource `r` in one node of this type
    /// (the paper's `γ_nr`): 1 if `r` is this node's processor type or in
    /// its resource set, else 0.
    pub fn units_of(&self, r: ResourceId) -> u32 {
        u32::from(self.processor == r || self.resources.contains(&r))
    }

    /// Whether a task can execute on this node type: the processor type
    /// matches and every resource the task needs is dedicated to the node.
    pub fn can_host(&self, task: &Task) -> bool {
        self.processor == task.processor() && self.resources.is_superset(task.resources())
    }

    /// Whether this node's processor is `processor` and its resource set
    /// covers `resources`.
    pub fn covers(&self, processor: ResourceId, resources: &BTreeSet<ResourceId>) -> bool {
        self.processor == processor && self.resources.is_superset(resources)
    }
}

/// The shared model: every processor reaches every resource over an
/// interconnection network, so a task may run on *any* processor of its
/// type. Carries the per-unit costs `CostR(r)` used by the cost bound.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SharedModel {
    costs: BTreeMap<ResourceId, i64>,
}

impl SharedModel {
    /// Creates a shared model with no costs assigned yet.
    ///
    /// Costs are only needed for the cost bound of Section 7; the resource
    /// lower bounds themselves are cost-free.
    pub fn new() -> SharedModel {
        SharedModel::default()
    }

    /// Sets `CostR(r)`; returns `self` for chaining.
    pub fn with_cost(mut self, r: ResourceId, cost: i64) -> SharedModel {
        self.costs.insert(r, cost);
        self
    }

    /// Sets `CostR(r)`.
    pub fn set_cost(&mut self, r: ResourceId, cost: i64) {
        self.costs.insert(r, cost);
    }

    /// `CostR(r)`, if assigned.
    pub fn cost(&self, r: ResourceId) -> Option<i64> {
        self.costs.get(&r).copied()
    }
}

/// The dedicated model: the system is assembled from node types `Λ`; each
/// task must be placed on a node that hosts its processor type and all of
/// its resources.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DedicatedModel {
    node_types: Vec<NodeType>,
}

impl DedicatedModel {
    /// Creates a model with the given set of node types.
    pub fn new(node_types: Vec<NodeType>) -> DedicatedModel {
        DedicatedModel { node_types }
    }

    /// The node types `Λ`.
    pub fn node_types(&self) -> &[NodeType] {
        &self.node_types
    }

    /// The node type with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this model.
    pub fn node_type(&self, id: NodeTypeId) -> &NodeType {
        &self.node_types[id.index()]
    }

    /// Iterates over node-type ids.
    pub fn ids(&self) -> impl Iterator<Item = NodeTypeId> {
        (0..self.node_types.len()).map(NodeTypeId::from_index)
    }

    /// The paper's `η_i`: node types able to host `task`.
    pub fn hosts_for(&self, task: &Task) -> Vec<NodeTypeId> {
        self.ids()
            .filter(|&n| self.node_type(n).can_host(task))
            .collect()
    }

    /// Checks the paper's standing assumption that *every* task has at
    /// least one node type able to host it.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::UnhostableTask`] naming the first task
    /// with an empty `η_i`.
    pub fn validate(&self, graph: &TaskGraph) -> Result<(), AnalysisError> {
        for (_, task) in graph.tasks() {
            if self.hosts_for(task).is_empty() {
                return Err(AnalysisError::UnhostableTask(task.name().to_owned()));
            }
        }
        Ok(())
    }
}

/// Either of the paper's two distributed-system architectures.
///
/// The model determines *mergeability* (Definitions 1 and 2) during the
/// EST/LCT analysis, and the shape of the cost bound (Section 7).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SystemModel {
    /// All resources reachable from all processors.
    Shared(SharedModel),
    /// Nodes assembled from a fixed set of node types.
    Dedicated(DedicatedModel),
}

impl SystemModel {
    /// Convenience constructor for a shared model with no costs.
    pub fn shared() -> SystemModel {
        SystemModel::Shared(SharedModel::new())
    }

    /// Convenience constructor for a dedicated model.
    pub fn dedicated(node_types: Vec<NodeType>) -> SystemModel {
        SystemModel::Dedicated(DedicatedModel::new(node_types))
    }

    /// Validates model-specific assumptions against an application
    /// (dedicated: every task hostable; shared: nothing to check).
    ///
    /// # Errors
    ///
    /// See [`DedicatedModel::validate`].
    pub fn validate(&self, graph: &TaskGraph) -> Result<(), AnalysisError> {
        match self {
            SystemModel::Shared(_) => Ok(()),
            SystemModel::Dedicated(d) => d.validate(graph),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtlb_graph::{Catalog, Dur, TaskGraphBuilder, TaskSpec, Time};

    fn setup() -> (TaskGraph, ResourceId, ResourceId, ResourceId) {
        let mut c = Catalog::new();
        let p1 = c.processor("P1");
        let p2 = c.processor("P2");
        let r1 = c.resource("r1");
        let mut b = TaskGraphBuilder::new(c);
        b.default_deadline(Time::new(100));
        b.add_task(TaskSpec::new("a", Dur::new(2), p1).resource(r1))
            .unwrap();
        b.add_task(TaskSpec::new("b", Dur::new(2), p2)).unwrap();
        (b.build().unwrap(), p1, p2, r1)
    }

    #[test]
    fn node_type_hosting() {
        let (g, p1, p2, r1) = setup();
        let n = NodeType::new("N1", p1, [r1], 10);
        let a = g.task(g.task_id("a").unwrap());
        let b = g.task(g.task_id("b").unwrap());
        assert!(n.can_host(a));
        assert!(!n.can_host(b)); // wrong processor
        let bare = NodeType::new("N2", p1, [], 5);
        assert!(!bare.can_host(a)); // missing r1
        assert_eq!(n.units_of(p1), 1);
        assert_eq!(n.units_of(r1), 1);
        assert_eq!(n.units_of(p2), 0);
        assert_eq!(n.cost(), 10);
        assert_eq!(n.name(), "N1");
    }

    #[test]
    fn dedicated_validation() {
        let (g, p1, _p2, r1) = setup();
        let incomplete = DedicatedModel::new(vec![NodeType::new("N1", p1, [r1], 10)]);
        // Task b (on P2) has no host.
        assert!(matches!(
            incomplete.validate(&g),
            Err(AnalysisError::UnhostableTask(name)) if name == "b"
        ));
    }

    #[test]
    fn hosts_for_lists_all_hosts() {
        let (g, p1, p2, r1) = setup();
        let model = DedicatedModel::new(vec![
            NodeType::new("N1", p1, [r1], 10),
            NodeType::new("N2", p1, [], 4),
            NodeType::new("N3", p2, [], 6),
        ]);
        model.validate(&g).unwrap();
        let a = g.task(g.task_id("a").unwrap());
        let b = g.task(g.task_id("b").unwrap());
        assert_eq!(model.hosts_for(a), vec![NodeTypeId::from_index(0)]);
        assert_eq!(model.hosts_for(b), vec![NodeTypeId::from_index(2)]);
        assert_eq!(model.node_type(NodeTypeId::from_index(1)).name(), "N2");
    }

    #[test]
    fn shared_costs() {
        let (_, p1, p2, r1) = setup();
        let m = SharedModel::new().with_cost(p1, 100).with_cost(r1, 7);
        assert_eq!(m.cost(p1), Some(100));
        assert_eq!(m.cost(r1), Some(7));
        assert_eq!(m.cost(p2), None);
        let mut m2 = SharedModel::new();
        m2.set_cost(p2, 55);
        assert_eq!(m2.cost(p2), Some(55));
    }

    #[test]
    fn system_model_accessors() {
        let (g, p1, p2, r1) = setup();
        let shared = SystemModel::shared();
        assert!(matches!(shared, SystemModel::Shared(_)));
        shared.validate(&g).unwrap();

        let dedicated = SystemModel::dedicated(vec![
            NodeType::new("N1", p1, [r1], 1),
            NodeType::new("N3", p2, [], 1),
        ]);
        assert!(matches!(dedicated, SystemModel::Dedicated(_)));
        dedicated.validate(&g).unwrap();
    }

    #[test]
    fn covers_checks_processor_and_resources() {
        let (_, p1, p2, r1) = setup();
        let n = NodeType::new("N", p1, [r1], 1);
        let empty = BTreeSet::new();
        let with_r1: BTreeSet<_> = [r1].into();
        assert!(n.covers(p1, &empty));
        assert!(n.covers(p1, &with_r1));
        assert!(!n.covers(p2, &empty));
        let needs_more: BTreeSet<_> = [r1, p2].into();
        assert!(!n.covers(p1, &needs_more));
    }
}

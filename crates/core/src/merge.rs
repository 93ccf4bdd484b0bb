//! Mergeability of task sets (Definitions 1 and 2 of the paper).
//!
//! A set of tasks is *mergeable* when they could all be assigned to one
//! processor (shared model: same processor type `φ`) or one node
//! (dedicated model: same `φ`, and some node type's resources cover the
//! union of the tasks' resource needs). Merged tasks do not exchange
//! messages over the network but must execute sequentially — the tradeoff
//! at the heart of the EST/LCT algorithms.

use rtlb_graph::{ResourceId, TaskGraph, TaskId};

use crate::model::{DedicatedModel, NodeTypeId, SystemModel};

/// Checks whether the given set of tasks is mergeable under `model`
/// (Definition 1 for the shared model, Definition 2 for the dedicated
/// model). The empty set and singletons of hostable tasks are mergeable.
///
/// # Example
///
/// ```
/// use rtlb_core::{mergeable, SystemModel};
/// use rtlb_graph::{Catalog, Dur, TaskGraphBuilder, TaskSpec, Time};
/// # fn main() -> Result<(), rtlb_graph::GraphError> {
/// let mut catalog = Catalog::new();
/// let p1 = catalog.processor("P1");
/// let p2 = catalog.processor("P2");
/// let mut b = TaskGraphBuilder::new(catalog);
/// b.default_deadline(Time::new(10));
/// let a = b.add_task(TaskSpec::new("a", Dur::new(1), p1))?;
/// let c = b.add_task(TaskSpec::new("c", Dur::new(1), p2))?;
/// let g = b.build()?;
/// let model = SystemModel::shared();
/// assert!(mergeable(&model, &g, &[a]));
/// assert!(!mergeable(&model, &g, &[a, c])); // different processor types
/// # Ok(())
/// # }
/// ```
pub fn mergeable(model: &SystemModel, graph: &TaskGraph, tasks: &[TaskId]) -> bool {
    let Some((&first, rest)) = tasks.split_first() else {
        return true;
    };
    let mut set = match MergeSet::new(model, graph, first) {
        Some(s) => s,
        None => return false,
    };
    rest.iter().all(|&t| set.add(t))
}

/// Incrementally grown mergeable set, used by the EST/LCT merge scan,
/// which adds one candidate task at a time (Figures 2 and 3).
///
/// The set keeps only what the next candidate check needs: the members'
/// common processor type and, in the dedicated model, the node types that
/// still cover the union of their resource needs, so each check is a
/// subset test per remaining node type rather than a scan of all of `Λ`.
#[derive(Clone, Debug)]
pub(crate) struct MergeSet<'a> {
    graph: &'a TaskGraph,
    processor: ResourceId,
    /// Dedicated model only: node types whose resources cover the union of
    /// the members' resource needs (always with the right processor type).
    viable_nodes: Option<(&'a DedicatedModel, Vec<NodeTypeId>)>,
}

impl<'a> MergeSet<'a> {
    /// Starts a mergeable set containing only `seed`.
    ///
    /// Returns `None` in the dedicated model when no node type can host
    /// `seed` at all. Such a task is mergeable with nothing (Definition 2),
    /// so the merge scan makes every one of its neighbors pay its message.
    /// The paper rules such models out by assumption, and
    /// [`SystemModel::validate`] refuses them before any analysis.
    pub(crate) fn new(
        model: &'a SystemModel,
        graph: &'a TaskGraph,
        seed: TaskId,
    ) -> Option<MergeSet<'a>> {
        let task = graph.task(seed);
        let viable_nodes = match model {
            SystemModel::Shared(_) => None,
            SystemModel::Dedicated(d) => {
                let hosts = d.hosts_for(task);
                if hosts.is_empty() {
                    return None;
                }
                Some((d, hosts))
            }
        };
        Some(MergeSet {
            graph,
            processor: task.processor(),
            viable_nodes,
        })
    }

    /// Whether `candidate` could be added while keeping the set mergeable.
    pub(crate) fn can_add(&self, candidate: TaskId) -> bool {
        let task = self.graph.task(candidate);
        if task.processor() != self.processor {
            return false;
        }
        match &self.viable_nodes {
            None => true,
            Some((model, nodes)) => nodes
                .iter()
                .any(|&n| model.node_type(n).resources().is_superset(task.resources())),
        }
    }

    /// Adds `candidate` if the result stays mergeable; returns whether it
    /// was added.
    pub(crate) fn add(&mut self, candidate: TaskId) -> bool {
        if !self.can_add(candidate) {
            return false;
        }
        let task = self.graph.task(candidate);
        if let Some((model, nodes)) = &mut self.viable_nodes {
            nodes.retain(|&n| model.node_type(n).resources().is_superset(task.resources()));
            debug_assert!(!nodes.is_empty());
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::NodeType;
    use rtlb_graph::{Catalog, Dur, TaskGraphBuilder, TaskSpec, Time};

    struct Fixture {
        graph: TaskGraph,
        p1: ResourceId,
        r1: ResourceId,
        r2: ResourceId,
        a: TaskId, // P1, {r1}
        b: TaskId, // P1, {r2}
        c: TaskId, // P2, {}
        d: TaskId, // P1, {}
    }

    fn fixture() -> Fixture {
        let mut cat = Catalog::new();
        let p1 = cat.processor("P1");
        let p2 = cat.processor("P2");
        let r1 = cat.resource("r1");
        let r2 = cat.resource("r2");
        let mut builder = TaskGraphBuilder::new(cat);
        builder.default_deadline(Time::new(100));
        let a = builder
            .add_task(TaskSpec::new("a", Dur::new(1), p1).resource(r1))
            .unwrap();
        let b = builder
            .add_task(TaskSpec::new("b", Dur::new(1), p1).resource(r2))
            .unwrap();
        let c = builder
            .add_task(TaskSpec::new("c", Dur::new(1), p2))
            .unwrap();
        let d = builder
            .add_task(TaskSpec::new("d", Dur::new(1), p1))
            .unwrap();
        Fixture {
            graph: builder.build().unwrap(),
            p1,
            r1,
            r2,
            a,
            b,
            c,
            d,
        }
    }

    #[test]
    fn shared_model_needs_only_matching_processor() {
        let f = fixture();
        let model = SystemModel::shared();
        assert!(mergeable(&model, &f.graph, &[f.a, f.b, f.d]));
        assert!(!mergeable(&model, &f.graph, &[f.a, f.c]));
        assert!(mergeable(&model, &f.graph, &[]));
        assert!(mergeable(&model, &f.graph, &[f.c]));
    }

    #[test]
    fn dedicated_model_needs_covering_node() {
        let f = fixture();
        // One node type has r1 only, another r2 only: a and b are each
        // mergeable with d, but not with each other.
        let p2 = f.graph.catalog().lookup("P2").unwrap();
        let model = SystemModel::dedicated(vec![
            NodeType::new("N-r1", f.p1, [f.r1], 1),
            NodeType::new("N-r2", f.p1, [f.r2], 1),
            NodeType::new("N-p2", p2, [], 1),
        ]);
        assert!(mergeable(&model, &f.graph, &[f.a, f.d]));
        assert!(mergeable(&model, &f.graph, &[f.b, f.d]));
        assert!(!mergeable(&model, &f.graph, &[f.a, f.b]));
        // A richer node type makes the pair mergeable.
        let rich = SystemModel::dedicated(vec![NodeType::new("N-both", f.p1, [f.r1, f.r2], 1)]);
        assert!(mergeable(&rich, &f.graph, &[f.a, f.b, f.d]));
        assert!(!mergeable(&rich, &f.graph, &[f.a, f.c])); // c's P2 unhostable
    }

    #[test]
    fn merge_set_grows_incrementally() {
        let f = fixture();
        let p2 = f.graph.catalog().lookup("P2").unwrap();
        let model = SystemModel::dedicated(vec![
            NodeType::new("N-r1", f.p1, [f.r1], 1),
            NodeType::new("N-r1r2", f.p1, [f.r1, f.r2], 1),
            NodeType::new("N-p2", p2, [], 1),
        ]);
        let mut set = MergeSet::new(&model, &f.graph, f.a).unwrap();
        assert!(set.can_add(f.b));
        assert!(set.add(f.b));
        assert!(!set.can_add(f.c));
        assert!(!set.add(f.c));
        assert!(set.add(f.d));
    }

    #[test]
    fn unhostable_seed_yields_none() {
        let f = fixture();
        // Model with no node types at all.
        let model = SystemModel::dedicated(vec![]);
        assert!(MergeSet::new(&model, &f.graph, f.a).is_none());
        assert!(!mergeable(&model, &f.graph, &[f.a]));
    }

    #[test]
    fn shared_merge_set_ignores_resources() {
        let f = fixture();
        let model = SystemModel::shared();
        let mut set = MergeSet::new(&model, &f.graph, f.a).unwrap();
        assert!(set.add(f.b));
        assert!(set.add(f.d));
        assert!(!set.add(f.c));
    }
}

//! Scheduling and validation for the *dedicated* system model.
//!
//! In the dedicated model the system is a multiset of node instances,
//! each of a type from `Λ` (a processor plus dedicated resources). A task
//! runs on a node whose type can host it; co-located tasks communicate
//! for free, tasks on different nodes pay the message time; a node runs
//! one task at a time (its resources are private, so resource contention
//! is *within* the node only, and a single-processor node serializes
//! them anyway).
//!
//! This module provides the node-mix capacity type, a schedule
//! representation and validator, and a complete exact feasibility search
//! for small instances. Together they close the loop on Section 7: the
//! experiments check that every *feasible* node mix satisfies the
//! coverage constraints `Σ x_n γ_nr ≥ LB_r` and costs at least the
//! dedicated cost bound.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use rtlb_core::{DedicatedModel, NodeTypeId};
use rtlb_graph::{TaskGraph, TaskId, Time};

use crate::schedule::Slice;

/// How many node instances of each type a candidate dedicated system has
/// (the decision vector `x_n` of Section 7).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeMix {
    counts: BTreeMap<NodeTypeId, u32>,
}

impl NodeMix {
    /// An empty mix (no nodes).
    pub fn new() -> NodeMix {
        NodeMix::default()
    }

    /// Builder-style count assignment.
    pub fn with(mut self, n: NodeTypeId, count: u32) -> NodeMix {
        self.set(n, count);
        self
    }

    /// Sets the instance count of a node type.
    pub fn set(&mut self, n: NodeTypeId, count: u32) {
        self.counts.insert(n, count);
    }

    /// Instance count of a node type (zero if never set).
    pub fn count(&self, n: NodeTypeId) -> u32 {
        self.counts.get(&n).copied().unwrap_or(0)
    }

    /// Total nodes in the mix.
    pub fn total(&self) -> u32 {
        self.counts.values().sum()
    }

    /// Total cost of the mix under the model's node prices
    /// (`Σ x_n · CostN(n)`).
    pub fn cost(&self, model: &DedicatedModel) -> i64 {
        self.counts
            .iter()
            .map(|(&n, &c)| model.node_type(n).cost() * i64::from(c))
            .sum()
    }

    /// Units of resource/processor `r` the mix provides
    /// (`Σ x_n · γ_nr`).
    pub fn units_of(&self, model: &DedicatedModel, r: rtlb_graph::ResourceId) -> u32 {
        self.counts
            .iter()
            .map(|(&n, &c)| model.node_type(n).units_of(r) * c)
            .sum()
    }

    /// Iterates `(node type, count)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeTypeId, u32)> + '_ {
        self.counts.iter().map(|(&n, &c)| (n, c))
    }
}

/// Placement of one task in a dedicated schedule: a node instance
/// (type + index within that type) and an execution slice.
///
/// Dedicated scheduling here is non-preemptive (one slice); preemptive
/// tasks are scheduled without preemption, which is always valid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodePlacement {
    /// The placed task.
    pub task: TaskId,
    /// The node's type.
    pub node_type: NodeTypeId,
    /// Instance index within the type (0-based, `< mix.count(node_type)`).
    pub node_index: u32,
    /// The execution slice (empty slice at a point for zero-computation
    /// tasks).
    pub slice: Slice,
}

/// A complete dedicated-model schedule.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DedicatedSchedule {
    placements: Vec<NodePlacement>,
}

impl DedicatedSchedule {
    /// An empty schedule.
    pub fn new() -> DedicatedSchedule {
        DedicatedSchedule::default()
    }

    /// Adds a placement.
    pub fn place(&mut self, p: NodePlacement) {
        self.placements.push(p);
    }

    /// The placement of a task, if present.
    pub fn placement(&self, task: TaskId) -> Option<&NodePlacement> {
        self.placements.iter().find(|p| p.task == task)
    }

    /// All placements.
    pub fn placements(&self) -> &[NodePlacement] {
        &self.placements
    }
}

/// A violated constraint found by [`validate_dedicated`].
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum DedicatedViolation {
    /// A task has no placement (or is placed twice).
    MissingOrDuplicate(TaskId),
    /// The node type cannot host the task (wrong processor or missing
    /// resources) — Definition of the dedicated model, Section 2.2.
    CannotHost(TaskId),
    /// The node index is at or above the mix's instance count.
    NodeOutOfRange(TaskId),
    /// The slice violates the task's release/deadline window or length.
    WindowOrLength(TaskId),
    /// Two tasks overlap on one node instance.
    NodeConflict(TaskId, TaskId),
    /// A successor starts before its predecessor's message can arrive.
    PrecedenceViolated {
        /// The predecessor.
        from: TaskId,
        /// The successor starting too early.
        to: TaskId,
    },
}

impl fmt::Display for DedicatedViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DedicatedViolation::MissingOrDuplicate(t) => {
                write!(f, "{t} missing or placed twice")
            }
            DedicatedViolation::CannotHost(t) => {
                write!(f, "node type cannot host {t}")
            }
            DedicatedViolation::NodeOutOfRange(t) => {
                write!(f, "{t} placed on a node instance beyond the mix")
            }
            DedicatedViolation::WindowOrLength(t) => {
                write!(f, "{t} violates its window or runs a wrong duration")
            }
            DedicatedViolation::NodeConflict(a, b) => {
                write!(f, "{a} and {b} overlap on one node")
            }
            DedicatedViolation::PrecedenceViolated { from, to } => {
                write!(f, "{to} starts before the message from {from} arrives")
            }
        }
    }
}

impl Error for DedicatedViolation {}

/// Validates a dedicated-model schedule against the application, model
/// and node mix. Returns all violations (empty = valid).
pub fn validate_dedicated(
    graph: &TaskGraph,
    model: &DedicatedModel,
    mix: &NodeMix,
    schedule: &DedicatedSchedule,
) -> Vec<DedicatedViolation> {
    let mut violations = Vec::new();

    let mut seen: BTreeMap<TaskId, usize> = BTreeMap::new();
    for p in schedule.placements() {
        *seen.entry(p.task).or_insert(0) += 1;
    }
    for id in graph.task_ids() {
        if seen.get(&id).copied().unwrap_or(0) != 1 {
            violations.push(DedicatedViolation::MissingOrDuplicate(id));
        }
    }

    for p in schedule.placements() {
        let task = graph.task(p.task);
        if !model.node_type(p.node_type).can_host(task) {
            violations.push(DedicatedViolation::CannotHost(p.task));
        }
        if p.node_index >= mix.count(p.node_type) {
            violations.push(DedicatedViolation::NodeOutOfRange(p.task));
        }
        let len = p.slice.end.since(p.slice.start);
        if len != task.computation()
            || p.slice.start < task.release()
            || p.slice.end > task.deadline()
        {
            violations.push(DedicatedViolation::WindowOrLength(p.task));
        }
    }

    // Node exclusivity.
    let ps = schedule.placements();
    for (i, a) in ps.iter().enumerate() {
        for b in &ps[i + 1..] {
            if a.node_type == b.node_type
                && a.node_index == b.node_index
                && a.slice.overlaps(&b.slice)
            {
                violations.push(DedicatedViolation::NodeConflict(a.task, b.task));
            }
        }
    }

    // Precedence + messages (free within one node instance).
    for (to, _) in graph.tasks() {
        let Some(pt) = schedule.placement(to) else {
            continue;
        };
        for e in graph.predecessors(to) {
            let Some(pf) = schedule.placement(e.other) else {
                continue;
            };
            let colocated = pf.node_type == pt.node_type && pf.node_index == pt.node_index;
            let arrival = if colocated {
                pf.slice.end
            } else {
                pf.slice.end + e.message
            };
            if pt.slice.start < arrival {
                violations.push(DedicatedViolation::PrecedenceViolated { from: e.other, to });
            }
        }
    }

    violations
}

/// Complete exact feasibility search for small dedicated instances:
/// decides whether a (non-preemptive) schedule on the given node mix
/// meets every constraint, returning one if so.
///
/// Same anchored-start argument as the shared-model search
/// ([`find_schedule_exact`](crate::find_schedule_exact)); node instances
/// of one type are symmetry-reduced.
///
/// # Errors
///
/// [`crate::BudgetExceeded`] if more than `budget.nodes` candidate
/// placements are tried.
pub fn find_dedicated_schedule_exact(
    graph: &TaskGraph,
    model: &DedicatedModel,
    mix: &NodeMix,
    budget: crate::SearchBudget,
) -> Result<Option<DedicatedSchedule>, crate::BudgetExceeded> {
    struct S<'a> {
        graph: &'a TaskGraph,
        model: &'a DedicatedModel,
        mix: &'a NodeMix,
        order: Vec<TaskId>,
        placed: Vec<Option<NodePlacement>>,
        used: BTreeMap<NodeTypeId, u32>,
        nodes_left: u64,
        budget: u64,
    }

    impl<'a> S<'a> {
        fn lower_bound(&self, task: TaskId, nt: NodeTypeId, idx: u32) -> Time {
            let t = self.graph.task(task);
            let mut lo = t.release();
            for e in self.graph.predecessors(task) {
                let p = self.placed[e.other.index()].expect("topological order");
                let colocated = p.node_type == nt && p.node_index == idx;
                let arrival = if colocated {
                    p.slice.end
                } else {
                    p.slice.end + e.message
                };
                lo = lo.max(arrival);
            }
            lo
        }

        fn node_free(&self, nt: NodeTypeId, idx: u32, start: Time, end: Time) -> bool {
            self.placed.iter().flatten().all(|p| {
                p.node_type != nt
                    || p.node_index != idx
                    || p.slice.end <= start
                    || p.slice.start >= end
            })
        }

        fn dfs(&mut self, depth: usize) -> Result<bool, crate::BudgetExceeded> {
            if depth == self.order.len() {
                return Ok(true);
            }
            let id = self.order[depth];
            let task = self.graph.task(id);

            for nt in self.model.ids() {
                if !self.model.node_type(nt).can_host(task) {
                    continue;
                }
                let total = self.mix.count(nt);
                let used = self.used.get(&nt).copied().unwrap_or(0);
                for idx in 0..total.min(used + 1) {
                    let lo = self.lower_bound(id, nt, idx);
                    let hi = task.deadline() - task.computation();
                    if lo > hi {
                        continue;
                    }
                    let mut candidates = vec![lo];
                    for p in self.placed.iter().flatten() {
                        if p.slice.end > lo && p.slice.end <= hi {
                            candidates.push(p.slice.end);
                        }
                    }
                    candidates.sort();
                    candidates.dedup();
                    for start in candidates {
                        if self.nodes_left == 0 {
                            return Err(crate::BudgetExceeded { nodes: self.budget });
                        }
                        self.nodes_left -= 1;
                        let end = start + task.computation();
                        if !self.node_free(nt, idx, start, end) {
                            continue;
                        }
                        self.placed[id.index()] = Some(NodePlacement {
                            task: id,
                            node_type: nt,
                            node_index: idx,
                            slice: Slice { start, end },
                        });
                        let fresh = idx == used;
                        if fresh {
                            *self.used.entry(nt).or_insert(0) += 1;
                        }
                        if self.dfs(depth + 1)? {
                            return Ok(true);
                        }
                        if fresh {
                            *self.used.get_mut(&nt).expect("inserted") -= 1;
                        }
                        self.placed[id.index()] = None;
                    }
                }
            }
            Ok(false)
        }
    }

    let mut s = S {
        graph,
        model,
        mix,
        order: graph.topological_order().to_vec(),
        placed: vec![None; graph.task_count()],
        used: BTreeMap::new(),
        nodes_left: budget.nodes,
        budget: budget.nodes,
    };
    if !s.dfs(0)? {
        return Ok(None);
    }
    let mut schedule = DedicatedSchedule::new();
    for p in s.placed.into_iter().flatten() {
        schedule.place(p);
    }
    Ok(Some(schedule))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtlb_core::NodeType;
    use rtlb_graph::{Catalog, Dur, TaskGraphBuilder, TaskSpec};

    struct Fix {
        graph: TaskGraph,
        model: DedicatedModel,
        n_bundle: NodeTypeId, // {P, r}
        n_bare: NodeTypeId,   // {P}
        a: TaskId,            // needs r
        b: TaskId,            // bare
    }

    fn fix() -> Fix {
        let mut c = Catalog::new();
        let p = c.processor("P");
        let r = c.resource("r");
        let mut builder = TaskGraphBuilder::new(c);
        builder.default_deadline(Time::new(20));
        let a = builder
            .add_task(TaskSpec::new("a", Dur::new(3), p).resource(r))
            .unwrap();
        let b = builder
            .add_task(TaskSpec::new("b", Dur::new(4), p))
            .unwrap();
        builder.add_edge(a, b, Dur::new(2)).unwrap();
        let graph = builder.build().unwrap();
        let model = DedicatedModel::new(vec![
            NodeType::new("bundle", p, [r], 10),
            NodeType::new("bare", p, [], 4),
        ]);
        Fix {
            graph,
            model,
            n_bundle: NodeTypeId::from_index(0),
            n_bare: NodeTypeId::from_index(1),
            a,
            b,
        }
    }

    #[test]
    fn node_mix_accounting() {
        let f = fix();
        let mix = NodeMix::new().with(f.n_bundle, 2).with(f.n_bare, 1);
        assert_eq!(mix.total(), 3);
        assert_eq!(mix.cost(&f.model), 24);
        let p = f.graph.catalog().lookup("P").unwrap();
        let r = f.graph.catalog().lookup("r").unwrap();
        assert_eq!(mix.units_of(&f.model, p), 3);
        assert_eq!(mix.units_of(&f.model, r), 2);
        assert_eq!(mix.iter().count(), 2);
    }

    #[test]
    fn exact_search_finds_valid_dedicated_schedule() {
        let f = fix();
        let mix = NodeMix::new().with(f.n_bundle, 1).with(f.n_bare, 1);
        let s =
            find_dedicated_schedule_exact(&f.graph, &f.model, &mix, crate::SearchBudget::default())
                .unwrap()
                .expect("feasible");
        assert!(validate_dedicated(&f.graph, &f.model, &mix, &s).is_empty());
        // Task a must sit on the bundle (only host).
        assert_eq!(s.placement(f.a).unwrap().node_type, f.n_bundle);
    }

    #[test]
    fn single_bundle_colocates_and_serializes() {
        let f = fix();
        let mix = NodeMix::new().with(f.n_bundle, 1);
        let s =
            find_dedicated_schedule_exact(&f.graph, &f.model, &mix, crate::SearchBudget::default())
                .unwrap()
                .expect("feasible on one bundle");
        assert!(validate_dedicated(&f.graph, &f.model, &mix, &s).is_empty());
        // Co-located: b starts right at a's completion (no message).
        assert_eq!(s.placement(f.b).unwrap().slice.start, Time::new(3));
    }

    #[test]
    fn hosting_constraints_make_empty_mix_infeasible() {
        let f = fix();
        let mix = NodeMix::new().with(f.n_bare, 3); // nothing can host a
        let s =
            find_dedicated_schedule_exact(&f.graph, &f.model, &mix, crate::SearchBudget::default())
                .unwrap();
        assert!(s.is_none());
    }

    #[test]
    fn validator_catches_violations() {
        let f = fix();
        let mix = NodeMix::new().with(f.n_bundle, 1).with(f.n_bare, 1);
        let mut s = DedicatedSchedule::new();
        // a on bare (cannot host), b out of range, overlapping a, too
        // early for the message.
        s.place(NodePlacement {
            task: f.a,
            node_type: f.n_bare,
            node_index: 0,
            slice: Slice {
                start: Time::new(0),
                end: Time::new(3),
            },
        });
        s.place(NodePlacement {
            task: f.b,
            node_type: f.n_bare,
            node_index: 5,
            slice: Slice {
                start: Time::new(2),
                end: Time::new(6),
            },
        });
        let v = validate_dedicated(&f.graph, &f.model, &mix, &s);
        assert!(v.contains(&DedicatedViolation::CannotHost(f.a)));
        assert!(v.contains(&DedicatedViolation::NodeOutOfRange(f.b)));
        assert!(v
            .iter()
            .any(|x| matches!(x, DedicatedViolation::PrecedenceViolated { .. })));
        // Missing/duplicate detection.
        let mut s2 = DedicatedSchedule::new();
        s2.place(NodePlacement {
            task: f.a,
            node_type: f.n_bundle,
            node_index: 0,
            slice: Slice {
                start: Time::new(0),
                end: Time::new(3),
            },
        });
        let v2 = validate_dedicated(&f.graph, &f.model, &mix, &s2);
        assert!(v2.contains(&DedicatedViolation::MissingOrDuplicate(f.b)));
    }

    #[test]
    fn node_conflict_detected() {
        let f = fix();
        let mix = NodeMix::new().with(f.n_bundle, 1).with(f.n_bare, 1);
        let mut s = DedicatedSchedule::new();
        s.place(NodePlacement {
            task: f.a,
            node_type: f.n_bundle,
            node_index: 0,
            slice: Slice {
                start: Time::new(0),
                end: Time::new(3),
            },
        });
        s.place(NodePlacement {
            task: f.b,
            node_type: f.n_bundle,
            node_index: 0,
            slice: Slice {
                start: Time::new(2),
                end: Time::new(6),
            },
        });
        let v = validate_dedicated(&f.graph, &f.model, &mix, &s);
        assert!(v
            .iter()
            .any(|x| matches!(x, DedicatedViolation::NodeConflict(_, _))));
    }

    /// Section 7 validity on the fixture: every feasible mix covers the
    /// resource lower bounds and costs at least the dedicated cost bound.
    #[test]
    fn feasible_mixes_respect_cost_bound() {
        use rtlb_core::{analyze, dedicated_cost_bound, SystemModel};
        let f = fix();
        let analysis = analyze(&f.graph, &SystemModel::Dedicated(f.model.clone())).unwrap();
        let cost_lb = dedicated_cost_bound(&f.graph, &f.model, analysis.bounds())
            .unwrap()
            .total;
        let budget = crate::SearchBudget::default();
        let mut feasible_seen = 0;
        for bundles in 0..=2u32 {
            for bares in 0..=2u32 {
                let mix = NodeMix::new()
                    .with(f.n_bundle, bundles)
                    .with(f.n_bare, bares);
                let feasible = find_dedicated_schedule_exact(&f.graph, &f.model, &mix, budget)
                    .unwrap()
                    .is_some();
                if feasible {
                    feasible_seen += 1;
                    assert!(
                        mix.cost(&f.model) >= cost_lb,
                        "feasible mix cheaper than the cost bound"
                    );
                    for b in analysis.bounds() {
                        assert!(mix.units_of(&f.model, b.resource) >= b.bound);
                    }
                }
            }
        }
        assert!(feasible_seen > 0);
    }
}

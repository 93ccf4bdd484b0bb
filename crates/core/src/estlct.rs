//! Earliest start times and latest completion times (Section 4,
//! Figures 2 and 3 of the paper).
//!
//! For every task the analysis computes a lower bound `E_i` on its start
//! time and an upper bound `L_i` on its completion time that *any* feasible
//! schedule must respect. Communication makes this subtle: merging a task
//! with some of its neighbors onto one processor/node removes message
//! delays but forces sequential execution. The greedy algorithms below
//! explore that tradeoff; Theorems 1 and 2 of the paper prove they pick an
//! optimal merge set. Figure 2 is Figure 3 with time reversed, so one
//! scan, [`bound_of`], computes both (see [`Pass`]).
//!
//! ## Correction to Figure 2/3 (documented in DESIGN.md)
//!
//! Figures 2 and 3 stop scanning as soon as one more merge fails to
//! improve the bound (step (d)). That early stop is *unsound*: with
//! successors `(C=2, m=5, D=15)` and `(C=1, m=4, D=13)` of a task with
//! `D=60`, merging either successor alone leaves `L = 8`, so the paper's
//! scan stops — yet merging both yields `L = 12`, and a schedule exists
//! in which the task really completes at 12. An `L` of 8 would therefore
//! overconstrain the window and could inflate `LB_r` beyond the true
//! minimum. (Theorem 1's proof assumes `lst(G ∪ {T}) ≤ L` whenever the
//! scan stops — Case 2a — but the stop may be caused by the *other* min
//! term.)
//!
//! We restore soundness by evaluating Equation 4.1 at **every** mergeable
//! prefix of the lms-sorted candidates and taking the best value. A
//! threshold/exchange argument shows some prefix always attains the
//! optimum over *all* mergeable subsets: for an optimal `A*`, let `j*` be
//! the smallest-lms successor outside `A*`; the prefix
//! `P = {j : lms_j < lms_{j*}} ⊆ A*` satisfies
//! `lct(P) = min(L⁰, lms_{j*}, lst(P)) ≥ lct(A*)` because `lst` only
//! grows on subsets. Subsets of mergeable sets are mergeable in both
//! system models, so stopping at the first non-mergeable prefix is safe.
//! Among tying prefixes the smallest is reported, which reproduces every
//! Table 1 merge set except the `G_9` anomaly discussed in
//! EXPERIMENTS.md.

use std::cmp::Reverse;

use rtlb_graph::{Dur, Edge, TaskGraph, TaskId, Time};
use rtlb_obs::{span, Label, Probe, NULL_PROBE};

use crate::cancel::CancelToken;
use crate::error::AnalysisError;
use crate::merge::MergeSet;
use crate::model::SystemModel;
use crate::timeline::Timeline;

/// A task paired with its message boundary (`lms` or `emr`).
type Boundary = (TaskId, Time);

/// The timing window of one task: `[E_i, L_i]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TaskWindow {
    /// Earliest start time `E_i`.
    pub est: Time,
    /// Latest completion time `L_i`.
    pub lct: Time,
}

/// Result of the EST/LCT analysis over a whole application.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimingAnalysis {
    windows: Vec<TaskWindow>,
    merged_preds: Vec<Vec<TaskId>>,
    merged_succs: Vec<Vec<TaskId>>,
}

impl TimingAnalysis {
    /// The window `[E_i, L_i]` of a task.
    ///
    /// # Panics
    ///
    /// Panics if `t` did not come from the analyzed graph.
    pub fn window(&self, t: TaskId) -> TaskWindow {
        self.windows[t.index()]
    }

    /// Earliest start time `E_i`.
    pub fn est(&self, t: TaskId) -> Time {
        self.window(t).est
    }

    /// Latest completion time `L_i`.
    pub fn lct(&self, t: TaskId) -> Time {
        self.window(t).lct
    }

    /// The predecessors merged with `t` while evaluating `E_t`
    /// (the paper's `M_i`), in merge order.
    pub fn merged_predecessors(&self, t: TaskId) -> &[TaskId] {
        &self.merged_preds[t.index()]
    }

    /// The successors merged with `t` while evaluating `L_t`
    /// (the paper's `G_i`), in merge order.
    pub fn merged_successors(&self, t: TaskId) -> &[TaskId] {
        &self.merged_succs[t.index()]
    }

    /// Tasks whose window cannot contain their computation time —
    /// witnesses that the constraints are unsatisfiable on any system.
    pub fn infeasible_tasks<'g>(
        &self,
        graph: &'g TaskGraph,
    ) -> impl Iterator<Item = TaskId> + use<'_, 'g> {
        graph.task_ids().filter(move |&t| {
            let w = self.window(t);
            w.est + graph.task(t).computation() > w.lct
        })
    }

    /// Errors with the first infeasibility witness, if any.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::Infeasible`] naming a task with `E_i + C_i > L_i`.
    pub fn check_feasible(&self, graph: &TaskGraph) -> Result<(), AnalysisError> {
        match self.infeasible_tasks(graph).next() {
            None => Ok(()),
            Some(t) => Err(AnalysisError::Infeasible {
                task: graph.task(t).name().to_owned(),
                est: self.est(t),
                lct: self.lct(t),
            }),
        }
    }

    /// `E_t` or `L_t`, as `pass` names it.
    pub(crate) fn get(&self, pass: Pass, t: TaskId) -> Time {
        match pass {
            Pass::Est => self.est(t),
            Pass::Lct => self.lct(t),
        }
    }

    /// Stores one [`bound_of`] result: `E_t` and `M_t`, or `L_t` and
    /// `G_t`, copying the merge set into the stored one's allocation. The
    /// incremental session ([`crate::session::AnalysisSession`])
    /// recomputes windows and merge selections task by task through this
    /// instead of re-running both full Figure 2/3 passes.
    pub(crate) fn set(
        &mut self,
        pass: Pass,
        t: TaskId,
        value: Time,
        merged: impl IntoIterator<Item = TaskId>,
    ) {
        let i = t.index();
        let stored = match pass {
            Pass::Est => {
                self.windows[i].est = value;
                &mut self.merged_preds[i]
            }
            Pass::Lct => {
                self.windows[i].lct = value;
                &mut self.merged_succs[i]
            }
        };
        stored.clear();
        stored.extend(merged);
    }
}

/// Outcome of considering one merge candidate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MergeDecision {
    /// The candidate is part of the best (smallest optimal) prefix and
    /// was merged.
    Accepted,
    /// The candidate was evaluated but lies beyond the best prefix;
    /// not merged.
    RejectedNoImprovement,
    /// The candidate is not mergeable with the tasks scanned before it;
    /// the scan stopped here.
    RejectedNotMergeable,
}

/// One step of the greedy merge scan for a single task.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MergeStep {
    /// The successor/predecessor considered for merging.
    pub candidate: TaskId,
    /// Its `lms` (LCT scan) or `emr` (EST scan) value.
    pub boundary: Time,
    /// The bound that merging it would produce.
    pub resulting: Time,
    /// What the algorithm did with it.
    pub decision: MergeDecision,
}

/// Full trace of the merge scan for one task.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskTrace {
    /// The task being bounded.
    pub task: TaskId,
    /// The bound with nothing merged: deadline/release time plus every
    /// immediate neighbor's message boundary honored (the paper's
    /// "if no tasks are merged" value).
    pub base: Time,
    /// The candidates considered, in order.
    pub steps: Vec<MergeStep>,
    /// The final bound.
    pub final_value: Time,
}

/// Traces for every task: how each `L_i` and `E_i` was derived.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TimingTrace {
    /// One LCT trace per task, in reverse topological evaluation order.
    pub lct: Vec<TaskTrace>,
    /// One EST trace per task, in topological evaluation order.
    pub est: Vec<TaskTrace>,
}

/// Computes `E_i` and `L_i` for every task (Figures 2 and 3).
///
/// LCTs are evaluated in reverse topological order, ESTs in topological
/// order, so each task sees final values for its neighbors.
///
/// A task that no node type of a dedicated model can host merges with
/// nothing (Definition 2), so each of its neighbors pays its message;
/// [`crate::analyze`] refuses such a model with
/// [`AnalysisError::UnhostableTask`] instead.
///
/// # Example
///
/// ```
/// use rtlb_core::{compute_timing, SystemModel};
/// use rtlb_graph::{Catalog, Dur, TaskGraphBuilder, TaskSpec, Time};
/// # fn main() -> Result<(), rtlb_graph::GraphError> {
/// let mut catalog = Catalog::new();
/// let p = catalog.processor("P");
/// let mut b = TaskGraphBuilder::new(catalog);
/// b.default_deadline(Time::new(20));
/// let a = b.add_task(TaskSpec::new("a", Dur::new(3), p))?;
/// let z = b.add_task(TaskSpec::new("z", Dur::new(4), p))?;
/// b.add_edge(a, z, Dur::new(5))?;
/// let g = b.build()?;
/// let timing = compute_timing(&g, &SystemModel::shared());
/// assert_eq!(timing.est(a), Time::new(0));
/// // z either waits for the message (0+3+5=8) or merges with a (0+3=3).
/// assert_eq!(timing.est(z), Time::new(3));
/// # Ok(())
/// # }
/// ```
pub fn compute_timing(graph: &TaskGraph, model: &SystemModel) -> TimingAnalysis {
    compute_timing_with(graph, model, &mut Timeline::new())
}

/// Like [`compute_timing`], additionally recording every merge decision.
pub fn compute_timing_traced(
    graph: &TaskGraph,
    model: &SystemModel,
) -> (TimingAnalysis, TimingTrace) {
    let mut trace = TimingTrace::default();
    let analysis = uncancellable(compute_timing_inner(
        graph,
        model,
        &mut Timeline::new(),
        Some(&mut trace),
        &NULL_PROBE,
        &CancelToken::none(),
    ));
    (analysis, trace)
}

/// [`compute_timing`] reporting into `probe` and polling `ctl` once per
/// task in each of the two Figure 2/3 passes: `timing.lct_pass` and
/// `timing.est_pass` spans around the two evaluation orders, plus
/// `timing.merge_candidates` / `timing.merges_accepted` counters for the
/// merge-selection scans. The windows are bit-identical with any probe.
///
/// # Errors
///
/// [`AnalysisError::Deadline`] when `ctl` trips; the partially computed
/// windows are discarded.
pub(crate) fn compute_timing_ctl(
    graph: &TaskGraph,
    model: &SystemModel,
    probe: &dyn Probe,
    ctl: &CancelToken,
) -> Result<TimingAnalysis, AnalysisError> {
    compute_timing_inner(graph, model, &mut Timeline::new(), None, probe, ctl)
}

/// [`compute_timing`] with an explicit packing implementation — the
/// oracle module's sequential re-packing runs through here.
pub(crate) fn compute_timing_with(
    graph: &TaskGraph,
    model: &SystemModel,
    packer: &mut impl Pack,
) -> TimingAnalysis {
    uncancellable(compute_timing_inner(
        graph,
        model,
        packer,
        None,
        &NULL_PROBE,
        &CancelToken::none(),
    ))
}

/// Unwraps a timing result produced under the never-tripping token.
fn uncancellable(result: Result<TimingAnalysis, AnalysisError>) -> TimingAnalysis {
    match result {
        Ok(timing) => timing,
        Err(_) => unreachable!("uncancellable timing computation cannot fail"),
    }
}

fn compute_timing_inner(
    graph: &TaskGraph,
    model: &SystemModel,
    packer: &mut impl Pack,
    mut trace: Option<&mut TimingTrace>,
    probe: &dyn Probe,
    ctl: &CancelToken,
) -> Result<TimingAnalysis, AnalysisError> {
    let n = graph.task_count();
    let mut timing = TimingAnalysis {
        windows: vec![
            TaskWindow {
                est: Time::ZERO,
                lct: Time::ZERO,
            };
            n
        ],
        merged_preds: vec![Vec::new(); n],
        merged_succs: vec![Vec::new(); n],
    };
    let (mut candidates, mut accepted) = (0u64, 0u64);
    let mut scan = MergeScan::default();

    for pass in [Pass::Lct, Pass::Est] {
        let name = match pass {
            Pass::Lct => "timing.lct_pass",
            Pass::Est => "timing.est_pass",
        };
        let _pass = span(probe, name, Label::None);
        for i in pass.order(graph) {
            ctl.check()?;
            let value = bound_of(graph, model, pass, i, &timing, packer, &mut scan);
            candidates += scan.considered() as u64;
            accepted += scan.merged().len() as u64;
            timing.set(pass, i, value, scan.merged());
            if let Some(t) = trace.as_deref_mut() {
                match pass {
                    Pass::Lct => t.lct.push(scan.trace(i)),
                    Pass::Est => t.est.push(scan.trace(i)),
                }
            }
        }
    }
    probe.add("timing.merge_candidates", candidates);
    probe.add("timing.merges_accepted", accepted);
    probe.add("timeline.unions", packer.unions());
    // Distribution across instances: one observation per fixpoint run,
    // so a batch-level registry sees per-instance merge workloads.
    probe.observe("timing.merge_candidates_per_run", candidates);
    Ok(timing)
}

/// Reusable evaluator for the paper's `ect(A)` set packing inside the
/// Figure 2/3 merge scan (`lst(A)` is `−ect` over negated times, see
/// [`Pass`]).
///
/// One packer serves one merge scan at a time: [`Pack::begin`] resets
/// the set, [`Pack::push`] adds a task, and [`Pack::ect_clamped`]
/// returns the packed value of everything pushed since `begin`. The
/// *empty* set has no packing value of its own — the pre-fix helpers
/// returned the raw `Time::MAX`/`Time::MIN` sentinels here, which violate
/// the §7 magnitude envelope the moment they reach Ψ arithmetic — so the
/// read-out is window-clamped: the caller supplies the Figure 3
/// incumbent (`E_i^0`) and gets it back unchanged for the empty set.
///
/// The pipeline packs with the union-find [`Timeline`];
/// [`crate::oracle::compute_timing_paper`] runs the paper's sequential
/// re-packing through the same scan as the differential baseline.
pub(crate) trait Pack {
    /// Starts a fresh (empty) task set, keeping allocations.
    fn begin(&mut self);

    /// Adds a task with window start `est` and computation `c`.
    fn push(&mut self, est: Time, c: Dur);

    /// The paper's `ect(A)` of the current set, clamped from below by
    /// `floor` (Figure 3's `E_i^0` incumbent): `max(floor, ect(A))`, and
    /// exactly `floor` for the empty set.
    fn ect_clamped(&mut self, floor: Time) -> Time;

    /// Segment coalescings performed so far (the `timeline.unions`
    /// counter; 0 for packers without a union-find).
    fn unions(&self) -> u64 {
        0
    }
}

impl Pack for Timeline {
    fn begin(&mut self) {
        self.clear();
    }

    fn push(&mut self, est: Time, c: Dur) {
        self.insert(est.ticks(), c.ticks());
    }

    fn ect_clamped(&mut self, floor: Time) -> Time {
        self.ect().map_or(floor, |f| floor.max(Time::new(f)))
    }

    fn unions(&self) -> u64 {
        Timeline::unions(self)
    }
}

/// One of the two Figure 2/3 bounds.
///
/// Figure 2 is Figure 3 with time reversed: negating every time turns a
/// latest completion `L` into an earliest start `−L`, the successors
/// into the inputs, `lms_j = L_j − C_j − m` into `−lms_j = −L_j + C_j + m`
/// (an `emr`), and the deadline into a release `−D_i`. So [`bound_of`]
/// runs only Figure 3's scan, on times mapped through [`Pass::orient`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) enum Pass {
    /// Figure 3: `E_i` and `M_i` from the predecessors.
    #[default]
    Est,
    /// Figure 2: `L_i` and `G_i` from the successors.
    Lct,
}

impl Pass {
    /// Maps a time into this pass's orientation, where every bound is an
    /// earliest start: the identity for `Est`, negation for `Lct`. It is
    /// its own inverse, and maps the ±`Time::MAX` magnitude envelope onto
    /// itself.
    fn orient(self, t: Time) -> Time {
        match self {
            Pass::Est => t,
            Pass::Lct => Time::new(-t.ticks()),
        }
    }

    /// The neighbors whose bounds feed `i`'s.
    fn inputs(self, graph: &TaskGraph, i: TaskId) -> &[Edge] {
        match self {
            Pass::Est => graph.predecessors(i),
            Pass::Lct => graph.successors(i),
        }
    }

    /// The neighbors whose bounds `i`'s feeds.
    pub(crate) fn outputs(self, graph: &TaskGraph, i: TaskId) -> &[Edge] {
        match self {
            Pass::Est => graph.successors(i),
            Pass::Lct => graph.predecessors(i),
        }
    }

    /// The evaluation order, every task after its inputs: topological
    /// for `Est`, reverse topological for `Lct`.
    pub(crate) fn order(self, graph: &TaskGraph) -> impl Iterator<Item = TaskId> + '_ {
        let topo = graph.topological_order();
        let n = topo.len();
        (0..n).map(move |k| match self {
            Pass::Est => topo[k],
            Pass::Lct => topo[n - 1 - k],
        })
    }
}

/// The merge scan of the last [`bound_of`] evaluation, kept in buffers
/// the caller reuses across evaluations (a timing pass, a session wave):
/// once they have grown, an evaluation allocates nothing, and the trace
/// steps are built only by [`MergeScan::trace`], for a caller that keeps
/// them.
#[derive(Debug, Default)]
pub(crate) struct MergeScan {
    /// The pass whose orientation the times below are in.
    pass: Pass,
    /// The inputs individually mergeable with the task (`MP_i`), with
    /// their oriented `emr`, in scan order.
    candidates: Vec<Boundary>,
    /// The merged set of each scanned prefix of `candidates`: its
    /// Equation 4.5 value, oriented.
    values: Vec<Time>,
    /// Whether the scan stopped at `candidates[values.len()]`, which is
    /// not mergeable with the prefix before it.
    stopped: bool,
    /// The "if no tasks are merged" bound, oriented.
    base: Time,
    /// The best value, oriented, and the length of the shortest prefix
    /// that attains it: the merge set.
    best: Time,
    best_len: usize,
}

impl MergeScan {
    /// Maps an oriented time back to real time.
    fn real(&self, t: Time) -> Time {
        self.pass.orient(t)
    }

    /// The merge set the last evaluation selected, in merge order.
    pub(crate) fn merged(&self) -> impl ExactSizeIterator<Item = TaskId> + '_ {
        self.candidates[..self.best_len].iter().map(|&(j, _)| j)
    }

    /// The candidates the last evaluation considered: one trace step
    /// each (the `timing.merge_candidates` counter).
    pub(crate) fn considered(&self) -> usize {
        self.values.len() + usize::from(self.stopped)
    }

    /// The last evaluation's trace, for task `task`.
    pub(crate) fn trace(&self, task: TaskId) -> TaskTrace {
        let mut steps: Vec<MergeStep> = self
            .values
            .iter()
            .zip(&self.candidates)
            .enumerate()
            .map(|(k, (&value, &(candidate, boundary)))| MergeStep {
                candidate,
                boundary: self.real(boundary),
                resulting: self.real(value),
                decision: if k < self.best_len {
                    MergeDecision::Accepted
                } else {
                    MergeDecision::RejectedNoImprovement
                },
            })
            .collect();
        if self.stopped {
            let (candidate, boundary) = self.candidates[self.values.len()];
            steps.push(MergeStep {
                candidate,
                boundary: self.real(boundary),
                resulting: self.real(self.base),
                decision: MergeDecision::RejectedNotMergeable,
            });
        }
        TaskTrace {
            task,
            base: self.real(self.base),
            steps,
            final_value: self.real(self.best),
        }
    }
}

/// Figure 3 in `pass`'s orientation: `E_i` and the merged predecessor
/// set `M_i`, or `L_i` and the merged successor set `G_i` (Figure 2).
/// Returns the value in real time and leaves the scan — the merge set,
/// and what a trace needs — in `scan`.
///
/// Pure in the task's own limit (`rel_i` or `D_i`), its inputs' values
/// and computations, the messages and the model — the incremental
/// session relies on this to recompute single tasks out of band. The
/// `packer` and the buffers of `scan` are pure scratch (every [`Pack`]
/// yields identical values).
pub(crate) fn bound_of(
    graph: &TaskGraph,
    model: &SystemModel,
    pass: Pass,
    i: TaskId,
    timing: &TimingAnalysis,
    packer: &mut impl Pack,
    scan: &mut MergeScan,
) -> Time {
    let task = graph.task(i);
    let o = |t: Time| pass.orient(t);
    let limit = o(match pass {
        Pass::Est => task.release(),
        Pass::Lct => task.deadline(),
    });
    let inputs = pass.inputs(graph, i);
    scan.pass = pass;
    scan.candidates.clear();
    scan.values.clear();
    scan.stopped = false;
    scan.base = limit;
    scan.best = limit;
    scan.best_len = 0;
    if inputs.is_empty() {
        return o(limit);
    }

    // MP_i: inputs individually mergeable with i, each with its
    // emr_j = E_j + C_j + m_ji (for Lct: −lms_j). Figure 3's E_i^0 =
    // max(rel_i, max over non-mergeable inputs of emr), with −D_i for
    // rel_i on reversed time. A task no node type can host has no merge
    // set (`seed` is `None`), so every input pays its message.
    let mut seed = MergeSet::new(model, graph, i);
    let mut fig_e0 = limit;
    for e in inputs {
        let j = e.other;
        let emr = o(timing.get(pass, j)) + graph.task(j).computation() + e.message;
        if seed.as_ref().is_some_and(|s| s.can_add(j)) {
            scan.candidates.push((j, emr));
        } else {
            fig_e0 = fig_e0.max(emr);
        }
    }

    // Scan MP_i in decreasing emr order. The scan incumbent additionally
    // honors the emr of every still-unmerged mergeable input (Equation
    // 4.5 with A = ∅) — this is the "if no tasks are merged" bound of the
    // paper's worked example.
    scan.candidates.sort_by_key(|&(j, b)| (Reverse(b), j));
    let base = scan
        .candidates
        .first()
        .map_or(fig_e0, |&(_, b)| fig_e0.max(b));
    scan.base = base;

    // Evaluate Equation 4.5 at every mergeable prefix; remember the best
    // (ties: shortest prefix). See the module docs for why prefixes
    // suffice and why scanning all of them is required for soundness.
    // The packer evaluates `ect` of each prefix incrementally: one push
    // per candidate instead of a re-sorted re-pack per prefix.
    packer.begin();
    let (mut best, mut best_len) = (base, 0usize);
    for (idx, &(j, _)) in scan.candidates.iter().enumerate() {
        if !seed.as_mut().is_some_and(|s| s.add(j)) {
            scan.stopped = true;
            break;
        }
        packer.push(o(timing.get(pass, j)), graph.task(j).computation());
        let mut value = packer.ect_clamped(fig_e0);
        if let Some(&(_, b)) = scan.candidates.get(idx + 1) {
            value = value.max(b); // sorted descending: first remaining is max
        }
        scan.values.push(value);
        // Strict < keeps ties short.
        if value < best {
            best = value;
            best_len = idx + 1;
        }
    }
    scan.best = best;
    scan.best_len = best_len;
    o(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtlb_graph::{Catalog, Dur, TaskGraphBuilder, TaskSpec};

    fn shared() -> SystemModel {
        SystemModel::shared()
    }

    /// Two tasks on different processor types, connected by an edge:
    /// no merging possible, message delay applies on both sides.
    #[test]
    fn unmergeable_chain_pays_communication() {
        let mut c = Catalog::new();
        let p1 = c.processor("P1");
        let p2 = c.processor("P2");
        let mut b = TaskGraphBuilder::new(c);
        b.default_deadline(Time::new(30));
        let a = b.add_task(TaskSpec::new("a", Dur::new(3), p1)).unwrap();
        let z = b.add_task(TaskSpec::new("z", Dur::new(4), p2)).unwrap();
        b.add_edge(a, z, Dur::new(5)).unwrap();
        let g = b.build().unwrap();
        let t = compute_timing(&g, &shared());
        // E_z = E_a + C_a + m = 0 + 3 + 5.
        assert_eq!(t.est(z), Time::new(8));
        // L_a = L_z - C_z - m = 30 - 4 - 5.
        assert_eq!(t.lct(a), Time::new(21));
        assert_eq!(t.lct(z), Time::new(30));
        assert!(t.merged_successors(a).is_empty());
        assert!(t.merged_predecessors(z).is_empty());
        t.check_feasible(&g).unwrap();
    }

    /// Same chain but on one processor type: merging removes the message.
    #[test]
    fn mergeable_chain_avoids_communication() {
        let mut c = Catalog::new();
        let p = c.processor("P");
        let mut b = TaskGraphBuilder::new(c);
        b.default_deadline(Time::new(30));
        let a = b.add_task(TaskSpec::new("a", Dur::new(3), p)).unwrap();
        let z = b.add_task(TaskSpec::new("z", Dur::new(4), p)).unwrap();
        b.add_edge(a, z, Dur::new(5)).unwrap();
        let g = b.build().unwrap();
        let t = compute_timing(&g, &shared());
        // Merged: E_z = ect({a}) = 3; L_a = lst({z}) = 30 - 4 = 26.
        assert_eq!(t.est(z), Time::new(3));
        assert_eq!(t.lct(a), Time::new(26));
        assert_eq!(t.merged_successors(a), &[z]);
        assert_eq!(t.merged_predecessors(z), &[a]);
    }

    /// Merging is only chosen when it strictly helps: with a zero-size
    /// message the bound is the same either way, so the candidate is
    /// rejected (Figure 2 step (d)).
    #[test]
    fn zero_message_rejects_merge_on_equality() {
        let mut c = Catalog::new();
        let p = c.processor("P");
        let mut b = TaskGraphBuilder::new(c);
        b.default_deadline(Time::new(10));
        let a = b.add_task(TaskSpec::new("a", Dur::new(2), p)).unwrap();
        let z = b.add_task(TaskSpec::new("z", Dur::new(2), p)).unwrap();
        b.add_edge(a, z, Dur::ZERO).unwrap();
        let g = b.build().unwrap();
        let (t, trace) = compute_timing_traced(&g, &shared());
        assert_eq!(t.est(z), Time::new(2));
        // lms_z = 10 - 2 - 0 = 8 = lst({z}): merging leaves the bound
        // unchanged, so nothing is merged.
        assert_eq!(t.lct(a), Time::new(8));
        assert!(t.merged_successors(a).is_empty());
        let a_trace = trace.lct.iter().find(|tr| tr.task == a).unwrap();
        assert_eq!(a_trace.steps.len(), 1);
        assert_eq!(
            a_trace.steps[0].decision,
            MergeDecision::RejectedNoImprovement
        );
    }

    /// A fan-out where merging every successor would serialize too much:
    /// the greedy scan stops once merging stops helping.
    #[test]
    fn fanout_merges_selectively() {
        let mut c = Catalog::new();
        let p = c.processor("P");
        let mut b = TaskGraphBuilder::new(c);
        b.default_deadline(Time::new(20));
        let root = b.add_task(TaskSpec::new("root", Dur::new(1), p)).unwrap();
        let s1 = b.add_task(TaskSpec::new("s1", Dur::new(8), p)).unwrap();
        let s2 = b.add_task(TaskSpec::new("s2", Dur::new(8), p)).unwrap();
        b.add_edge(root, s1, Dur::new(1)).unwrap();
        b.add_edge(root, s2, Dur::new(1)).unwrap();
        let g = b.build().unwrap();
        let t = compute_timing(&g, &shared());
        // Without merging: lms = 20-8-1 = 11 for both. Merging one: the
        // other still bounds at 11, lst({s}) = 12 → L = 11 (no strict
        // gain → rejected). Merging both would give lst = 20-8-8 = 4.
        assert_eq!(t.lct(root), Time::new(11));
        assert!(t.merged_successors(root).is_empty());
    }

    /// Paper prose for L_9: merging 14 helps (18 → 19), merging 13 keeps
    /// 19 — no strict improvement, so 13 is rejected (the paper's table
    /// prints G_9 = {14,13}; see the module docs on tie handling).
    #[test]
    fn lct_scan_matches_paper_shape() {
        let mut c = Catalog::new();
        let p = c.processor("P1");
        let mut b = TaskGraphBuilder::new(c);
        b.default_deadline(Time::new(36));
        // task 9: C=3. Successors: 13 (C=6, L=30, m=5), 14 (C=5, L=30,
        // m=7), 15 (C=6, L=36, m=4).
        let t9 = b.add_task(TaskSpec::new("t9", Dur::new(3), p)).unwrap();
        let t13 = b
            .add_task(TaskSpec::new("t13", Dur::new(6), p).deadline(Time::new(30)))
            .unwrap();
        let t14 = b
            .add_task(TaskSpec::new("t14", Dur::new(5), p).deadline(Time::new(30)))
            .unwrap();
        let t15 = b
            .add_task(TaskSpec::new("t15", Dur::new(6), p).deadline(Time::new(36)))
            .unwrap();
        b.add_edge(t9, t13, Dur::new(5)).unwrap();
        b.add_edge(t9, t14, Dur::new(7)).unwrap();
        b.add_edge(t9, t15, Dur::new(4)).unwrap();
        let g = b.build().unwrap();
        let t = compute_timing(&g, &shared());
        assert_eq!(t.lct(t9), Time::new(19));
        assert_eq!(t.merged_successors(t9), &[t14]);
    }

    #[test]
    fn release_time_dominates_isolated_task() {
        let mut c = Catalog::new();
        let p = c.processor("P");
        let mut b = TaskGraphBuilder::new(c);
        b.default_deadline(Time::new(9));
        let a = b
            .add_task(TaskSpec::new("a", Dur::new(2), p).release(Time::new(4)))
            .unwrap();
        let g = b.build().unwrap();
        let t = compute_timing(&g, &shared());
        assert_eq!(t.est(a), Time::new(4));
        assert_eq!(t.lct(a), Time::new(9));
        assert_eq!(
            t.window(a),
            TaskWindow {
                est: Time::new(4),
                lct: Time::new(9)
            }
        );
    }

    #[test]
    fn infeasibility_is_detected() {
        let mut c = Catalog::new();
        let p1 = c.processor("P1");
        let p2 = c.processor("P2");
        let mut b = TaskGraphBuilder::new(c);
        // a -> z with a long message and a tight deadline on z.
        let a = b
            .add_task(TaskSpec::new("a", Dur::new(3), p1).deadline(Time::new(20)))
            .unwrap();
        let z = b
            .add_task(TaskSpec::new("z", Dur::new(4), p2).deadline(Time::new(8)))
            .unwrap();
        b.add_edge(a, z, Dur::new(5)).unwrap();
        let g = b.build().unwrap();
        let t = compute_timing(&g, &shared());
        // E_z = 8, L_z = 8, C_z = 4 → z infeasible; the message constraint
        // also drags L_a down to 8 - 4 - 5 = -1 < E_a + C_a, so a is an
        // infeasibility witness too.
        assert_eq!(t.infeasible_tasks(&g).collect::<Vec<_>>(), vec![a, z]);
        assert!(matches!(
            t.check_feasible(&g),
            Err(AnalysisError::Infeasible { task, .. }) if task == "a"
        ));
    }

    #[test]
    fn deadline_caps_lct_even_with_late_successors() {
        let mut c = Catalog::new();
        let p = c.processor("P");
        let mut b = TaskGraphBuilder::new(c);
        b.default_deadline(Time::new(100));
        let a = b
            .add_task(TaskSpec::new("a", Dur::new(1), p).deadline(Time::new(5)))
            .unwrap();
        let z = b.add_task(TaskSpec::new("z", Dur::new(1), p)).unwrap();
        b.add_edge(a, z, Dur::ZERO).unwrap();
        let g = b.build().unwrap();
        let t = compute_timing(&g, &shared());
        assert_eq!(t.lct(a), Time::new(5));
    }

    #[test]
    fn traces_record_base_and_final() {
        let mut c = Catalog::new();
        let p = c.processor("P");
        let mut b = TaskGraphBuilder::new(c);
        b.default_deadline(Time::new(30));
        let a = b.add_task(TaskSpec::new("a", Dur::new(3), p)).unwrap();
        let z = b.add_task(TaskSpec::new("z", Dur::new(4), p)).unwrap();
        b.add_edge(a, z, Dur::new(5)).unwrap();
        let g = b.build().unwrap();
        let (t, trace) = compute_timing_traced(&g, &shared());
        assert_eq!(trace.lct.len(), 2);
        assert_eq!(trace.est.len(), 2);
        let a_trace = trace.lct.iter().find(|tr| tr.task == a).unwrap();
        assert_eq!(a_trace.base, Time::new(21)); // lms without merging
        assert_eq!(a_trace.final_value, t.lct(a));
        assert_eq!(a_trace.steps[0].decision, MergeDecision::Accepted);
        let z_trace = trace.est.iter().find(|tr| tr.task == z).unwrap();
        assert_eq!(z_trace.base, Time::new(8));
        assert_eq!(z_trace.final_value, Time::new(3));
    }

    /// A tripped token interrupts the timing passes; a live one is
    /// invisible (bit-identical windows).
    #[test]
    fn cancel_token_threads_through_timing() {
        use rtlb_obs::NULL_PROBE;
        let mut c = Catalog::new();
        let p = c.processor("P");
        let mut b = TaskGraphBuilder::new(c);
        b.default_deadline(Time::new(30));
        let a = b.add_task(TaskSpec::new("a", Dur::new(3), p)).unwrap();
        let z = b.add_task(TaskSpec::new("z", Dur::new(4), p)).unwrap();
        b.add_edge(a, z, Dur::new(5)).unwrap();
        let g = b.build().unwrap();

        let live = CancelToken::new();
        let timing = compute_timing_ctl(&g, &shared(), &NULL_PROBE, &live).unwrap();
        assert_eq!(timing, compute_timing(&g, &shared()));

        let tripped = CancelToken::new();
        tripped.cancel();
        assert_eq!(
            compute_timing_ctl(&g, &shared(), &NULL_PROBE, &tripped),
            Err(AnalysisError::Deadline)
        );
    }
}

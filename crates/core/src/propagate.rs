//! Capacity-conditional window filtering (detectable precedences and
//! edge-finding-style overload checks) on top of the Figure 2/3 fixpoint.
//!
//! The paper's `LB_r` answers "what must `Θ/(t2−t1)` force, whatever the
//! deployment does". Constraint-programming propagators for disjunctive
//! and cumulative scheduling answer a complementary question: *assuming*
//! a capacity `c` for resource `r`, which task orderings and placements
//! become forced — and does the assumption collapse into a
//! contradiction? Every capacity the filter refutes raises the lower
//! bound by one: feasibility is monotone in capacity (a schedule for
//! `c` units is a schedule for `c+1`), so a sound refutation of `c`
//! proves `LB_r ≥ c + 1`.
//!
//! Unconditional window shrinking would be unsound here — the adversary
//! deploying the application chooses co-locations, and the Figure 2/3
//! windows are already the tightest unconditional ones this model
//! admits. All tightening below therefore happens on *local copies* of
//! the windows, inside one capacity hypothesis, and is discarded
//! afterwards; only refutations survive, as increments to `LB_r`.
//!
//! Rules, per partition block of demanders (Theorem 5 lets blocks be
//! treated independently):
//!
//! 1. **Overload** (any `c`): `Θ > c · (t2 − t1)` on any candidate
//!    interval refutes `c` — Equation 6.3 restated under the hypothesis.
//! 2. **Energetic placement** (any `c`, non-preemptive tasks): if the
//!    capacity left over for task `j` on an interval cannot fit its full
//!    overlap, `j` is forced to finish early or start late; if its
//!    window allows only one side, the window copy tightens, and if
//!    neither, `c` is refuted.
//! 3. **Detectable precedence** (`c = 1`, non-preemptive): two demanders
//!    cannot overlap on a single unit, so `ect_j > lst_i` forces
//!    `i ≺ j`; the [`Timeline`] packing of a task's forced predecessors
//!    then lifts its local `E`, and of its forced successors lowers its
//!    local `L`. Mutually impossible orders refute `c`.
//! 4. **Single-unit overload** (`c = 1`): for each deadline-ordered
//!    prefix `S = {j : L_j ≤ L_k}`, a Timeline `ect(S) > L_k` refutes
//!    `c` — the preemptive-relaxation feasibility test, so it is sound
//!    for preemptive demanders too.
//!
//! The rules only ever tighten windows of non-preemptive tasks with
//! positive computation; preemptive tasks still contribute their Ψ
//! demand. Validity of the composed bound is property-tested against the
//! `rtlb-sched` exact search in `tests/propagation_dominance.rs`, along
//! with dominance over the unfiltered level.

use rtlb_graph::{ExecutionMode, TaskGraph, TaskId, Time};
use rtlb_obs::Probe;

use crate::cancel::CancelToken;
use crate::error::AnalysisError;
use crate::estlct::{TaskWindow, TimingAnalysis};
use crate::overlap::overlap;
use crate::timeline::Timeline;

/// Which filtering level the analysis runs at.
///
/// Both levels pack the Figure 2/3 windows with the union-find
/// Timeline; `Filtered` additionally runs the capacity-conditional
/// propagation pass and can only raise bounds. The paper's sequential
/// `lst`/`ect` packing survives as
/// [`crate::oracle::compute_timing_paper`], the differential baseline
/// for the Timeline windows.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PropagationLevel {
    /// Union-find Timeline packing (default); no filtering.
    #[default]
    Timeline,
    /// Timeline packing plus detectable-precedence / edge-finding
    /// filtering after the sweep; bounds dominate the other levels.
    Filtered,
}

impl PropagationLevel {
    /// The stable spelling used by the CLI flag and the semantic
    /// fingerprint.
    pub fn label(self) -> &'static str {
        match self {
            PropagationLevel::Timeline => "timeline",
            PropagationLevel::Filtered => "filtered",
        }
    }

    /// Parses the CLI spelling back into a level.
    pub fn parse(s: &str) -> Option<PropagationLevel> {
        match s {
            "timeline" => Some(PropagationLevel::Timeline),
            "filtered" => Some(PropagationLevel::Filtered),
            _ => None,
        }
    }

    /// Whether the post-sweep filtering pass runs at this level.
    pub(crate) fn filters(self) -> bool {
        matches!(self, PropagationLevel::Filtered)
    }
}

/// Blocks larger than this skip filtering (the pass is cubic in block
/// size); the sweep bound still stands, so skipping only costs tightness.
const MAX_REFINE_TASKS: usize = 96;

/// Local-tightening fixpoint rounds per capacity hypothesis.
const MAX_ROUNDS: usize = 8;

/// One demander's state local to a capacity hypothesis: windows start as
/// the Figure 2/3 windows and only ever tighten.
#[derive(Clone, Copy)]
struct Item {
    e: i64,
    l: i64,
    c: i64,
    preemptive: bool,
}

impl Item {
    /// Mandatory overlap Ψ of this item with `[t1, t2)` under its
    /// current local window.
    fn psi(&self, t1: i64, t2: i64) -> i64 {
        let window = TaskWindow {
            est: Time::new(self.e),
            lct: Time::new(self.l),
        };
        let mode = if self.preemptive {
            ExecutionMode::Preemptive
        } else {
            ExecutionMode::NonPreemptive
        };
        overlap(
            window,
            rtlb_graph::Dur::new(self.c),
            mode,
            Time::new(t1),
            Time::new(t2),
        )
        .ticks()
    }
}

/// The smallest capacity for `tasks` (one partition block's demanders of
/// one resource) that the filter cannot refute.
///
/// Pure in the members' `(C, mode, E, L)` — the incremental session
/// caches the result per block under exactly the invariants that let it
/// reuse the block's sweep maxima.
///
/// # Errors
///
/// [`AnalysisError::Deadline`] when `ctl` trips.
pub(crate) fn refine_block(
    graph: &TaskGraph,
    timing: &TimingAnalysis,
    tasks: &[TaskId],
    probe: &dyn Probe,
    ctl: &CancelToken,
) -> Result<u32, AnalysisError> {
    let items: Vec<Item> = tasks
        .iter()
        .map(|&t| {
            let task = graph.task(t);
            let w = timing.window(t);
            Item {
                e: w.est.ticks(),
                l: w.lct.ticks(),
                c: task.computation().ticks(),
                preemptive: task.is_preemptive(),
            }
        })
        .collect();
    let positive = items.iter().filter(|i| i.c > 0).count() as u32;
    if positive == 0 {
        return Ok(0);
    }
    if items.len() > MAX_REFINE_TASKS {
        probe.add("propagate.blocks_skipped", 1);
        return Ok(0);
    }

    // Start from the density bound on this block's Extended-corner grid
    // (a valid lower bound on its own), then climb while capacities keep
    // refuting. `positive` units always suffice within this filter's
    // rules — every demander can hold its own unit — so the climb is
    // bounded even if a rule were ever to misfire.
    let mut c = density_floor(&items, ctl)?;
    while c < positive {
        ctl.check()?;
        if !refuted(c, &items, probe, ctl)? {
            break;
        }
        probe.add("propagate.capacities_refuted", 1);
        c += 1;
    }
    Ok(c)
}

/// `⌈max Θ/(t2−t1)⌉` over the corner grid of the items' own windows.
fn density_floor(items: &[Item], ctl: &CancelToken) -> Result<u32, AnalysisError> {
    let points = corner_grid(items);
    let mut best: u32 = 0;
    for (i, &t1) in points.iter().enumerate() {
        ctl.check()?;
        for &t2 in &points[i + 1..] {
            let len = t2 - t1;
            let theta: i64 = items.iter().map(|it| it.psi(t1, t2)).sum();
            // ⌈theta/len⌉ without floats; theta ≤ Σ C so this fits u32
            // whenever the instance passed the magnitude guard with a
            // representable bound at all.
            let ratio = theta.div_euclid(len) + i64::from(theta.rem_euclid(len) != 0);
            best = best.max(ratio.try_into().unwrap_or(u32::MAX));
        }
    }
    Ok(best)
}

/// The interval endpoints worth testing: every window corner and
/// forced-overlap corner of every item, deduplicated and sorted.
fn corner_grid(items: &[Item]) -> Vec<i64> {
    let mut points: Vec<i64> = items
        .iter()
        .flat_map(|it| [it.e, it.l, it.e + it.c, it.l - it.c])
        .collect();
    points.sort_unstable();
    points.dedup();
    points
}

/// Does assuming capacity `c` collapse into a contradiction?
fn refuted(
    c: u32,
    base: &[Item],
    probe: &dyn Probe,
    ctl: &CancelToken,
) -> Result<bool, AnalysisError> {
    let mut items = base.to_vec();
    for _ in 0..MAX_ROUNDS {
        ctl.check()?;
        // Rule 2 wipeout check, first and after every tightening round.
        if items.iter().any(|it| it.e + it.c > it.l) {
            return Ok(true);
        }
        if c == 1 && single_unit_overload(&items) {
            return Ok(true);
        }
        let mut changed = false;
        match energetic_round(c, &mut items, ctl)? {
            RoundOutcome::Refuted => return Ok(true),
            RoundOutcome::Tightened => changed = true,
            RoundOutcome::Fixpoint => {}
        }
        if c == 1 {
            match precedence_round(&mut items, probe) {
                RoundOutcome::Refuted => return Ok(true),
                RoundOutcome::Tightened => changed = true,
                RoundOutcome::Fixpoint => {}
            }
        }
        if !changed {
            return Ok(false);
        }
    }
    Ok(false)
}

enum RoundOutcome {
    Refuted,
    Tightened,
    Fixpoint,
}

/// Rules 1 and 2: interval overload and energetic placement of
/// non-preemptive tasks, over the current corner grid.
fn energetic_round(
    c: u32,
    items: &mut [Item],
    ctl: &CancelToken,
) -> Result<RoundOutcome, AnalysisError> {
    let points = corner_grid(items);
    let capacity = i128::from(c);
    let mut outcome = RoundOutcome::Fixpoint;
    for (i, &t1) in points.iter().enumerate() {
        ctl.check()?;
        for &t2 in &points[i + 1..] {
            let len = t2 - t1;
            let supply = capacity * i128::from(len);
            let theta: i64 = items.iter().map(|it| it.psi(t1, t2)).sum();
            if i128::from(theta) > supply {
                return Ok(RoundOutcome::Refuted);
            }
            for item in items.iter_mut() {
                let it = *item;
                if it.preemptive || it.c == 0 {
                    continue;
                }
                let full = it.c.min(len);
                let avail128 = supply - i128::from(theta - it.psi(t1, t2));
                if avail128 >= i128::from(full) {
                    continue;
                }
                // theta - psi_j ≤ theta ≤ supply held above, so
                // 0 ≤ avail < full ≤ C_j fits i64.
                let avail = avail128 as i64;
                // A start s overlaps [t1,t2) by ≤ avail iff it finishes
                // early (s + C_j ≤ t1 + avail) or enters late
                // (s ≥ t2 − avail).
                let s_left_max = t1 - it.c + avail;
                let s_right_min = t2 - avail;
                let can_left = it.e <= s_left_max;
                let can_right = it.l - it.c >= s_right_min;
                match (can_left, can_right) {
                    (false, false) => return Ok(RoundOutcome::Refuted),
                    (false, true) if it.e < s_right_min => {
                        item.e = s_right_min;
                        outcome = RoundOutcome::Tightened;
                    }
                    (true, false) if it.l > s_left_max + it.c => {
                        item.l = s_left_max + it.c;
                        outcome = RoundOutcome::Tightened;
                    }
                    _ => {}
                }
            }
        }
    }
    Ok(outcome)
}

/// Rule 4: on a single unit, each deadline-ordered demander prefix must
/// complete by its deadline even preemptively.
fn single_unit_overload(items: &[Item]) -> bool {
    let mut by_deadline: Vec<&Item> = items.iter().filter(|it| it.c > 0).collect();
    by_deadline.sort_by_key(|it| it.l);
    let mut timeline = Timeline::new();
    for it in by_deadline {
        timeline.insert(it.e, it.c);
        if timeline.ect().is_some_and(|e| e > it.l) {
            return true;
        }
    }
    false
}

/// Rule 3: detectable precedences between non-preemptive demanders of a
/// single unit, then Timeline packing of the forced sets.
fn precedence_round(items: &mut [Item], probe: &dyn Probe) -> RoundOutcome {
    let n = items.len();
    // contenders: indices of non-preemptive positive-work demanders.
    let contenders: Vec<usize> = (0..n)
        .filter(|&i| !items[i].preemptive && items[i].c > 0)
        .collect();
    // forced[a] = set of contenders that must precede `a`.
    let mut forced_before: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut forced_after: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut pairs = 0u64;
    for (x, &a) in contenders.iter().enumerate() {
        for &b in &contenders[x + 1..] {
            // `a` can run before `b` iff ect_a ≤ lst_b.
            let a_first = items[a].e + items[a].c <= items[b].l - items[b].c;
            let b_first = items[b].e + items[b].c <= items[a].l - items[a].c;
            match (a_first, b_first) {
                (false, false) => {
                    probe.add("propagate.pairs_filtered", pairs + 1);
                    return RoundOutcome::Refuted;
                }
                (true, false) => {
                    forced_before[b].push(a);
                    forced_after[a].push(b);
                    pairs += 1;
                }
                (false, true) => {
                    forced_before[a].push(b);
                    forced_after[b].push(a);
                    pairs += 1;
                }
                (true, true) => {}
            }
        }
    }
    probe.add("propagate.pairs_filtered", pairs);
    if pairs == 0 {
        return RoundOutcome::Fixpoint;
    }
    let mut outcome = RoundOutcome::Fixpoint;
    let mut timeline = Timeline::new();
    for j in 0..n {
        if !forced_before[j].is_empty() {
            timeline.clear();
            for &i in &forced_before[j] {
                timeline.insert(items[i].e, items[i].c);
            }
            if let Some(ect) = timeline.ect() {
                if ect > items[j].e {
                    items[j].e = ect;
                    outcome = RoundOutcome::Tightened;
                }
            }
        }
        if !forced_after[j].is_empty() {
            timeline.clear();
            for &k in &forced_after[j] {
                timeline.insert(-items[k].l, items[k].c);
            }
            if let Some(ect) = timeline.ect() {
                let lst = -ect;
                if lst < items[j].l {
                    items[j].l = lst;
                    outcome = RoundOutcome::Tightened;
                }
            }
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estlct::compute_timing;
    use crate::model::SystemModel;
    use rtlb_graph::{Catalog, Dur, ResourceId, TaskGraphBuilder, TaskSpec};
    use rtlb_obs::NULL_PROBE;

    /// Three non-preemptive demanders where the density bound says one
    /// unit is enough but the precedence cascade proves it is not:
    /// `s[0,4] C=3` forces itself before `a[0,11] C=5`, lifting `a` to
    /// start at 3; then `a` and `b[5,7] C=2` each finish too late to let
    /// the other run — capacity 1 is refuted, capacity 2 stands.
    fn cascade_graph() -> (rtlb_graph::TaskGraph, ResourceId) {
        let mut c = Catalog::new();
        let p = c.processor("P");
        let r = c.resource("r");
        let mut b = TaskGraphBuilder::new(c);
        b.add_task(
            TaskSpec::new("s", Dur::new(3), p)
                .release(Time::new(0))
                .deadline(Time::new(4))
                .resource(r),
        )
        .unwrap();
        b.add_task(
            TaskSpec::new("a", Dur::new(5), p)
                .release(Time::new(0))
                .deadline(Time::new(11))
                .resource(r),
        )
        .unwrap();
        b.add_task(
            TaskSpec::new("b", Dur::new(2), p)
                .release(Time::new(5))
                .deadline(Time::new(7))
                .resource(r),
        )
        .unwrap();
        (b.build().unwrap(), r)
    }

    #[test]
    fn precedence_cascade_refutes_a_single_unit() {
        let (g, r) = cascade_graph();
        let timing = compute_timing(&g, &SystemModel::shared());
        let tasks = g.tasks_demanding(r);
        let refined = refine_block(&g, &timing, &tasks, &NULL_PROBE, &CancelToken::none())
            .expect("uncancellable");
        assert_eq!(refined, 2, "the cascade must refute capacity 1");
    }

    #[test]
    fn density_floor_alone_misses_the_cascade() {
        let (g, r) = cascade_graph();
        let timing = compute_timing(&g, &SystemModel::shared());
        let items: Vec<Item> = g
            .tasks_demanding(r)
            .iter()
            .map(|&t| Item {
                e: timing.window(t).est.ticks(),
                l: timing.window(t).lct.ticks(),
                c: g.task(t).computation().ticks(),
                preemptive: g.task(t).is_preemptive(),
            })
            .collect();
        assert_eq!(
            density_floor(&items, &CancelToken::none()).unwrap(),
            1,
            "no single interval is dense enough — the gain is real filtering"
        );
    }

    #[test]
    fn zero_work_demanders_refine_to_zero() {
        let mut c = Catalog::new();
        let p = c.processor("P");
        let r = c.resource("r");
        let mut b = TaskGraphBuilder::new(c);
        b.default_deadline(Time::new(10));
        b.add_task(TaskSpec::new("z", Dur::ZERO, p).resource(r))
            .unwrap();
        let g = b.build().unwrap();
        let timing = compute_timing(&g, &SystemModel::shared());
        let tasks = g.tasks_demanding(r);
        let refined = refine_block(&g, &timing, &tasks, &NULL_PROBE, &CancelToken::none()).unwrap();
        assert_eq!(refined, 0);
    }

    #[test]
    fn independent_loose_tasks_keep_the_density_bound() {
        // Plenty of slack: nothing is forced, refinement equals density.
        let mut c = Catalog::new();
        let p = c.processor("P");
        let r = c.resource("r");
        let mut b = TaskGraphBuilder::new(c);
        b.default_deadline(Time::new(100));
        for i in 0..4 {
            b.add_task(TaskSpec::new(format!("t{i}"), Dur::new(3), p).resource(r))
                .unwrap();
        }
        let g = b.build().unwrap();
        let timing = compute_timing(&g, &SystemModel::shared());
        let tasks = g.tasks_demanding(r);
        let refined = refine_block(&g, &timing, &tasks, &NULL_PROBE, &CancelToken::none()).unwrap();
        assert_eq!(refined, 1);
    }

    #[test]
    fn tripped_token_cancels_refinement() {
        let (g, r) = cascade_graph();
        let timing = compute_timing(&g, &SystemModel::shared());
        let tasks = g.tasks_demanding(r);
        let ctl = CancelToken::new();
        ctl.cancel();
        assert!(matches!(
            refine_block(&g, &timing, &tasks, &NULL_PROBE, &ctl),
            Err(AnalysisError::Deadline)
        ));
    }
}

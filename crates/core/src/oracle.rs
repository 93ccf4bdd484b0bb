//! Testing oracles: slow, structurally simple reference implementations
//! that the differential suites and ablation benches compare the
//! pipeline against. Nothing in [`crate::analyze`] or
//! [`crate::AnalysisSession`] calls them.
//!
//! * [`naive_bounds`] — Equation 6.3 recomputing `Θ` from scratch for
//!   every candidate pair, `O(P²·N)` per partition block. The incremental
//!   sweep must match it bit for bit: bound, witness, and
//!   `intervals_examined`.
//! * [`flat_bounds`] — the same naive sweep without Theorem 5, over every
//!   demander of a resource at once. It must agree on every bound value
//!   while examining at least as many intervals (the Theorem 5 ablation).
//! * [`compute_timing_paper`] — Figures 2/3 with the paper's sequential
//!   `ect` re-packing (Equation 4.5; Equation 4.1's `lst` is `−ect` on
//!   reversed time) instead of the union-find
//!   Timeline. Its windows and merge selections must equal
//!   [`crate::compute_timing`]'s exactly.

use rtlb_graph::{Dur, TaskGraph, TaskId, Time};

use crate::bounds::{candidate_points, theta, CandidatePolicy, RatioMax, ResourceBound};
use crate::error::AnalysisError;
use crate::estlct::{compute_timing_with, Pack, TimingAnalysis};
use crate::model::SystemModel;
use crate::partition::ResourcePartition;

/// `LB_r` for every partition by the naive per-pair sweep, block by block
/// in partition order — the oracle for the incremental sweep.
///
/// Unlike the pipeline, the naive sweep is defined on infeasible windows
/// too, so an unchecked timing can reach the ceiling overflow.
///
/// # Errors
///
/// [`AnalysisError::BoundOverflow`] if some bound's ceiling exceeds
/// `u32::MAX` (unreachable on feasible timing).
pub fn naive_bounds(
    graph: &TaskGraph,
    timing: &TimingAnalysis,
    partitions: &[ResourcePartition],
    policy: CandidatePolicy,
) -> Result<Vec<ResourceBound>, AnalysisError> {
    partitions
        .iter()
        .map(|partition| {
            let mut max = RatioMax::default();
            for block in partition.blocks() {
                naive_sweep(graph, timing, block.tasks, policy, &mut max);
            }
            max.into_bound(partition.resource)
        })
        .collect()
}

/// `LB_r` for every demanded resource by one naive sweep over all of its
/// demanders, without the Figure 4 partition, in resource-id order.
///
/// # Errors
///
/// Same as [`naive_bounds`].
pub fn flat_bounds(
    graph: &TaskGraph,
    timing: &TimingAnalysis,
    policy: CandidatePolicy,
) -> Result<Vec<ResourceBound>, AnalysisError> {
    graph
        .resources_used()
        .into_iter()
        .map(|resource| {
            let mut max = RatioMax::default();
            let tasks = graph.tasks_demanding(resource);
            naive_sweep(graph, timing, &tasks, policy, &mut max);
            max.into_bound(resource)
        })
        .collect()
}

/// Offers every candidate pair of `tasks` to `max`, recomputing `Θ` per
/// pair, in ascending `(t1, t2)` order — the serial offer order the
/// incremental sweep reproduces.
fn naive_sweep(
    graph: &TaskGraph,
    timing: &TimingAnalysis,
    tasks: &[TaskId],
    policy: CandidatePolicy,
    max: &mut RatioMax,
) {
    let points = candidate_points(graph, timing, tasks, policy);
    for (li, &t1) in points.iter().enumerate() {
        for &t2 in &points[li + 1..] {
            max.offer(theta(graph, timing, tasks, t1, t2), t1, t2);
        }
    }
}

/// Computes `E_i` and `L_i` like [`crate::compute_timing`], packing each
/// merge prefix with the paper's sequential re-packing.
pub fn compute_timing_paper(graph: &TaskGraph, model: &SystemModel) -> TimingAnalysis {
    compute_timing_with(graph, model, &mut PaperPacker::default())
}

/// Sequential sorted packing straight from Equation 4.5, on a reused
/// scratch buffer (no per-call allocation or re-sort). Equation 4.1's
/// `lst` reaches it as `−ect` over negated times.
#[derive(Default)]
struct PaperPacker {
    /// `(est, computation)` pairs, sorted ascending by EST.
    sorted: Vec<(i64, i64)>,
}

impl Pack for PaperPacker {
    fn begin(&mut self) {
        self.sorted.clear();
    }

    fn push(&mut self, est: Time, c: Dur) {
        let at = self.sorted.partition_point(|&(e, _)| e <= est.ticks());
        self.sorted.insert(at, (est.ticks(), c.ticks()));
    }

    fn ect_clamped(&mut self, floor: Time) -> Time {
        let mut finish: Option<i64> = None;
        for &(e, c) in &self.sorted {
            let start = finish.map_or(e, |f| f.max(e));
            finish = Some(start + c);
        }
        finish.map_or(floor, |f| floor.max(Time::new(f)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::Timeline;

    fn neg(t: Time) -> Time {
        Time::new(-t.ticks())
    }

    /// Equation 4.1's `lst(A)` straight from the paper, clamped from
    /// above by `ceiling`: the tasks packed from the back in decreasing
    /// LCT order. The reference for computing `lst` as `−ect` over
    /// negated times.
    fn paper_lst(tasks: &[(Time, Dur)], ceiling: Time) -> Time {
        let mut sorted = tasks.to_vec();
        sorted.sort_by_key(|&(l, _)| std::cmp::Reverse(l));
        let mut start: Option<Time> = None;
        for (l, c) in sorted {
            let completion = start.map_or(l, |s| s.min(l));
            start = Some(completion - c);
        }
        start.map_or(ceiling, |s| ceiling.min(s))
    }

    /// `lst` of `tasks` as `packer` computes it: `−ect` over negated LCTs.
    fn lst_by_negation(packer: &mut impl Pack, tasks: &[(Time, Dur)], ceiling: Time) -> Time {
        packer.begin();
        for &(l, c) in tasks {
            packer.push(neg(l), c);
        }
        neg(packer.ect_clamped(neg(ceiling)))
    }

    /// lst/ect micro-checks straight from the paper's definitions, for
    /// both packers.
    fn sequential_packing(packer: &mut impl Pack) {
        // lst: (LCT, C) = (20,3), (15,5), (12,2) → pack from the back:
        //   completes 20 start 17; completes min(17,15)=15 start 10;
        //   completes min(10,12)=10 start 8.
        let lst_set = [
            (Time::new(20), Dur::new(3)),
            (Time::new(15), Dur::new(5)),
            (Time::new(12), Dur::new(2)),
        ];
        assert_eq!(paper_lst(&lst_set, Time::new(100)), Time::new(8));
        assert_eq!(
            lst_by_negation(packer, &lst_set, Time::new(100)),
            Time::new(8)
        );

        // ect: (EST, C) = (0,3), (4,5), (4,2) → [0,3], starts
        // max(3,4)=4 ends 9, starts 9 ends 11.
        packer.begin();
        packer.push(Time::new(0), Dur::new(3));
        packer.push(Time::new(4), Dur::new(5));
        packer.push(Time::new(4), Dur::new(2));
        assert_eq!(packer.ect_clamped(Time::new(-50)), Time::new(11));
    }

    #[test]
    fn lst_and_ect_sequential_packing() {
        sequential_packing(&mut PaperPacker::default());
        sequential_packing(&mut Timeline::new());
    }

    /// Regression for the sentinel defect: the pre-fix `lst(A)`/`ect(A)`
    /// helpers returned the raw `Time::MAX`/`Time::MIN` sentinels for an
    /// empty set — values outside the §7 magnitude envelope that overflow
    /// `i64` the moment Ψ arithmetic composes two of them. The packer's
    /// empty-set read-out must be the caller's window clamp, strictly
    /// inside the envelope.
    fn empty_set_is_window_clamped(packer: &mut impl Pack) {
        let lst = lst_by_negation(packer, &[], Time::new(17));
        packer.begin();
        let ect = packer.ect_clamped(Time::new(-4));
        assert_eq!(lst, Time::new(17));
        assert_eq!(ect, Time::new(-4));
        // The pre-fix helpers failed exactly here: lst(∅) = Time::MAX
        // and ect(∅) = Time::MIN escape the ±MAGNITUDE_LIMIT envelope,
        // so e.g. `lst(∅) - ect(∅)` wraps i64 in debug builds.
        for v in [lst, ect] {
            assert!(
                v > Time::MIN && v < Time::MAX,
                "{v:?} is a sentinel, not a window-clamped value"
            );
        }
        let (a, b) = (lst.ticks(), ect.ticks());
        assert_eq!(a.checked_sub(b), Some(21), "Ψ-style subtraction is exact");
    }

    #[test]
    fn empty_set_packing_is_window_clamped() {
        empty_set_is_window_clamped(&mut PaperPacker::default());
        empty_set_is_window_clamped(&mut Timeline::new());
    }

    /// The two packings are interchangeable: identical values for every
    /// prefix of pseudo-random task sets, read mid-scan like the Figure
    /// 2/3 merge loop does. On the `lst` sets, `−ect` over negated times
    /// also equals the paper's sequential `lst` packed from the back.
    #[test]
    fn paper_and_timeline_packings_agree_on_every_prefix() {
        let mut state = 0x2545f4914f6cdd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut paper = PaperPacker::default();
        let mut timeline = Timeline::new();
        for _ in 0..150 {
            let n = 1 + (next() % 8) as usize;
            paper.begin();
            timeline.begin();
            let clamp = Time::new((next() % 60) as i64);
            let mut lst_set = Vec::new();
            for _ in 0..n {
                let b = Time::new((next() % 50) as i64 - 10);
                let c = Dur::new((next() % 9) as i64);
                lst_set.push((b, c));
                paper.push(neg(b), c);
                timeline.push(neg(b), c);
                let lst = neg(paper.ect_clamped(neg(clamp)));
                assert_eq!(lst, neg(timeline.ect_clamped(neg(clamp))));
                assert_eq!(lst, paper_lst(&lst_set, clamp));
            }
            paper.begin();
            timeline.begin();
            for _ in 0..n {
                let b = Time::new((next() % 50) as i64 - 10);
                let c = Dur::new((next() % 9) as i64);
                paper.push(b, c);
                timeline.push(b, c);
                assert_eq!(paper.ect_clamped(clamp), timeline.ect_clamped(clamp));
            }
        }
    }
}

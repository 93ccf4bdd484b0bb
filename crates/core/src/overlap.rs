//! Minimum execution overlap of a task with a time interval
//! (Section 6, Theorems 3 and 4 of the paper).
//!
//! `Ψ(i, t1, t2)` is the least amount of work task `i` must perform inside
//! `[t1, t2]` in *any* schedule that respects its window `[E_i, L_i]`.
//! Summing `Ψ` over all tasks demanding a resource gives the interval's
//! aggregate demand `Θ`, from which the resource lower bound follows.

use rtlb_graph::{Dur, ExecutionMode, Task, Time};

use crate::estlct::TaskWindow;

/// The paper's `α(x)`: `x` clamped below at zero.
#[inline]
fn alpha(x: i64) -> i64 {
    x.max(0)
}

/// Minimum overlap of a task with execution window `[est, lct]`,
/// computation time `c` and the given preemption `mode`, against the
/// interval `[t1, t2]`.
///
/// Implements Equation 6.1 (preemptive) and Equation 6.2 (non-preemptive)
/// verbatim in integer arithmetic.
///
/// # Panics
///
/// Panics if `t1 >= t2` (the paper requires a non-degenerate interval).
///
/// # Example
///
/// ```
/// use rtlb_core::{overlap, TaskWindow};
/// use rtlb_graph::{Dur, ExecutionMode, Time};
/// let window = TaskWindow { est: Time::new(0), lct: Time::new(10) };
/// // C = 8 in a window of width 10: at least 6 ticks must land in [2, 10].
/// let psi = overlap(
///     window,
///     Dur::new(8),
///     ExecutionMode::NonPreemptive,
///     Time::new(2),
///     Time::new(10),
/// );
/// assert_eq!(psi, Dur::new(6));
/// ```
pub fn overlap(window: TaskWindow, c: Dur, mode: ExecutionMode, t1: Time, t2: Time) -> Dur {
    assert!(t1 < t2, "overlap interval must satisfy t1 < t2");
    let e = window.est;
    let l = window.lct;

    // μ(L_i - t1) · μ(t2 - E_i): zero when the window misses the interval.
    if l <= t1 || t2 <= e {
        return Dur::ZERO;
    }

    let c = c.ticks();
    let head = t1.diff(e); // t1 - E_i (may be negative)
    let tail = l.diff(t2); // L_i - t2 (may be negative)

    let common = [c, alpha(c - head), alpha(c - tail)];
    let last = match mode {
        ExecutionMode::Preemptive => alpha(c - tail - head),
        ExecutionMode::NonPreemptive => t2.diff(t1),
    };
    let min = common.into_iter().chain([last]).min().expect("non-empty");
    Dur::new(min.max(0))
}

/// [`overlap`] applied to a [`Task`]'s own computation time and mode.
pub(crate) fn task_overlap(task: &Task, window: TaskWindow, t1: Time, t2: Time) -> Dur {
    overlap(window, task.computation(), task.mode(), t1, t2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn win(e: i64, l: i64) -> TaskWindow {
        TaskWindow {
            est: Time::new(e),
            lct: Time::new(l),
        }
    }

    fn psi_p(w: TaskWindow, c: i64, t1: i64, t2: i64) -> i64 {
        overlap(
            w,
            Dur::new(c),
            ExecutionMode::Preemptive,
            Time::new(t1),
            Time::new(t2),
        )
        .ticks()
    }

    fn psi_np(w: TaskWindow, c: i64, t1: i64, t2: i64) -> i64 {
        overlap(
            w,
            Dur::new(c),
            ExecutionMode::NonPreemptive,
            Time::new(t1),
            Time::new(t2),
        )
        .ticks()
    }

    // Case 1 (Figure 5a): window disjoint from the interval.
    #[test]
    fn case1_disjoint_window() {
        assert_eq!(psi_p(win(0, 5), 3, 5, 10), 0);
        assert_eq!(psi_p(win(12, 20), 5, 5, 10), 0);
        assert_eq!(psi_np(win(0, 5), 3, 5, 10), 0);
        assert_eq!(psi_np(win(12, 20), 5, 5, 10), 0);
    }

    // Case 2 (Figure 5b): window inside the interval — the whole
    // computation overlaps.
    #[test]
    fn case2_window_inside_interval() {
        assert_eq!(psi_p(win(3, 8), 4, 0, 10), 4);
        assert_eq!(psi_np(win(3, 8), 4, 0, 10), 4);
    }

    // Case 3 (Figure 5c): window starts before the interval — run as
    // early as possible; only the spill past t1 must overlap.
    #[test]
    fn case3_early_window() {
        // E=0, L=8, C=6, [4, 10]: early run occupies [0,6]; spill = 2.
        assert_eq!(psi_p(win(0, 8), 6, 4, 10), 2);
        assert_eq!(psi_np(win(0, 8), 6, 4, 10), 2);
        // C small enough to finish before t1: no overlap.
        assert_eq!(psi_p(win(0, 8), 3, 4, 10), 0);
        assert_eq!(psi_np(win(0, 8), 3, 4, 10), 0);
    }

    // Case 4 (Figure 5d): window ends after the interval — run as late as
    // possible; only the spill before t2 must overlap.
    #[test]
    fn case4_late_window() {
        // E=4, L=15, C=7, [0, 10]: late run occupies [8,15]; spill = 2.
        assert_eq!(psi_p(win(4, 15), 7, 0, 10), 2);
        assert_eq!(psi_np(win(4, 15), 7, 0, 10), 2);
        assert_eq!(psi_p(win(4, 15), 5, 0, 10), 0);
    }

    // Case 5 (Figure 5e): interval strictly inside the window — here
    // preemption matters.
    #[test]
    fn case5_interval_inside_window() {
        // E=0, L=10, C=8, [3, 7]: head room 3, tail room 3.
        // Preemptive: must place 8 - 3 - 3 = 2 inside.
        assert_eq!(psi_p(win(0, 10), 8, 3, 7), 2);
        // Non-preemptive: best is to hug one side; spill =
        // min(α(C-head), α(C-tail), t2-t1) = min(5, 5, 4) = 4.
        assert_eq!(psi_np(win(0, 10), 8, 3, 7), 4);
        // Preemptive task that fits around the interval entirely.
        assert_eq!(psi_p(win(0, 10), 6, 3, 7), 0);
        // Non-preemptive with same numbers cannot split: min(3, 3, 4) = 3.
        assert_eq!(psi_np(win(0, 10), 6, 3, 7), 3);
    }

    // Ψ(t1, ·) is piecewise linear in t2 with breakpoints at E, E+C,
    // L−C and L. Pin the values at those corners for both modes — these
    // are exactly the points the incremental sweep's ramp decomposition
    // must hit.
    #[test]
    fn breakpoints_nonpreemptive() {
        // Window [2, 8], C = 4: E=2, E+C=6, L−C=4, L=8.
        let w = win(2, 8);
        // t1 before the window.
        assert_eq!(psi_np(w, 4, 0, 2), 0); // t2 = E: window untouched
        assert_eq!(psi_np(w, 4, 0, 4), 0); // t2 = L−C: can run in [4, 8]
        assert_eq!(psi_np(w, 4, 0, 6), 2); // t2 = E+C: ≥ 2 ticks spill in
        assert_eq!(psi_np(w, 4, 0, 8), 4); // t2 = L: whole computation
                                           // t1 inside the window (head room 1).
        assert_eq!(psi_np(w, 4, 3, 4), 0); // t2 = L−C
        assert_eq!(psi_np(w, 4, 3, 6), 2); // t2 = E+C: min(4,3,2,3)
        assert_eq!(psi_np(w, 4, 3, 8), 3); // t2 = L: min(4,3,4,5)
    }

    #[test]
    fn breakpoints_preemptive() {
        let w = win(2, 8);
        assert_eq!(psi_p(w, 4, 0, 2), 0); // t2 = E
        assert_eq!(psi_p(w, 4, 0, 4), 0); // t2 = L−C: α(4−0−4)
        assert_eq!(psi_p(w, 4, 0, 6), 2); // t2 = E+C: α(4−0−2)
        assert_eq!(psi_p(w, 4, 0, 8), 4); // t2 = L: α(4−0−0)
        assert_eq!(psi_p(w, 4, 3, 4), 0); // α(4−1−4)
        assert_eq!(psi_p(w, 4, 3, 6), 1); // α(4−1−2)
        assert_eq!(psi_p(w, 4, 3, 8), 3); // α(4−1−0)
    }

    // Zero-slack windows (L − E = C): the task occupies its whole
    // window, so Ψ is exactly the window∩interval length in both modes.
    #[test]
    fn zero_slack_window_forces_full_intersection() {
        let w = win(2, 6); // C = 4 fills it
        let modes: [&dyn Fn(TaskWindow, i64, i64, i64) -> i64; 2] = [&psi_np, &psi_p];
        for mode in modes {
            assert_eq!(mode(w, 4, 0, 2), 0); // t2 = E
            assert_eq!(mode(w, 4, 0, 3), 1);
            assert_eq!(mode(w, 4, 3, 5), 2); // strictly inside
            assert_eq!(mode(w, 4, 0, 6), 4); // covers the window
            assert_eq!(mode(w, 4, 5, 9), 1); // hangs off the end
            assert_eq!(mode(w, 4, 6, 9), 0); // t1 = L
        }
    }

    // An interval that fully contains the window forces the entire
    // computation regardless of mode or slack.
    #[test]
    fn interval_containing_window_forces_everything() {
        for c in 1..=6 {
            assert_eq!(psi_np(win(2, 8), c, 0, 20), c);
            assert_eq!(psi_p(win(2, 8), c, 0, 20), c);
            // Touching exactly at the window edges counts as containing.
            assert_eq!(psi_np(win(2, 8), c, 2, 8), c);
            assert_eq!(psi_p(win(2, 8), c, 2, 8), c);
        }
    }

    #[test]
    fn preemptive_never_exceeds_non_preemptive() {
        for e in 0..4 {
            for l in (e + 1)..12 {
                for c in 1..=(l - e) {
                    for t1 in 0..11 {
                        for t2 in (t1 + 1)..12 {
                            let p = psi_p(win(e, l), c, t1, t2);
                            let np = psi_np(win(e, l), c, t1, t2);
                            assert!(p <= np, "Ψ_p > Ψ_np at E={e} L={l} C={c} [{t1},{t2}]");
                            assert!(np <= c.min(t2 - t1));
                            assert!(p >= 0);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn overlap_equals_c_when_window_equals_interval() {
        assert_eq!(psi_p(win(2, 9), 7, 2, 9), 7);
        assert_eq!(psi_np(win(2, 9), 7, 2, 9), 7);
    }

    #[test]
    #[should_panic(expected = "t1 < t2")]
    fn degenerate_interval_panics() {
        let _ = psi_p(win(0, 5), 1, 3, 3);
    }

    #[test]
    fn task_overlap_uses_task_fields() {
        use rtlb_graph::{Catalog, TaskGraphBuilder, TaskSpec};
        let mut c = Catalog::new();
        let p = c.processor("P");
        let mut b = TaskGraphBuilder::new(c);
        b.default_deadline(Time::new(10));
        let id = b
            .add_task(TaskSpec::new("t", Dur::new(8), p).preemptive())
            .unwrap();
        let g = b.build().unwrap();
        let t = g.task(id);
        let w = win(0, 10);
        assert_eq!(
            task_overlap(t, w, Time::new(3), Time::new(7)),
            Dur::new(2) // preemptive case 5 above
        );
    }
}

//! Branch-and-bound integer programming on top of the exact simplex.

use crate::problem::{Constraint, Outcome, Problem, Solution};
use crate::rational::Rational;
use crate::simplex::solve_lp;

/// Configuration for [`solve_ilp_with`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct BranchBoundConfig {
    /// Maximum number of branch-and-bound nodes explored before giving up.
    ///
    /// The dedicated-model cost programs are tiny (one variable per node
    /// type); the default of 100 000 is far beyond anything they need and
    /// exists purely as a runaway guard.
    pub node_limit: usize,
}

impl Default for BranchBoundConfig {
    fn default() -> BranchBoundConfig {
        BranchBoundConfig {
            node_limit: 100_000,
        }
    }
}

/// Statistics about a branch-and-bound run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct BranchBoundStats {
    /// Nodes (LP relaxations) solved.
    pub nodes: usize,
    /// Nodes pruned by the incumbent bound.
    pub pruned_by_bound: usize,
    /// Nodes pruned as infeasible.
    pub pruned_infeasible: usize,
}

/// Error raised when the node budget is exhausted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeLimitExceeded {
    /// The configured limit that was hit.
    pub limit: usize,
}

impl std::fmt::Display for NodeLimitExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "branch-and-bound node limit of {} exceeded", self.limit)
    }
}

impl std::error::Error for NodeLimitExceeded {}

/// Solves a mixed-integer program exactly by branch-and-bound with default
/// configuration.
///
/// Variables flagged integer in the [`Problem`] are driven to integral
/// values; continuous variables keep exact rational values.
///
/// # Errors
///
/// Returns [`NodeLimitExceeded`] if the default node budget is exhausted
/// (practically impossible for the cost-bound programs this crate targets).
///
/// # Example
///
/// ```
/// use rtlb_ilp::{solve_ilp, Constraint, Outcome, Problem, Rational};
/// # fn main() -> Result<(), rtlb_ilp::NodeLimitExceeded> {
/// // Paper, Section 8 Step 4 with unit costs:
/// // min x1 + x2 + x3  s.t.  x1 + x2 >= 3, x1 >= 2, x3 >= 2, x integer.
/// let mut p = Problem::new();
/// let x1 = p.add_var("x1", Rational::ONE, true);
/// let x2 = p.add_var("x2", Rational::ONE, true);
/// let x3 = p.add_var("x3", Rational::ONE, true);
/// p.add_constraint(Constraint::ge(vec![(x1, Rational::ONE), (x2, Rational::ONE)], Rational::from(3)));
/// p.add_constraint(Constraint::ge(vec![(x1, Rational::ONE)], Rational::from(2)));
/// p.add_constraint(Constraint::ge(vec![(x3, Rational::ONE)], Rational::from(2)));
/// let solution = solve_ilp(&p)?.optimal().unwrap();
/// assert_eq!(solution.objective, Rational::from(5));
/// # Ok(())
/// # }
/// ```
pub fn solve_ilp(problem: &Problem) -> Result<Outcome, NodeLimitExceeded> {
    solve_ilp_with(problem, BranchBoundConfig::default()).map(|(o, _)| o)
}

/// Solves a mixed-integer program exactly, returning search statistics.
///
/// # Errors
///
/// Returns [`NodeLimitExceeded`] if `config.node_limit` LP relaxations are
/// solved without closing the search tree.
pub(crate) fn solve_ilp_with(
    problem: &Problem,
    config: BranchBoundConfig,
) -> Result<(Outcome, BranchBoundStats), NodeLimitExceeded> {
    let mut stats = BranchBoundStats::default();

    if !problem.has_integers() {
        stats.nodes = 1;
        return Ok((solve_lp(problem), stats));
    }

    let mut incumbent: Option<Solution> = None;
    // Each stack entry is a set of extra bound constraints.
    let mut stack: Vec<Vec<Constraint>> = vec![Vec::new()];

    while let Some(extra) = stack.pop() {
        if stats.nodes >= config.node_limit {
            return Err(NodeLimitExceeded {
                limit: config.node_limit,
            });
        }
        stats.nodes += 1;

        let mut node = problem.clone();
        for c in &extra {
            node.add_constraint(c.clone());
        }

        let relaxed = match solve_lp(&node) {
            Outcome::Optimal(s) => s,
            Outcome::Infeasible => {
                stats.pruned_infeasible += 1;
                continue;
            }
            Outcome::Unbounded => {
                // An unbounded relaxation at the root means the integer
                // program is unbounded or infeasible; report unbounded,
                // matching LP-solver convention. Deeper nodes inherit the
                // root's recession directions, so this can only trigger at
                // the root for our problem class.
                return Ok((Outcome::Unbounded, stats));
            }
        };

        // Bound: a relaxation no better than the incumbent cannot contain
        // an improving integral point.
        if let Some(best) = &incumbent {
            if relaxed.objective >= best.objective {
                stats.pruned_by_bound += 1;
                continue;
            }
        }

        // Find a fractional integer-flagged variable to branch on.
        let fractional = problem
            .vars()
            .find(|&v| problem.is_integer(v) && !relaxed.value(v).is_integer());

        match fractional {
            None => {
                // Integral and better than the incumbent: adopt, keeping
                // only the duals of the original constraints (branching
                // bounds appended their own).
                let mut adopted = relaxed;
                adopted.duals.truncate(problem.num_constraints());
                incumbent = Some(adopted);
            }
            Some(v) => {
                let value = relaxed.value(v);
                let floor = Rational::from(value.floor() as i64);
                let ceil = Rational::from(value.ceil() as i64);
                // Explore the "round down" child last (popped first):
                // covering problems usually find good incumbents there.
                let mut up = extra.clone();
                up.push(Constraint::ge(vec![(v, Rational::ONE)], ceil));
                stack.push(up);
                let mut down = extra;
                down.push(Constraint::le(vec![(v, Rational::ONE)], floor));
                stack.push(down);
            }
        }
    }

    let outcome = match incumbent {
        Some(s) => Outcome::Optimal(s),
        None => Outcome::Infeasible,
    };
    Ok((outcome, stats))
}

/// Exhaustively enumerates integral points of a pure-integer covering
/// problem up to `bound` per variable and returns the best; a test oracle
/// for [`solve_ilp`], exponential and only usable on tiny instances.
pub fn brute_force_ilp(problem: &Problem, bound: i64) -> Outcome {
    let n = problem.num_vars();
    assert!(
        problem.vars().all(|v| problem.is_integer(v)),
        "brute force requires a pure integer program"
    );
    let mut best: Option<Solution> = None;
    let mut x = vec![0i64; n];
    loop {
        let point: Vec<Rational> = x.iter().map(|&v| Rational::from(v)).collect();
        if problem.is_feasible(&point) {
            let obj = problem.objective_at(&point);
            if best.as_ref().is_none_or(|b| obj < b.objective) {
                best = Some(Solution {
                    values: point,
                    objective: obj,
                    duals: vec![Rational::ZERO; problem.num_constraints()],
                });
            }
        }
        // Odometer increment.
        let mut i = 0;
        loop {
            if i == n {
                return match best {
                    Some(s) => Outcome::Optimal(s),
                    None => Outcome::Infeasible,
                };
            }
            x[i] += 1;
            if x[i] > bound {
                x[i] = 0;
                i += 1;
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64) -> Rational {
        Rational::from(n)
    }

    #[test]
    fn integral_relaxation_needs_no_branching() {
        let mut p = Problem::new();
        let x = p.add_var("x", r(1), true);
        p.add_constraint(Constraint::ge(vec![(x, r(1))], r(3)));
        let (outcome, stats) = solve_ilp_with(&p, BranchBoundConfig::default()).unwrap();
        let s = outcome.optimal().unwrap();
        assert_eq!(s.value(x), r(3));
        assert_eq!(stats.nodes, 1);
    }

    #[test]
    fn fractional_relaxation_forces_branching() {
        // min x s.t. 2x >= 3, x integer  ->  x = 2.
        let mut p = Problem::new();
        let x = p.add_var("x", r(1), true);
        p.add_constraint(Constraint::ge(vec![(x, r(2))], r(3)));
        let (outcome, stats) = solve_ilp_with(&p, BranchBoundConfig::default()).unwrap();
        assert_eq!(outcome.optimal().unwrap().value(x), r(2));
        assert!(stats.nodes > 1);
    }

    #[test]
    fn knapsack_style_cover() {
        // min 5a + 4b s.t. 3a + 2b >= 7, integers.
        // Candidates: a=3 (15); a=1,b=2 (13); a=2,b=1 (14); b=4 (16).
        let mut p = Problem::new();
        let a = p.add_var("a", r(5), true);
        let b = p.add_var("b", r(4), true);
        p.add_constraint(Constraint::ge(vec![(a, r(3)), (b, r(2))], r(7)));
        let s = solve_ilp(&p).unwrap().optimal().unwrap();
        assert_eq!(s.objective, r(13));
        assert_eq!(s.value(a), r(1));
        assert_eq!(s.value(b), r(2));
    }

    #[test]
    fn infeasible_integer_program() {
        // 1/2 <= x <= 3/4 contains no integer... but x >= 0 means x=0 fails
        // the lower bound, x=1 fails the upper bound.
        let mut p = Problem::new();
        let x = p.add_var("x", r(1), true);
        p.add_constraint(Constraint::ge(vec![(x, r(2))], r(1)));
        p.add_constraint(Constraint::le(vec![(x, r(4))], r(3)));
        assert_eq!(solve_ilp(&p).unwrap(), Outcome::Infeasible);
    }

    #[test]
    fn mixed_integer_keeps_continuous_exact() {
        // min x + y, x integer, y continuous; x + y >= 5/2, x >= 1.
        // Optimum: x = 1, y = 3/2.
        let mut p = Problem::new();
        let x = p.add_var("x", r(1), true);
        let y = p.add_var("y", r(1), false);
        p.add_constraint(Constraint::ge(
            vec![(x, r(1)), (y, r(1))],
            Rational::new(5, 2),
        ));
        p.add_constraint(Constraint::ge(vec![(x, r(1))], r(1)));
        let s = solve_ilp(&p).unwrap().optimal().unwrap();
        assert_eq!(s.objective, Rational::new(5, 2));
        assert_eq!(s.value(x), r(1));
        assert_eq!(s.value(y), Rational::new(3, 2));
    }

    #[test]
    fn unbounded_is_reported() {
        let mut p = Problem::new();
        p.add_var("x", r(-1), true);
        assert_eq!(solve_ilp(&p).unwrap(), Outcome::Unbounded);
    }

    #[test]
    fn node_limit_is_enforced() {
        let mut p = Problem::new();
        let x = p.add_var("x", r(1), true);
        let y = p.add_var("y", r(1), true);
        p.add_constraint(Constraint::ge(vec![(x, r(2)), (y, r(3))], r(7)));
        let err = solve_ilp_with(&p, BranchBoundConfig { node_limit: 1 });
        // One node is solved, then branching needs a second node.
        assert!(matches!(err, Err(NodeLimitExceeded { limit: 1 })));
        assert!(NodeLimitExceeded { limit: 1 }.to_string().contains("1"));
    }

    #[test]
    fn matches_brute_force_on_small_covers() {
        // A 3-var, 3-constraint covering problem.
        let mut p = Problem::new();
        let a = p.add_var("a", r(3), true);
        let b = p.add_var("b", r(5), true);
        let c = p.add_var("c", r(2), true);
        p.add_constraint(Constraint::ge(vec![(a, r(1)), (b, r(2))], r(4)));
        p.add_constraint(Constraint::ge(vec![(b, r(1)), (c, r(1))], r(3)));
        p.add_constraint(Constraint::ge(vec![(a, r(2)), (c, r(1))], r(5)));
        let bb = solve_ilp(&p).unwrap().optimal().unwrap();
        let bf = brute_force_ilp(&p, 8).optimal().unwrap();
        assert_eq!(bb.objective, bf.objective);
    }

    #[test]
    fn brute_force_detects_infeasible_within_bound() {
        let mut p = Problem::new();
        let x = p.add_var("x", r(1), true);
        p.add_constraint(Constraint::ge(vec![(x, r(1))], r(100)));
        assert_eq!(brute_force_ilp(&p, 5), Outcome::Infeasible);
    }
}

//! Linear/integer program model.

use std::fmt;

use crate::rational::Rational;

/// Identifier of a decision variable inside one [`Problem`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Dense index of this variable.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Comparison sense of a linear constraint.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Cmp {
    /// `Σ a_j x_j ≤ rhs`
    Le,
    /// `Σ a_j x_j ≥ rhs`
    Ge,
    /// `Σ a_j x_j = rhs`
    Eq,
}

impl fmt::Display for Cmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Cmp::Le => "<=",
            Cmp::Ge => ">=",
            Cmp::Eq => "=",
        })
    }
}

/// One linear constraint `Σ a_j x_j (≤|≥|=) rhs`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Constraint {
    /// Sparse coefficient list; variables absent from the list have
    /// coefficient zero.
    pub coeffs: Vec<(VarId, Rational)>,
    /// Comparison sense.
    pub cmp: Cmp,
    /// Right-hand side.
    pub rhs: Rational,
}

impl Constraint {
    /// Builds a `≥` constraint.
    pub fn ge(coeffs: Vec<(VarId, Rational)>, rhs: Rational) -> Constraint {
        Constraint {
            coeffs,
            cmp: Cmp::Ge,
            rhs,
        }
    }

    /// Builds a `≤` constraint.
    pub fn le(coeffs: Vec<(VarId, Rational)>, rhs: Rational) -> Constraint {
        Constraint {
            coeffs,
            cmp: Cmp::Le,
            rhs,
        }
    }

    /// Builds an `=` constraint.
    pub fn eq(coeffs: Vec<(VarId, Rational)>, rhs: Rational) -> Constraint {
        Constraint {
            coeffs,
            cmp: Cmp::Eq,
            rhs,
        }
    }

    /// Evaluates the left-hand side at a point.
    pub fn lhs_at(&self, x: &[Rational]) -> Rational {
        self.coeffs.iter().map(|&(v, c)| c * x[v.index()]).sum()
    }

    /// Whether the constraint holds at a point.
    pub fn satisfied_at(&self, x: &[Rational]) -> bool {
        let lhs = self.lhs_at(x);
        match self.cmp {
            Cmp::Le => lhs <= self.rhs,
            Cmp::Ge => lhs >= self.rhs,
            Cmp::Eq => lhs == self.rhs,
        }
    }
}

/// A minimization program over non-negative variables:
///
/// ```text
/// minimize    c · x
/// subject to  constraints (≤ / ≥ / =)
///             x ≥ 0, x_j integer where flagged
/// ```
///
/// Non-negativity matches the paper's Section 7 formulation (node counts
/// `x_n ≥ 0`); general variable bounds can be expressed as constraints.
///
/// # Example
///
/// ```
/// use rtlb_ilp::{Constraint, Problem, Rational};
/// let mut p = Problem::new();
/// let x = p.add_var("x", Rational::from(3), true);
/// let y = p.add_var("y", Rational::from(5), true);
/// p.add_constraint(Constraint::ge(
///     vec![(x, Rational::ONE), (y, Rational::from(2))],
///     Rational::from(7),
/// ));
/// assert_eq!(p.num_vars(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Problem {
    names: Vec<String>,
    costs: Vec<Rational>,
    integer: Vec<bool>,
    constraints: Vec<Constraint>,
}

impl Problem {
    /// Creates an empty program.
    pub fn new() -> Problem {
        Problem::default()
    }

    /// Adds a variable with objective coefficient `cost`; `integer` flags
    /// it for branch-and-bound.
    pub fn add_var(&mut self, name: impl Into<String>, cost: Rational, integer: bool) -> VarId {
        let id = VarId(self.names.len());
        self.names.push(name.into());
        self.costs.push(cost);
        self.integer.push(integer);
        id
    }

    /// Adds a constraint.
    ///
    /// # Panics
    ///
    /// Panics if the constraint references a variable not in this problem.
    pub fn add_constraint(&mut self, c: Constraint) {
        for &(v, _) in &c.coeffs {
            assert!(
                v.index() < self.names.len(),
                "constraint references unknown variable {v}"
            );
        }
        self.constraints.push(c);
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.names.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// The objective coefficient of a variable.
    pub fn cost(&self, v: VarId) -> Rational {
        self.costs[v.index()]
    }

    /// All objective coefficients, indexed by variable.
    pub fn costs(&self) -> &[Rational] {
        &self.costs
    }

    /// Whether the variable is integer-constrained.
    pub fn is_integer(&self, v: VarId) -> bool {
        self.integer[v.index()]
    }

    /// Whether any variable is integer-constrained.
    pub fn has_integers(&self) -> bool {
        self.integer.iter().any(|&b| b)
    }

    /// The constraint rows.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Iterates over variable ids.
    pub fn vars(&self) -> impl Iterator<Item = VarId> {
        (0..self.names.len()).map(VarId)
    }

    /// Objective value at a point.
    pub fn objective_at(&self, x: &[Rational]) -> Rational {
        self.costs.iter().zip(x).map(|(&c, &v)| c * v).sum()
    }

    /// Whether a point satisfies every constraint, non-negativity, and the
    /// integrality flags.
    pub fn is_feasible(&self, x: &[Rational]) -> bool {
        x.len() == self.num_vars()
            && x.iter().all(|v| !v.is_negative())
            && self
                .integer
                .iter()
                .zip(x)
                .all(|(&int, v)| !int || v.is_integer())
            && self.constraints.iter().all(|c| c.satisfied_at(x))
    }

    /// A copy of this problem with all integrality flags cleared — the LP
    /// relaxation.
    pub fn relaxation(&self) -> Problem {
        let mut p = self.clone();
        p.integer.iter_mut().for_each(|b| *b = false);
        p
    }
}

/// An optimal solution to a program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Solution {
    /// Optimal variable assignment, indexed by [`VarId`].
    pub values: Vec<Rational>,
    /// Objective value at the assignment.
    pub objective: Rational,
    /// Dual values (shadow prices), one per constraint in declaration
    /// order: how much the objective would change per unit of the
    /// constraint's right-hand side, at the optimal basis.
    ///
    /// Exact for LP solves. For integer programs the duals are those of
    /// the branch-and-bound node that produced the incumbent — a common
    /// convention, useful as sensitivity hints but not a certificate.
    pub duals: Vec<Rational>,
}

impl Solution {
    /// The value assigned to `v`.
    pub fn value(&self, v: VarId) -> Rational {
        self.values[v.index()]
    }

    /// The dual value (shadow price) of the `i`-th declared constraint.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn dual(&self, i: usize) -> Rational {
        self.duals[i]
    }
}

/// Result of solving a program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// An optimal solution was found.
    Optimal(Solution),
    /// No point satisfies the constraints.
    Infeasible,
    /// The objective is unbounded below on the feasible region.
    Unbounded,
}

impl Outcome {
    /// The solution if optimal, else `None`.
    pub fn optimal(self) -> Option<Solution> {
        match self {
            Outcome::Optimal(s) => Some(s),
            _ => None,
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
    fn feasibility_checks_everything() {
        let mut p = Problem::new();
        let x = p.add_var("x", r(1), true);
        let y = p.add_var("y", r(1), false);
        p.add_constraint(Constraint::ge(vec![(x, r(1)), (y, r(1))], r(2)));
        p.add_constraint(Constraint::le(vec![(x, r(1))], r(5)));
        p.add_constraint(Constraint::eq(vec![(y, r(2))], r(2)));

        assert!(p.is_feasible(&[r(1), r(1)]));
        // y must equal 1 exactly.
        assert!(!p.is_feasible(&[r(1), r(2)]));
        // x integer-flagged.
        assert!(!p.is_feasible(&[Rational::new(3, 2), r(1)]));
        // non-negativity.
        assert!(!p.is_feasible(&[r(-1), r(1)]));
        // wrong arity.
        assert!(!p.is_feasible(&[r(1)]));
    }

    #[test]
    fn objective_evaluation() {
        let mut p = Problem::new();
        let x = p.add_var("x", r(3), false);
        p.add_var("y", r(5), false);
        assert_eq!(p.objective_at(&[r(2), r(1)]), r(11));
        assert_eq!(p.cost(x), r(3));
    }

    #[test]
    fn relaxation_clears_integrality() {
        let mut p = Problem::new();
        p.add_var("x", r(1), true);
        assert!(p.has_integers());
        assert!(!p.relaxation().has_integers());
    }

    #[test]
    #[should_panic(expected = "unknown variable")]
    fn constraint_with_foreign_var_panics() {
        let mut p = Problem::new();
        p.add_var("x", r(1), false);
        p.add_constraint(Constraint::ge(vec![(VarId(4), r(1))], r(1)));
    }

    #[test]
    fn constraint_builders() {
        let mut p = Problem::new();
        let x = p.add_var("x", r(1), false);
        let c = Constraint::le(vec![(x, r(2))], r(10));
        assert_eq!(c.cmp, Cmp::Le);
        assert_eq!(c.lhs_at(&[r(4)]), r(8));
        assert!(c.satisfied_at(&[r(4)]));
        assert!(!c.satisfied_at(&[r(6)]));
        assert_eq!(Cmp::Ge.to_string(), ">=");
    }
}

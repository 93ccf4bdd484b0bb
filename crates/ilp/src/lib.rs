//! Exact linear and integer programming for cost lower bounds.
//!
//! Section 7 of Alqadi & Ramanathan's ICDCS 1995 paper bounds the cost of a
//! *dedicated-model* distributed system by an integer program
//!
//! ```text
//! minimize    Σ_n CostN(n) · x_n
//! subject to  Σ_n γ_nr · x_n ≥ LB_r        for every r ∈ RES
//!             Σ_{n ∈ η_i} x_n ≥ 1          for every task i
//!             x_n ≥ 0 integer
//! ```
//!
//! The paper assumes such a solver exists; this crate provides one built
//! from scratch: exact [`Rational`] arithmetic, a two-phase primal
//! [`simplex`](solve_lp) with Bland's anti-cycling rule, and a
//! [`branch-and-bound`](solve_ilp) layer for integrality. Relaxing the
//! integrality requirement (solving with [`solve_lp`]) yields the paper's
//! "weaker but valid" cost bound.
//!
//! # Example
//!
//! ```
//! use rtlb_ilp::{solve_ilp, solve_lp, Constraint, Problem, Rational};
//! # fn main() -> Result<(), rtlb_ilp::NodeLimitExceeded> {
//! let mut p = Problem::new();
//! let x = p.add_var("x", Rational::from(1), true);
//! p.add_constraint(Constraint::ge(vec![(x, Rational::from(2))], Rational::from(3)));
//! let lp = solve_lp(&p).optimal().unwrap();
//! let ilp = solve_ilp(&p)?.optimal().unwrap();
//! assert_eq!(lp.objective, Rational::new(3, 2)); // relaxation: x = 3/2
//! assert_eq!(ilp.objective, Rational::from(2)); // integral:   x = 2
//! assert!(lp.objective <= ilp.objective);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod branch_bound;
mod problem;
mod rational;
mod simplex;

pub use branch_bound::{brute_force_ilp, solve_ilp, NodeLimitExceeded};
pub use problem::{Cmp, Constraint, Outcome, Problem, Solution, VarId};
pub use rational::Rational;
pub use simplex::solve_lp;

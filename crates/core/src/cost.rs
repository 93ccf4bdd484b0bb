//! System cost lower bounds (Section 7 of the paper).
//!
//! Shared model: every unit of every resource is priced individually, so
//! the cost bound is the weighted sum `Σ CostR(r) · LB_r` (Equation 7.1).
//!
//! Dedicated model: resources come bundled into node types, so the bound
//! is the optimum of an integer program over node counts `x_n`
//! (Equation 7.2 with the coverage and hostability constraints). The LP
//! relaxation is also reported — the paper's "weaker but still valid"
//! bound.

use std::collections::BTreeSet;

use rtlb_graph::{ResourceId, TaskGraph};
use rtlb_ilp::{solve_ilp, solve_lp, Constraint, Outcome, Problem, Rational};

use crate::bounds::ResourceBound;
use crate::error::AnalysisError;
use crate::model::{DedicatedModel, NodeTypeId, SharedModel};

/// Cost bound for the shared model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SharedCostBound {
    /// `Σ CostR(r) · LB_r`.
    pub total: i64,
    /// Per-resource contribution: `(resource, LB_r, CostR(r))`.
    pub breakdown: Vec<(ResourceId, u32, i64)>,
}

/// Computes the shared-model cost bound (Equation 7.1).
///
/// Resources with a zero lower bound contribute nothing and do not need a
/// cost assignment.
///
/// # Errors
///
/// * [`AnalysisError::MissingCost`] if some resource with a positive
///   lower bound has no `CostR` assigned.
/// * [`AnalysisError::BoundOverflow`] if the weighted sum escapes `i64`.
pub fn shared_cost_bound(
    model: &SharedModel,
    bounds: &[ResourceBound],
) -> Result<SharedCostBound, AnalysisError> {
    let mut total = 0i64;
    let mut breakdown = Vec::new();
    for b in bounds {
        if b.bound == 0 {
            continue;
        }
        let cost = model
            .cost(b.resource)
            .ok_or(AnalysisError::MissingCost(b.resource))?;
        total = cost
            .checked_mul(i64::from(b.bound))
            .and_then(|term| total.checked_add(term))
            .ok_or_else(|| AnalysisError::BoundOverflow {
                detail: format!(
                    "shared cost total overflowed i64 at {} (cost {cost} x bound {})",
                    b.resource, b.bound
                ),
            })?;
        breakdown.push((b.resource, b.bound, cost));
    }
    Ok(SharedCostBound { total, breakdown })
}

/// Cost bound for the dedicated model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DedicatedCostBound {
    /// Optimum of the integer program: the cost lower bound.
    pub total: i64,
    /// Optimum of the LP relaxation — a weaker (never larger) bound that
    /// is cheaper to compute (paper, end of Section 7).
    pub lp_relaxation: Rational,
    /// An optimal node mix `(node type, count)`, counts > 0 only.
    pub node_counts: Vec<(NodeTypeId, u64)>,
    /// Shadow prices of the coverage constraints at the LP optimum:
    /// `(resource, d cost / d LB_r)`. A positive entry identifies a
    /// resource whose lower bound is what drives the system cost — the
    /// sensitivity signal a designer iterating on node catalogs needs
    /// (paper, Section 9). Resources with zero bound are omitted.
    pub coverage_shadow_prices: Vec<(ResourceId, Rational)>,
}

/// Computes the dedicated-model cost bound (Section 7's integer program).
///
/// Builds one integer variable `x_n` per node type and two constraint
/// families:
///
/// * coverage — `Σ_n γ_nr · x_n ≥ LB_r` for every resource with a
///   positive bound;
/// * hostability — `Σ_{n ∈ η_i} x_n ≥ 1` for every distinct host set
///   `η_i` across tasks (duplicates deduplicated).
///
/// # Errors
///
/// * [`AnalysisError::UnhostableTask`] if some task cannot run on any node
///   type (the paper's standing assumption is violated).
/// * [`AnalysisError::CostSolverBudget`] if branch-and-bound exceeds its
///   node budget (not expected for realistic node-type counts).
///
/// # Panics
///
/// Panics if any node type has a negative cost; cost models must be
/// non-negative for the bound to be meaningful.
pub fn dedicated_cost_bound(
    graph: &TaskGraph,
    model: &DedicatedModel,
    bounds: &[ResourceBound],
) -> Result<DedicatedCostBound, AnalysisError> {
    model.validate(graph)?;
    assert!(
        model.node_types().iter().all(|n| n.cost() >= 0),
        "node costs must be non-negative"
    );

    let mut problem = Problem::new();
    let vars: Vec<_> = model
        .ids()
        .map(|n| {
            let nt = model.node_type(n);
            problem.add_var(nt.name().to_owned(), Rational::from(nt.cost()), true)
        })
        .collect();

    // Coverage constraints (remember their order for dual read-back).
    let mut covered: Vec<ResourceId> = Vec::new();
    for b in bounds {
        if b.bound == 0 {
            continue;
        }
        let coeffs: Vec<_> = model
            .ids()
            .filter_map(|n| {
                let units = model.node_type(n).units_of(b.resource);
                (units > 0).then(|| (vars[n.index()], Rational::from(i64::from(units))))
            })
            .collect();
        problem.add_constraint(Constraint::ge(coeffs, Rational::from(i64::from(b.bound))));
        covered.push(b.resource);
    }

    // Hostability constraints, deduplicated by host set.
    let mut host_sets: BTreeSet<Vec<NodeTypeId>> = BTreeSet::new();
    for (_, task) in graph.tasks() {
        host_sets.insert(model.hosts_for(task));
    }
    for hosts in host_sets {
        let coeffs: Vec<_> = hosts
            .iter()
            .map(|n| (vars[n.index()], Rational::ONE))
            .collect();
        problem.add_constraint(Constraint::ge(coeffs, Rational::ONE));
    }

    let (lp, coverage_shadow_prices) = match solve_lp(&problem) {
        Outcome::Optimal(s) => {
            let prices = covered
                .iter()
                .enumerate()
                .map(|(i, &r)| (r, s.dual(i)))
                .collect();
            (s.objective, prices)
        }
        outcome => unreachable!(
            "dedicated cost relaxation is feasible and bounded for validated \
             models, got {outcome:?}"
        ),
    };

    let solution = match solve_ilp(&problem) {
        Ok(Outcome::Optimal(s)) => s,
        Ok(outcome) => unreachable!(
            "dedicated cost program is feasible and bounded for validated \
             models, got {outcome:?}"
        ),
        Err(_) => return Err(AnalysisError::CostSolverBudget),
    };

    let mut node_counts = Vec::new();
    for n in model.ids() {
        let v = solution.value(vars[n.index()]);
        let count = integral_u64(v, model.node_type(n).name())?;
        if count > 0 {
            node_counts.push((n, count));
        }
    }
    let total = integral_i64(solution.objective, "objective")?;

    Ok(DedicatedCostBound {
        total,
        lp_relaxation: lp,
        node_counts,
        coverage_shadow_prices,
    })
}

/// Checked read-back of a solver value the cost program guarantees to be
/// a non-negative integer. A rational or negative value is a solver
/// defect, surfaced as [`AnalysisError::CostNotIntegral`] instead of a
/// silent truncation.
fn integral_u64(v: Rational, what: &str) -> Result<u64, AnalysisError> {
    if !v.is_integer() || v.is_negative() {
        return Err(AnalysisError::CostNotIntegral {
            detail: format!("{what} = {v}"),
        });
    }
    u64::try_from(v.numer()).map_err(|_| AnalysisError::BoundOverflow {
        detail: format!("{what} = {v} exceeds u64"),
    })
}

/// [`integral_u64`] for signed totals (the objective under non-negative
/// node costs is non-negative, but the check does not rely on it).
fn integral_i64(v: Rational, what: &str) -> Result<i64, AnalysisError> {
    if !v.is_integer() {
        return Err(AnalysisError::CostNotIntegral {
            detail: format!("{what} = {v}"),
        });
    }
    i64::try_from(v.numer()).map_err(|_| AnalysisError::BoundOverflow {
        detail: format!("{what} = {v} exceeds i64"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::model::{NodeType, SystemModel};
    use rtlb_graph::{Catalog, Dur, TaskGraphBuilder, TaskSpec, Time};

    fn bound(resource: ResourceId, bound: u32) -> ResourceBound {
        ResourceBound {
            resource,
            bound,
            witness: None,
            intervals_examined: 0,
        }
    }

    #[test]
    fn shared_cost_is_weighted_sum() {
        let mut c = Catalog::new();
        let p1 = c.processor("P1");
        let p2 = c.processor("P2");
        let r1 = c.resource("r1");
        let model = SharedModel::new()
            .with_cost(p1, 10)
            .with_cost(p2, 20)
            .with_cost(r1, 5);
        let bounds = [bound(p1, 3), bound(p2, 2), bound(r1, 2)];
        let cost = shared_cost_bound(&model, &bounds).unwrap();
        assert_eq!(cost.total, 3 * 10 + 2 * 20 + 2 * 5);
        assert_eq!(cost.breakdown.len(), 3);
    }

    #[test]
    fn shared_cost_missing_price_errors() {
        let mut c = Catalog::new();
        let p1 = c.processor("P1");
        let model = SharedModel::new();
        assert_eq!(
            shared_cost_bound(&model, &[bound(p1, 1)]),
            Err(AnalysisError::MissingCost(p1))
        );
        // …but a zero bound needs no price.
        assert_eq!(shared_cost_bound(&model, &[bound(p1, 0)]).unwrap().total, 0);
    }

    /// The paper's Section 8 Step 4 dedicated-model program with unit
    /// costs: x1 + x2 >= 3, x1 >= 2, x3 >= 2 gives x = (2, 1, 2).
    #[test]
    fn paper_step4_dedicated_cost() {
        let mut c = Catalog::new();
        let p1 = c.processor("P1");
        let p2 = c.processor("P2");
        let r1 = c.resource("r1");
        let mut b = TaskGraphBuilder::new(c);
        b.default_deadline(Time::new(36));
        // Representative tasks: one needing {P1,r1}, one P1-only, one P2.
        b.add_task(TaskSpec::new("u", Dur::new(1), p1).resource(r1))
            .unwrap();
        b.add_task(TaskSpec::new("v", Dur::new(1), p1)).unwrap();
        b.add_task(TaskSpec::new("w", Dur::new(1), p2)).unwrap();
        let g = b.build().unwrap();

        let model = DedicatedModel::new(vec![
            NodeType::new("N1{P1,r1}", p1, [r1], 1),
            NodeType::new("N2{P1}", p1, [], 1),
            NodeType::new("N3{P2}", p2, [], 1),
        ]);
        let bounds = [bound(p1, 3), bound(p2, 2), bound(r1, 2)];
        let cost = dedicated_cost_bound(&g, &model, &bounds).unwrap();
        assert_eq!(cost.total, 5); // 2·CostN(1) + 1·CostN(2) + 2·CostN(3)
        let counts: std::collections::BTreeMap<_, _> = cost.node_counts.iter().copied().collect();
        assert_eq!(counts[&NodeTypeId::from_index(0)], 2);
        assert_eq!(counts[&NodeTypeId::from_index(1)], 1);
        assert_eq!(counts[&NodeTypeId::from_index(2)], 2);
        assert!(cost.lp_relaxation <= Rational::from(5));
        // Shadow prices: with unit node costs, each extra P1 or P2 unit
        // costs one more node; the r1 bound rides along inside N1 at no
        // extra charge once LB_P1 binds.
        let price = |name: &str| {
            cost.coverage_shadow_prices
                .iter()
                .find(|(r, _)| *r == g.catalog().lookup(name).unwrap())
                .map(|&(_, p)| p)
        };
        assert_eq!(price("P1"), Some(Rational::ONE));
        assert_eq!(price("P2"), Some(Rational::ONE));
        assert_eq!(price("r1"), Some(Rational::ZERO));
        // Strong duality sanity: Σ price·LB <= LP optimum (hostability
        // constraints may carry the rest).
        let weighted: Rational = cost
            .coverage_shadow_prices
            .iter()
            .map(|&(r, p)| {
                let lb = bounds.iter().find(|b| b.resource == r).unwrap().bound;
                p * Rational::from(i64::from(lb))
            })
            .sum();
        assert!(weighted <= cost.lp_relaxation);
    }

    #[test]
    fn expensive_bundles_are_avoided_when_possible() {
        let mut c = Catalog::new();
        let p1 = c.processor("P1");
        let r1 = c.resource("r1");
        let mut b = TaskGraphBuilder::new(c);
        b.default_deadline(Time::new(10));
        b.add_task(TaskSpec::new("u", Dur::new(1), p1).resource(r1))
            .unwrap();
        b.add_task(TaskSpec::new("v", Dur::new(1), p1)).unwrap();
        let g = b.build().unwrap();
        // A gold-plated node and a cheap bare node.
        let model = DedicatedModel::new(vec![
            NodeType::new("gold", p1, [r1], 100),
            NodeType::new("bare", p1, [], 1),
        ]);
        // LB: 2 processors, 1 r1.
        let bounds = [bound(p1, 2), bound(r1, 1)];
        let cost = dedicated_cost_bound(&g, &model, &bounds).unwrap();
        // One gold (covers r1 + a P1) + one bare.
        assert_eq!(cost.total, 101);
    }

    #[test]
    fn hostability_forces_nodes_even_without_resource_bounds() {
        let mut c = Catalog::new();
        let p1 = c.processor("P1");
        let p2 = c.processor("P2");
        let mut b = TaskGraphBuilder::new(c);
        b.default_deadline(Time::new(10));
        b.add_task(TaskSpec::new("u", Dur::new(1), p1)).unwrap();
        b.add_task(TaskSpec::new("w", Dur::new(1), p2)).unwrap();
        let g = b.build().unwrap();
        let model = DedicatedModel::new(vec![
            NodeType::new("n1", p1, [], 3),
            NodeType::new("n2", p2, [], 4),
        ]);
        // All-zero resource bounds: hostability alone requires one of each.
        let bounds = [bound(p1, 0), bound(p2, 0)];
        let cost = dedicated_cost_bound(&g, &model, &bounds).unwrap();
        assert_eq!(cost.total, 7);
    }

    #[test]
    fn unhostable_task_is_reported() {
        let mut c = Catalog::new();
        let p1 = c.processor("P1");
        let p2 = c.processor("P2");
        let mut b = TaskGraphBuilder::new(c);
        b.default_deadline(Time::new(10));
        b.add_task(TaskSpec::new("u", Dur::new(1), p2)).unwrap();
        let g = b.build().unwrap();
        let model = DedicatedModel::new(vec![NodeType::new("n1", p1, [], 3)]);
        assert!(matches!(
            dedicated_cost_bound(&g, &model, &[]),
            Err(AnalysisError::UnhostableTask(_))
        ));
    }

    /// A half-unit or negative solver value is reported as
    /// `CostNotIntegral`, never truncated into a bogus count.
    #[test]
    fn non_integral_solver_values_are_rejected() {
        assert_eq!(integral_u64(Rational::from(3), "x1"), Ok(3));
        assert!(matches!(
            integral_u64(Rational::new(1, 2), "x2"),
            Err(AnalysisError::CostNotIntegral { detail }) if detail.contains("x2")
        ));
        assert!(matches!(
            integral_u64(Rational::from(-1), "x3"),
            Err(AnalysisError::CostNotIntegral { .. })
        ));
        assert_eq!(integral_i64(Rational::from(-7), "objective"), Ok(-7));
        assert!(matches!(
            integral_i64(Rational::new(7, 3), "objective"),
            Err(AnalysisError::CostNotIntegral { .. })
        ));
    }

    /// The shared-model weighted sum refuses to wrap around.
    #[test]
    fn shared_cost_overflow_is_an_error() {
        let mut c = Catalog::new();
        let p1 = c.processor("P1");
        let model = SharedModel::new().with_cost(p1, i64::MAX / 2);
        assert!(matches!(
            shared_cost_bound(&model, &[bound(p1, 3)]),
            Err(AnalysisError::BoundOverflow { .. })
        ));
    }

    #[test]
    fn end_to_end_cost_from_real_bounds() {
        // Full pipeline: graph -> timing -> bounds -> both cost models.
        let mut c = Catalog::new();
        let p = c.processor("P");
        let mut b = TaskGraphBuilder::new(c);
        for i in 0..3 {
            b.add_task(TaskSpec::new(format!("t{i}"), Dur::new(4), p).deadline(Time::new(4)))
                .unwrap();
        }
        let g = b.build().unwrap();
        let analysis = analyze(&g, &SystemModel::shared()).unwrap();
        let bounds = analysis.bounds();

        let shared = SharedModel::new().with_cost(p, 7);
        assert_eq!(shared_cost_bound(&shared, bounds).unwrap().total, 21);

        let dedicated = DedicatedModel::new(vec![NodeType::new("n", p, [], 7)]);
        let cost = dedicated_cost_bound(&g, &dedicated, bounds).unwrap();
        assert_eq!(cost.total, 21);
        assert_eq!(cost.lp_relaxation, Rational::from(21));
    }
}

//! Property-based tests of the analysis invariants.
//!
//! * Theorems 3–4: the closed-form overlap `Ψ` equals an independently
//!   derived brute-force minimum over all single-task schedules.
//! * `Ψ` monotonicity and the preemptive ≤ non-preemptive ordering.
//! * `Θ` superadditivity across interval splits (the property behind
//!   Lemma 1 / Theorem 5).
//! * Theorem 5: partitioned and unpartitioned sweeps give the same bound.
//! * Theorem 1: the greedy merge scan attains the best Equation 4.1 value
//!   over *all* mergeable successor subsets (brute-force comparison on
//!   star graphs).
//! * Time reversal: Figure 2 is Figure 3 on the reversed graph, so
//!   flipping every edge and negating every time swaps `E` with `−L` and
//!   the merged predecessors with the merged successors.
//! * Plain critical-path windows bracket the merge-aware ones at any
//!   size: `EST⁰ ≤ E_i ≤ EST¹` and `LCT¹ ≤ L_i ≤ LCT⁰`, where the
//!   superscript says whether every message is free (0) or paid (1).
//! * The ILP solver agrees with exhaustive enumeration on small covering
//!   programs.

use proptest::prelude::*;

use rtlb::core::oracle::flat_bounds;
use rtlb::core::NodeType;
use rtlb::core::{
    analyze, compute_timing, overlap, partition_tasks, resource_bound, theta, CandidatePolicy,
    SystemModel, TaskWindow,
};
use rtlb::graph::{Catalog, Dur, Edge, ExecutionMode, TaskGraph, TaskGraphBuilder, TaskSpec, Time};
use rtlb::ilp::{brute_force_ilp, solve_ilp, Constraint, Outcome, Problem, Rational};
use rtlb::workloads::{chain, fork_join, framed_tasks, layered, LayeredConfig};

/// Brute-force minimum overlap for a non-preemptive task: try every
/// integer start in `[e, l - c]` and measure the intersection with
/// `[t1, t2]`.
fn brute_np(e: i64, l: i64, c: i64, t1: i64, t2: i64) -> i64 {
    (e..=(l - c))
        .map(|s| (t2.min(s + c) - t1.max(s)).max(0))
        .min()
        .expect("window fits computation")
}

/// Brute-force minimum overlap for a preemptive task: the ticks available
/// outside `[t1, t2]` within the window bound how much can escape.
fn brute_p(e: i64, l: i64, c: i64, t1: i64, t2: i64) -> i64 {
    let before = (t1.min(l) - e).max(0);
    let after = (l - t2.max(e)).max(0);
    (c - before - after).max(0)
}

fn neg(t: Time) -> Time {
    Time::new(-t.ticks())
}

/// `graph` with every edge flipped and time reversed: each task keeps
/// its computation, processor, resources and mode, and its window
/// `[rel, D]` becomes `[−D, −rel]`. Task ids are kept.
fn reversed(graph: &TaskGraph) -> TaskGraph {
    let mut builder = TaskGraphBuilder::new(graph.catalog().clone());
    for (_, task) in graph.tasks() {
        let spec = TaskSpec::new(task.name(), task.computation(), task.processor())
            .resources(task.resources().iter().copied())
            .mode(task.mode())
            .release(neg(task.deadline()))
            .deadline(neg(task.release()));
        builder.add_task(spec).unwrap();
    }
    for from in graph.task_ids() {
        for e in graph.successors(from) {
            builder.add_edge(e.other, from, e.message).unwrap();
        }
    }
    builder.build().unwrap()
}

/// Checks `E' = −L`, `L' = −E`, `M' = G` and `G' = M` between `graph`
/// and its reversal, and returns how many merges the forward timing made.
fn check_time_reversal(graph: &TaskGraph, model: &SystemModel) -> Result<usize, TestCaseError> {
    let forward = compute_timing(graph, model);
    let backward = compute_timing(&reversed(graph), model);
    let mut merges = 0;
    for t in graph.task_ids() {
        prop_assert_eq!(backward.est(t), neg(forward.lct(t)), "E' of {}", t);
        prop_assert_eq!(backward.lct(t), neg(forward.est(t)), "L' of {}", t);
        prop_assert_eq!(
            backward.merged_predecessors(t),
            forward.merged_successors(t),
            "M' of {}",
            t
        );
        prop_assert_eq!(
            backward.merged_successors(t),
            forward.merged_predecessors(t),
            "G' of {}",
            t
        );
        merges += forward.merged_predecessors(t).len() + forward.merged_successors(t).len();
    }
    Ok(merges)
}

/// Plain critical-path windows, in topological order with releases and
/// deadlines and no merging: `EST` from the predecessors' `EST + C`,
/// `LCT` from the successors' `LCT − C`, with every message free when
/// `paid` is false and every message paid when it is true.
fn plain_windows(graph: &TaskGraph, paid: bool) -> Vec<TaskWindow> {
    let message = |e: &Edge| if paid { e.message } else { Dur::ZERO };
    let order = graph.topological_order();
    let mut windows = vec![window(0, 0); graph.task_count()];
    for &i in order {
        windows[i.index()].est = graph
            .predecessors(i)
            .iter()
            .map(|e| windows[e.other.index()].est + graph.task(e.other).computation() + message(e))
            .fold(graph.task(i).release(), Time::max);
    }
    for &i in order.iter().rev() {
        windows[i.index()].lct = graph
            .successors(i)
            .iter()
            .map(|e| windows[e.other.index()].lct - graph.task(e.other).computation() - message(e))
            .fold(graph.task(i).deadline(), Time::min);
    }
    windows
}

/// A dedicated model with one node type per distinct `(processor,
/// resource set)` of the tasks: every task is hostable, but two tasks
/// merge only when some task's set covers both of theirs.
fn exact_bundles(graph: &TaskGraph) -> SystemModel {
    let mut bundles = std::collections::BTreeSet::new();
    for (_, task) in graph.tasks() {
        bundles.insert((task.processor(), task.resources().clone()));
    }
    SystemModel::dedicated(
        bundles
            .into_iter()
            .enumerate()
            .map(|(k, (p, resources))| NodeType::new(format!("N{k}"), p, resources, 1))
            .collect(),
    )
}

/// Checks `EST⁰ ≤ E_i ≤ EST¹` and `LCT¹ ≤ L_i ≤ LCT⁰` for every task of
/// `graph` under `model`, and returns how many windows lie strictly
/// inside the plain ones on at least one side — windows that merging
/// moved.
fn check_plain_window_bounds(
    graph: &TaskGraph,
    model: &SystemModel,
) -> Result<usize, TestCaseError> {
    let timing = compute_timing(graph, model);
    let (free, paid) = (plain_windows(graph, false), plain_windows(graph, true));
    let mut inside = 0;
    for t in graph.task_ids() {
        let (w, lo, hi) = (timing.window(t), free[t.index()], paid[t.index()]);
        prop_assert!(
            lo.est <= w.est && w.est <= hi.est,
            "E of {}: {:?} not in [{:?}, {:?}]",
            t,
            w.est,
            lo.est,
            hi.est
        );
        prop_assert!(
            hi.lct <= w.lct && w.lct <= lo.lct,
            "L of {}: {:?} not in [{:?}, {:?}]",
            t,
            w.lct,
            hi.lct,
            lo.lct
        );
        if (lo.est < w.est && w.est < hi.est) || (hi.lct < w.lct && w.lct < lo.lct) {
            inside += 1;
        }
    }
    Ok(inside)
}

fn window(e: i64, l: i64) -> TaskWindow {
    TaskWindow {
        est: Time::new(e),
        lct: Time::new(l),
    }
}

proptest! {
    /// Theorem 4 (non-preemptive Ψ) against the brute-force oracle.
    #[test]
    fn psi_np_matches_brute_force(
        e in 0i64..12,
        width in 1i64..14,
        c_frac in 1i64..14,
        t1 in 0i64..20,
        dt in 1i64..12,
    ) {
        let l = e + width;
        let c = 1 + (c_frac - 1) % width; // 1..=width
        let t2 = t1 + dt;
        let psi = overlap(
            window(e, l), Dur::new(c), ExecutionMode::NonPreemptive,
            Time::new(t1), Time::new(t2),
        ).ticks();
        prop_assert_eq!(psi, brute_np(e, l, c, t1, t2));
    }

    /// Theorem 3 (preemptive Ψ) against the brute-force oracle.
    #[test]
    fn psi_p_matches_brute_force(
        e in 0i64..12,
        width in 1i64..14,
        c_frac in 1i64..14,
        t1 in 0i64..20,
        dt in 1i64..12,
    ) {
        let l = e + width;
        let c = 1 + (c_frac - 1) % width;
        let t2 = t1 + dt;
        let psi = overlap(
            window(e, l), Dur::new(c), ExecutionMode::Preemptive,
            Time::new(t1), Time::new(t2),
        ).ticks();
        prop_assert_eq!(psi, brute_p(e, l, c, t1, t2));
    }

    /// Ψ grows when the interval grows (monotone in ⊆) and preemption
    /// never increases the overlap.
    #[test]
    fn psi_monotone_and_ordered(
        e in 0i64..10,
        width in 1i64..12,
        c_frac in 1i64..12,
        t1 in 0i64..16,
        dt in 1i64..8,
        grow in 0i64..4,
    ) {
        let l = e + width;
        let c = 1 + (c_frac - 1) % width;
        let (t2, gt1, gt2) = (t1 + dt, (t1 - grow).max(0), t1 + dt + grow);
        for mode in [ExecutionMode::Preemptive, ExecutionMode::NonPreemptive] {
            let small = overlap(window(e, l), Dur::new(c), mode, Time::new(t1), Time::new(t2));
            let large = overlap(window(e, l), Dur::new(c), mode, Time::new(gt1), Time::new(gt2));
            prop_assert!(small <= large, "Ψ must be monotone in the interval");
        }
        let p = overlap(window(e, l), Dur::new(c), ExecutionMode::Preemptive,
                        Time::new(t1), Time::new(t2));
        let np = overlap(window(e, l), Dur::new(c), ExecutionMode::NonPreemptive,
                         Time::new(t1), Time::new(t2));
        prop_assert!(p <= np);
    }

    /// Θ is superadditive on interval splits: forcing work into [a, c] is
    /// at least forcing it into [a, b] plus [b, c].
    #[test]
    fn theta_superadditive(
        specs in proptest::collection::vec((0i64..8, 1i64..8, 1i64..8, any::<bool>()), 1..6),
        a in 0i64..10,
        d1 in 1i64..6,
        d2 in 1i64..6,
    ) {
        let mut catalog = Catalog::new();
        let p = catalog.processor("P");
        let mut builder = TaskGraphBuilder::new(catalog);
        for (i, &(rel, width, c_frac, preempt)) in specs.iter().enumerate() {
            let c = 1 + (c_frac - 1) % width;
            let mut spec = TaskSpec::new(format!("t{i}"), Dur::new(c), p)
                .release(Time::new(rel))
                .deadline(Time::new(rel + width));
            if preempt {
                spec = spec.preemptive();
            }
            builder.add_task(spec).unwrap();
        }
        let graph = builder.build().unwrap();
        let timing = compute_timing(&graph, &SystemModel::shared());
        let tasks = graph.tasks_demanding(p);
        let (b, c) = (a + d1, a + d1 + d2);
        let whole = theta(&graph, &timing, &tasks, Time::new(a), Time::new(c));
        let left = theta(&graph, &timing, &tasks, Time::new(a), Time::new(b));
        let right = theta(&graph, &timing, &tasks, Time::new(b), Time::new(c));
        prop_assert!(whole >= left + right);
    }

    /// Theorem 5: the partitioned sweep and the flat sweep agree, and the
    /// partitioned one never looks at more intervals.
    #[test]
    fn theorem5_equality(
        specs in proptest::collection::vec((0i64..40, 1i64..8, 1i64..8, any::<bool>()), 1..12),
    ) {
        let mut catalog = Catalog::new();
        let p = catalog.processor("P");
        let mut builder = TaskGraphBuilder::new(catalog);
        for (i, &(rel, width, c_frac, preempt)) in specs.iter().enumerate() {
            let c = 1 + (c_frac - 1) % width;
            let mut spec = TaskSpec::new(format!("t{i}"), Dur::new(c), p)
                .release(Time::new(rel))
                .deadline(Time::new(rel + width));
            if preempt {
                spec = spec.preemptive();
            }
            builder.add_task(spec).unwrap();
        }
        let graph = builder.build().unwrap();
        let timing = compute_timing(&graph, &SystemModel::shared());
        let part = partition_tasks(&graph, &timing, p);
        let with = resource_bound(&graph, &timing, &part).unwrap();
        let without = flat_bounds(&graph, &timing, CandidatePolicy::EstLct).unwrap()[0];
        prop_assert_eq!(without.resource, p);
        prop_assert_eq!(with.bound, without.bound);
        prop_assert!(with.intervals_examined <= without.intervals_examined);
    }

    /// Theorem 1 on star graphs: the greedy merge scan's L equals the
    /// maximum of Equation 4.1 over every subset of successors.
    #[test]
    fn theorem1_greedy_is_optimal(
        succs in proptest::collection::vec((1i64..6, 0i64..6, 10i64..30), 1..6),
        center_c in 1i64..5,
    ) {
        let mut catalog = Catalog::new();
        let p = catalog.processor("P");
        let mut builder = TaskGraphBuilder::new(catalog);
        builder.default_deadline(Time::new(60));
        let center = builder
            .add_task(TaskSpec::new("center", Dur::new(center_c), p))
            .unwrap();
        let mut kids = Vec::new();
        for (i, &(c, m, d)) in succs.iter().enumerate() {
            let kid = builder
                .add_task(TaskSpec::new(format!("k{i}"), Dur::new(c), p).deadline(Time::new(d)))
                .unwrap();
            builder.add_edge(center, kid, Dur::new(m)).unwrap();
            kids.push((kid, c, m, d));
        }
        let graph = builder.build().unwrap();
        let timing = compute_timing(&graph, &SystemModel::shared());
        let greedy = timing.lct(center).ticks();

        // Brute force Equation 4.1 over all subsets A of successors.
        let n = kids.len();
        let mut best = i64::MIN;
        for mask in 0..(1u32 << n) {
            // lst(A): pack merged kids back from their deadlines.
            let mut merged: Vec<(i64, i64)> = Vec::new(); // (deadline, c)
            let mut lct = 60i64.min(
                (0..n)
                    .filter(|&i| mask & (1 << i) == 0)
                    .map(|i| kids[i].3 - kids[i].1 - kids[i].2) // lms = D - C - m
                    .min()
                    .unwrap_or(i64::MAX),
            );
            for (i, kid) in kids.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    merged.push((kid.3, kid.1));
                }
            }
            merged.sort_by_key(|&(d, _)| std::cmp::Reverse(d));
            let mut start = i64::MAX;
            for (d, c) in merged {
                let completion = start.min(d);
                start = completion - c;
            }
            lct = lct.min(start);
            best = best.max(lct);
        }
        prop_assert_eq!(greedy, best, "greedy L differs from subset optimum");
    }

    /// Theorem 2 on star graphs (mirror of Theorem 1): the greedy EST
    /// merge scan's E equals the minimum of Equation 4.5 over every
    /// subset of predecessors.
    #[test]
    fn theorem2_greedy_is_optimal(
        preds in proptest::collection::vec((1i64..6, 0i64..6, 0i64..8), 1..6),
        center_c in 1i64..5,
    ) {
        let mut catalog = Catalog::new();
        let p = catalog.processor("P");
        let mut builder = TaskGraphBuilder::new(catalog);
        builder.default_deadline(Time::new(200));
        let mut kids = Vec::new();
        let mut specs = Vec::new();
        for (i, &(c, m, rel)) in preds.iter().enumerate() {
            let kid = builder
                .add_task(TaskSpec::new(format!("k{i}"), Dur::new(c), p).release(Time::new(rel)))
                .unwrap();
            specs.push((kid, c, m, rel));
            kids.push(kid);
        }
        let center = builder
            .add_task(TaskSpec::new("center", Dur::new(center_c), p))
            .unwrap();
        for (i, &(kid, _, m, _)) in specs.iter().enumerate() {
            let _ = i;
            builder.add_edge(kid, center, Dur::new(m)).unwrap();
        }
        let graph = builder.build().unwrap();
        let timing = compute_timing(&graph, &SystemModel::shared());
        let greedy = timing.est(center).ticks();

        // Brute force Equation 4.5 over all predecessor subsets: each
        // predecessor's EST is its release (sources), emr = rel + C + m;
        // ect(A) packs merged preds forward from their releases.
        let n = specs.len();
        let mut best = i64::MAX;
        for mask in 0..(1u32 << n) {
            let mut est = (0..n)
                .filter(|&i| mask & (1 << i) == 0)
                .map(|i| specs[i].3 + specs[i].1 + specs[i].2)
                .max()
                .unwrap_or(0)
                .max(0); // rel_center = 0
            let mut merged: Vec<(i64, i64)> = (0..n)
                .filter(|&i| mask & (1 << i) != 0)
                .map(|i| (specs[i].3, specs[i].1)) // (release, C)
                .collect();
            merged.sort_by_key(|&(rel, _)| rel);
            let mut finish = i64::MIN;
            for (rel, c) in merged {
                let start = finish.max(rel);
                finish = start + c;
            }
            if finish > i64::MIN {
                est = est.max(finish);
            }
            best = best.min(est);
        }
        prop_assert_eq!(greedy, best, "greedy E differs from subset optimum");
    }

    /// Time reversal on random DAGs under the shared model: two processor
    /// types, one resource, arbitrary windows (infeasible ones included)
    /// and messages on forward edges `i -> j`, `i < j`.
    #[test]
    fn time_reversal_swaps_est_and_lct(
        specs in proptest::collection::vec(
            (0i64..8, -4i64..16, 0i64..40, any::<bool>(), any::<bool>(), any::<bool>()),
            1..12,
        ),
        edges in proptest::collection::vec((0usize..12, 0usize..12, 0i64..8), 0..30),
    ) {
        let mut catalog = Catalog::new();
        let procs = [catalog.processor("P"), catalog.processor("Q")];
        let r = catalog.resource("r");
        let mut builder = TaskGraphBuilder::new(catalog);
        let mut ids = Vec::new();
        for (i, &(c, rel, width, on_q, uses_r, preempt)) in specs.iter().enumerate() {
            let mut spec = TaskSpec::new(format!("t{i}"), Dur::new(c), procs[usize::from(on_q)])
                .release(Time::new(rel))
                .deadline(Time::new(rel + width));
            if uses_r {
                spec = spec.resource(r);
            }
            if preempt {
                spec = spec.preemptive();
            }
            ids.push(builder.add_task(spec).unwrap());
        }
        let mut added = std::collections::BTreeSet::new();
        for &(a, b, m) in &edges {
            let (a, b) = (a % ids.len(), b % ids.len());
            if a < b && added.insert((a, b)) {
                builder.add_edge(ids[a], ids[b], Dur::new(m)).unwrap();
            }
        }
        let graph = builder.build().unwrap();
        check_time_reversal(&graph, &SystemModel::shared())?;
    }

    /// The merge-aware windows lie between the two plain critical-path
    /// windows on every generator the benchmarks use, at sizes the exact
    /// search cannot reach, under the shared model and a dedicated one
    /// that restricts merging.
    #[test]
    fn windows_lie_between_plain_critical_path_windows(
        kind in 0usize..4,
        size in 2usize..9,
        message in 0i64..8,
        seed in 0u64..1_000_000,
    ) {
        let graph = match kind {
            0 => layered(
                &LayeredConfig {
                    layers: size,
                    width: size,
                    resource_types: 2,
                    message: (0, message),
                    ..LayeredConfig::default()
                },
                seed,
            ),
            1 => fork_join(size, size / 2 + 1, message, seed),
            2 => chain(4 * size, message, seed),
            _ => framed_tasks(size, 4, seed),
        };
        for model in [SystemModel::shared(), exact_bundles(&graph)] {
            check_plain_window_bounds(&graph, &model)?;
        }
    }

    /// Text-format round trip preserves the analysis outcome on random
    /// independent task sets.
    #[test]
    fn format_round_trip_preserves_bounds(
        specs in proptest::collection::vec((0i64..20, 1i64..8, 1i64..8, any::<bool>()), 1..10),
    ) {
        let mut catalog = Catalog::new();
        let p = catalog.processor("P");
        let r = catalog.resource("res");
        let mut builder = TaskGraphBuilder::new(catalog);
        for (i, &(rel, width, c_frac, preempt)) in specs.iter().enumerate() {
            let c = 1 + (c_frac - 1) % width;
            let mut spec = TaskSpec::new(format!("t{i}"), Dur::new(c), p)
                .release(Time::new(rel))
                .deadline(Time::new(rel + width));
            if preempt {
                spec = spec.preemptive().resource(r);
            }
            builder.add_task(spec).unwrap();
        }
        let graph = builder.build().unwrap();
        let rendered = rtlb::format::render(&graph, None, None);
        let reparsed = rtlb::format::parse(&rendered).unwrap();
        let a = analyze(&graph, &SystemModel::shared()).unwrap();
        let b = analyze(&reparsed.graph, &SystemModel::shared()).unwrap();
        for (x, y) in a.bounds().iter().zip(b.bounds()) {
            prop_assert_eq!(x.bound, y.bound);
        }
    }

    /// ILP branch-and-bound equals exhaustive enumeration on small
    /// covering programs, and the LP relaxation never exceeds it.
    #[test]
    fn ilp_matches_brute_force(
        costs in proptest::collection::vec(1i64..8, 2..4),
        rows in proptest::collection::vec(
            (proptest::collection::vec(0i64..4, 2..4), 1i64..9),
            1..4
        ),
    ) {
        let mut problem = Problem::new();
        let vars: Vec<_> = costs
            .iter()
            .enumerate()
            .map(|(i, &c)| problem.add_var(format!("x{i}"), Rational::from(c), true))
            .collect();
        let mut any_coverable = true;
        for (coeffs, rhs) in &rows {
            let terms: Vec<_> = coeffs
                .iter()
                .zip(&vars)
                .filter(|(&a, _)| a > 0)
                .map(|(&a, &v)| (v, Rational::from(a)))
                .collect();
            if terms.is_empty() {
                any_coverable = false;
                continue; // uncoverable row would make it infeasible; skip
            }
            problem.add_constraint(Constraint::ge(terms, Rational::from(*rhs)));
        }
        prop_assume!(any_coverable);
        let bb = solve_ilp(&problem).unwrap();
        let bf = brute_force_ilp(&problem, 12);
        match (bb, bf) {
            (Outcome::Optimal(a), Outcome::Optimal(b)) => {
                prop_assert_eq!(a.objective, b.objective);
            }
            (a, b) => prop_assert!(
                matches!((&a, &b), (Outcome::Infeasible, Outcome::Infeasible)),
                "solver disagreement: {:?} vs {:?}", a, b
            ),
        }
    }
}

/// Time reversal on the paper example under its dedicated model, where
/// Table 1's merges happen in both directions.
#[test]
fn time_reversal_on_the_paper_example() {
    let ex = rtlb::workloads::paper_example();
    let model = SystemModel::Dedicated(ex.node_types([1, 1, 1]));
    let merges = check_time_reversal(&ex.graph, &model).unwrap();
    assert!(merges >= 10, "only {merges} merges: the check saw too few");
}

/// The plain-window bracket on the paper example under both models, and
/// on layered graphs where merging moves windows: the check must see
/// windows strictly inside their bounds, or it would not exercise the
/// merge scan at all.
#[test]
fn windows_lie_between_plain_windows_where_merging_moves_them() {
    let ex = rtlb::workloads::paper_example();
    let mut inside = 0;
    for model in [
        SystemModel::shared(),
        SystemModel::Dedicated(ex.node_types([1, 1, 1])),
    ] {
        inside += check_plain_window_bounds(&ex.graph, &model).unwrap();
    }
    assert!(inside > 0, "no paper-example window moved by merging");
    let config = LayeredConfig {
        layers: 20,
        width: 20,
        ..LayeredConfig::default()
    };
    let graph = layered(&config, 1000);
    for model in [SystemModel::shared(), exact_bundles(&graph)] {
        let inside = check_plain_window_bounds(&graph, &model).unwrap();
        assert!(inside > 0, "no layered window moved by merging");
    }
}

/// Deterministic cross-check: the pipeline's bound for every generated
/// workload is reproducible and stable under re-analysis.
#[test]
fn analysis_is_deterministic() {
    for seed in 0..5u64 {
        let g = rtlb::workloads::layered(&rtlb::workloads::LayeredConfig::default(), seed);
        let a1 = analyze(&g, &SystemModel::shared()).unwrap();
        let a2 = analyze(&g, &SystemModel::shared()).unwrap();
        for (x, y) in a1.bounds().iter().zip(a2.bounds()) {
            assert_eq!(x, y);
        }
    }
}

/// Deterministic port of the recorded `theorem1_greedy_is_optimal`
/// regression (`succs = [(2, 5, 15), (1, 4, 13)], center_c = 1` in
/// `property_invariants.proptest-regressions`): a star whose two
/// successors each allow `lms = 8` unmerged, but merging *both* packs
/// them back from their deadlines (completion 15 → start 13, completion
/// 13 → start 12) and lifts the center's LCT to 12. A scan that only
/// considered single-successor merges reported 8 here.
#[test]
fn theorem1_regression_two_successor_merge() {
    let mut catalog = Catalog::new();
    let p = catalog.processor("P");
    let mut builder = TaskGraphBuilder::new(catalog);
    builder.default_deadline(Time::new(60));
    let center = builder
        .add_task(TaskSpec::new("center", Dur::new(1), p))
        .unwrap();
    for (i, (c, m, d)) in [(2, 5, 15), (1, 4, 13)].into_iter().enumerate() {
        let kid = builder
            .add_task(TaskSpec::new(format!("k{i}"), Dur::new(c), p).deadline(Time::new(d)))
            .unwrap();
        builder.add_edge(center, kid, Dur::new(m)).unwrap();
    }
    let graph = builder.build().unwrap();
    let timing = compute_timing(&graph, &SystemModel::shared());
    assert_eq!(timing.lct(center).ticks(), 12);
}

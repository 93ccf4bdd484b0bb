//! End-to-end reproduction of the paper's Section 8 example:
//! Table 1 (E1), the Step 2 partitions (E2), the Step 3 bounds and quoted
//! Θ ratios (E3), the Step 4 cost programs (E4), and the worked merge
//! traces (E6).

use rtlb::core::{
    analyze, compute_timing, compute_timing_traced, dedicated_cost_bound, shared_cost_bound, theta,
    MergeDecision, SystemModel, TaskTrace,
};
use rtlb::graph::{TaskId, Time};
use rtlb::ilp::Rational;
use rtlb::workloads::paper_example;

fn names(ex: &rtlb::workloads::PaperExample, ids: &[TaskId]) -> Vec<usize> {
    ids.iter()
        .map(|&id| {
            (1..=15)
                .find(|&n| ex.task(n) == id)
                .expect("id belongs to the example")
        })
        .collect()
}

/// E1: Table 1 in full (with the two documented paper-side anomalies:
/// G_9 and L_11; see EXPERIMENTS.md).
#[test]
fn e1_table1() {
    let ex = paper_example();
    let timing = compute_timing(&ex.graph, &SystemModel::shared());

    let expected: [(i64, &[usize], i64, &[usize]); 15] = [
        (0, &[], 3, &[4]),
        (0, &[], 6, &[]),
        (3, &[], 6, &[]),
        (3, &[1], 8, &[]),
        (6, &[2], 15, &[9]),
        (11, &[], 15, &[]),
        (10, &[], 16, &[]),
        (18, &[], 23, &[]),
        (16, &[5], 19, &[14]), // paper table prints G_9 = {14,13}
        (22, &[], 30, &[15]),
        (20, &[], 30, &[15]), // paper table prints L_11 = 35
        (30, &[], 30, &[]),
        (19, &[9], 30, &[]),
        (19, &[9], 30, &[]),
        (30, &[10, 11], 36, &[]),
    ];

    for (i, (e, m, l, g)) in expected.iter().enumerate() {
        let id = ex.task(i + 1);
        assert_eq!(timing.est(id), Time::new(*e), "E_{}", i + 1);
        assert_eq!(timing.lct(id), Time::new(*l), "L_{}", i + 1);
        assert_eq!(
            &names(&ex, timing.merged_predecessors(id)),
            m,
            "M_{}",
            i + 1
        );
        assert_eq!(&names(&ex, timing.merged_successors(id)), g, "G_{}", i + 1);
    }
}

/// E2: the Step 2 partitions of ST_P1, ST_P2 and ST_r1.
#[test]
fn e2_partitions() {
    let ex = paper_example();
    let analysis = analyze(&ex.graph, &SystemModel::shared()).unwrap();

    let blocks_of = |r| {
        let partition = analysis
            .partitions()
            .iter()
            .find(|p| p.resource == r)
            .expect("partition exists");
        partition
            .blocks()
            .map(|b| {
                let mut ns = names(&ex, b.tasks);
                ns.sort_unstable();
                ns
            })
            .collect::<Vec<_>>()
    };

    assert_eq!(
        blocks_of(ex.p1),
        vec![
            vec![1, 2, 3, 4, 5],
            vec![9],
            vec![10, 11, 13, 14],
            vec![12, 15]
        ]
    );
    assert_eq!(blocks_of(ex.p2), vec![vec![6, 7], vec![8]]);
    assert_eq!(
        blocks_of(ex.r1),
        vec![vec![1, 2], vec![5], vec![10, 13, 14], vec![15]]
    );
}

/// E3: LB_P1 = 3, LB_P2 = 2, LB_r1 = 2, and the Θ ratios the paper quotes
/// for the interval [0, 15]: Θ(P1,0,3)/3 → 2, Θ(P1,3,6)/3 → 3,
/// Θ(P1,3,8)/5 → 3.
#[test]
fn e3_bounds_and_quoted_ratios() {
    let ex = paper_example();
    let analysis = analyze(&ex.graph, &SystemModel::shared()).unwrap();
    assert_eq!(analysis.units_required(ex.p1), 3);
    assert_eq!(analysis.units_required(ex.p2), 2);
    assert_eq!(analysis.units_required(ex.r1), 2);

    let timing = analysis.timing();
    let st_p1 = ex.graph.tasks_demanding(ex.p1);
    let th =
        |t1: i64, t2: i64| theta(&ex.graph, timing, &st_p1, Time::new(t1), Time::new(t2)).ticks();
    assert_eq!(th(0, 3), 6);
    assert_eq!(th(3, 6), 9);
    assert_eq!(th(3, 8), 11);
}

/// E4: the cost programs. With unit costs the dedicated IP optimum is
/// x1 = 2, x2 = 1, x3 = 2 with value 5, exactly as printed.
#[test]
fn e4_cost_programs() {
    let ex = paper_example();
    let analysis = analyze(&ex.graph, &SystemModel::shared()).unwrap();

    // Shared model: 3·CostR(P1) + 2·CostR(P2) + 2·CostR(r1).
    let shared = ex.shared_costs([10, 100, 1000]);
    let cost = shared_cost_bound(&shared, analysis.bounds()).unwrap();
    assert_eq!(cost.total, 3 * 10 + 2 * 100 + 2 * 1000);

    // Dedicated model with unit node costs.
    let model = ex.node_types([1, 1, 1]);
    let cost = dedicated_cost_bound(&ex.graph, &model, analysis.bounds()).unwrap();
    assert_eq!(cost.total, 5);
    let counts: std::collections::BTreeMap<usize, u64> = cost
        .node_counts
        .iter()
        .map(|&(n, c)| (n.index(), c))
        .collect();
    assert_eq!(counts.get(&0), Some(&2), "x1 = 2");
    assert_eq!(counts.get(&1), Some(&1), "x2 = 1");
    assert_eq!(counts.get(&2), Some(&2), "x3 = 2");
    // The LP relaxation is a (weakly) smaller bound, as Section 7 notes.
    assert!(cost.lp_relaxation <= Rational::from(5));
}

/// The dedicated-model analysis produces identical timing and bounds on
/// this instance (the paper notes mergeability coincides here).
#[test]
fn dedicated_model_analysis_matches_shared() {
    let ex = paper_example();
    let shared = analyze(&ex.graph, &SystemModel::shared()).unwrap();
    let dedicated_model = SystemModel::Dedicated(ex.node_types([1, 1, 1]));
    let dedicated = analyze(&ex.graph, &dedicated_model).unwrap();
    for n in 1..=15 {
        let id = ex.task(n);
        assert_eq!(shared.timing().window(id), dedicated.timing().window(id));
    }
    for (a, b) in shared.bounds().iter().zip(dedicated.bounds()) {
        assert_eq!(a.bound, b.bound);
    }
}

/// E6: the merge scans the Section 8 prose walks through, step by step
/// (`--bin trace_merges` prints them): for `L_9`, `L_5` and `E_15`, each
/// candidate with its `lms` or `emr`, the bound merging it gives and the
/// decision, plus the no-merge base and the final value.
#[test]
fn e6_worked_merge_traces() {
    use MergeDecision::{Accepted, RejectedNoImprovement};
    let ex = paper_example();
    let (_, trace) = compute_timing_traced(&ex.graph, &SystemModel::shared());
    let summary = |traces: &[TaskTrace], n: usize| {
        let t = traces
            .iter()
            .find(|t| t.task == ex.task(n))
            .expect("every task is traced");
        let steps: Vec<(usize, i64, i64, MergeDecision)> = t
            .steps
            .iter()
            .map(|s| {
                let candidate = names(&ex, &[s.candidate])[0];
                (
                    candidate,
                    s.boundary.ticks(),
                    s.resulting.ticks(),
                    s.decision,
                )
            })
            .collect();
        (t.base.ticks(), steps, t.final_value.ticks())
    };

    // lms from 9 to (14, 13, 15) = 18, 19, 26: merging 14 lifts the
    // no-merge 18 to 19; merging 13 as well keeps 19, so it is not merged.
    assert_eq!(
        summary(&trace.lct, 9),
        (
            18,
            vec![
                (14, 18, 19, Accepted),
                (13, 19, 19, RejectedNoImprovement),
                (15, 26, 19, RejectedNoImprovement),
            ],
            19
        ),
        "L_9"
    );
    // lms_9 = 7; merging 9 gives 15. Task 8 runs on another processor
    // type, so it is never a candidate.
    assert_eq!(
        summary(&trace.lct, 5),
        (7, vec![(9, 7, 15, Accepted)], 15),
        "L_5"
    );
    // emr from (10, 11, 9) to 15 = 35, 31, 23: merging 10 gives 31,
    // merging 11 as well gives 30, and merging 9 keeps 30.
    assert_eq!(
        summary(&trace.est, 15),
        (
            35,
            vec![
                (10, 35, 31, Accepted),
                (11, 31, 30, Accepted),
                (9, 23, 30, RejectedNoImprovement),
            ],
            30
        ),
        "E_15"
    );
}

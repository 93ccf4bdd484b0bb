//! The panic-free failure contract of the analysis core.
//!
//! Every input a caller can construct must come back as `Ok` or as a
//! typed [`AnalysisError`] — never as a panic, never as a silent wrap.
//! The property tests push magnitudes far past the pipeline's exact
//! arithmetic range; the directed tests pin each converted panic site
//! (the Equation 6.3 ceiling overflow, cooperative cancellation, the
//! session's failed-apply recovery, the magnitude guard on every
//! session entry, and the timing of a task no node type can host).

use proptest::prelude::*;

use rtlb::core::oracle::{compute_timing_paper, flat_bounds, naive_bounds};
use rtlb::core::{
    analyze, analyze_ctl, analyze_with, compute_timing, compute_timing_traced, partition_tasks,
    resource_bound, AnalysisError, AnalysisOptions, AnalysisSession, CancelToken, CandidatePolicy,
    Delta, NodeType, SystemModel, TaskWindow,
};
use rtlb::graph::{Catalog, Dur, TaskGraph, TaskGraphBuilder, TaskId, TaskSpec, Time};
use rtlb::obs::NULL_PROBE;

/// Largest magnitude the pipeline accepts (`Time::MAX`); everything past
/// it must be rejected with [`AnalysisError::BoundOverflow`].
const LIMIT: i64 = i64::MAX / 4;

/// Builds a chain graph from raw `(release, deadline, computation,
/// message, preemptive)` rows, or `None` if the builder rejects them.
fn chain_graph(specs: &[(i64, i64, i64, i64, bool)]) -> Option<TaskGraph> {
    let mut catalog = Catalog::new();
    let p = catalog.processor("P");
    let mut builder = TaskGraphBuilder::new(catalog);
    let mut prev: Option<(TaskId, i64)> = None;
    for (i, &(rel, deadline, c, m, preempt)) in specs.iter().enumerate() {
        let mut spec = TaskSpec::new(format!("t{i}"), Dur::new(c), p)
            .release(Time::new(rel))
            .deadline(Time::new(deadline));
        if preempt {
            spec = spec.preemptive();
        }
        let id = builder.add_task(spec).ok()?;
        if let Some((from, message)) = prev {
            builder.add_edge(from, id, Dur::new(message)).ok()?;
        }
        prev = Some((id, m));
    }
    builder.build().ok()
}

proptest! {
    /// `analyze` never panics, whatever the magnitudes — and any instance
    /// whose inputs escape the exact-arithmetic range must be an error.
    #[test]
    fn extreme_magnitudes_never_panic(
        specs in proptest::collection::vec(
            (
                -(i64::MAX / 2)..=i64::MAX / 2,  // release
                -(i64::MAX / 2)..=i64::MAX / 2,  // deadline
                0i64..=i64::MAX / 2,             // computation
                0i64..=i64::MAX / 8,             // message to the next task
                any::<bool>(),                   // preemptive
            ),
            1..6,
        ),
    ) {
        let Some(graph) = chain_graph(&specs) else {
            return Ok(()); // builder-level rejection is a fine outcome too
        };
        let oversized = specs
            .iter()
            .any(|&(rel, deadline, ..)| rel.abs() > LIMIT || deadline.abs() > LIMIT)
            || specs
                .iter()
                .enumerate()
                .map(|(i, &(_, _, c, m, _))| {
                    // The last task's outgoing message was never added.
                    i128::from(c) + if i + 1 < specs.len() { i128::from(m) } else { 0 }
                })
                .sum::<i128>()
                > i128::from(LIMIT);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            analyze(&graph, &SystemModel::shared())
        }));
        let result = match result {
            Ok(r) => r,
            Err(_) => return Err(TestCaseError::Fail("analyze panicked".into())),
        };
        if oversized {
            prop_assert!(
                result.is_err(),
                "magnitudes past Time::MAX must be rejected"
            );
        }
    }

    /// The never-panic contract holds for preemptive tasks, and the flat
    /// (unpartitioned) oracle never panics on any instance the front door
    /// accepts, agreeing with it on every bound (Theorem 5).
    #[test]
    fn extreme_magnitudes_never_panic_unpartitioned(
        rel in -(i64::MAX / 2)..=i64::MAX / 2,
        deadline in -(i64::MAX / 2)..=i64::MAX / 2,
        c in 0i64..=i64::MAX / 2,
    ) {
        let Some(graph) = chain_graph(&[(rel, deadline, c, 0, true)]) else {
            return Ok(());
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            analyze(&graph, &SystemModel::shared()).map(|analysis| {
                let flat = flat_bounds(&graph, analysis.timing(), CandidatePolicy::EstLct);
                (analysis, flat)
            })
        }));
        let Ok(result) = result else {
            return Err(TestCaseError::Fail("analyze or the flat oracle panicked".into()));
        };
        if let Ok((analysis, flat)) = result {
            let flat = flat.expect("feasible windows keep the flat oracle exact");
            for (part, whole) in analysis.bounds().iter().zip(&flat) {
                prop_assert_eq!(part.bound, whole.bound);
            }
        }
    }
}

/// A computed-but-infeasible timing can push the Equation 6.3 ceiling
/// past `u32::MAX`; every public sweep entry point, oracles included,
/// must come back with a typed error instead of panicking in the
/// `u32::try_from` (naive) or the ramp decomposition's feasibility
/// assertion (incremental) that used to sit there.
#[test]
fn ceiling_overflow_is_an_error_not_a_panic() {
    let mut catalog = Catalog::new();
    let p = catalog.processor("P");
    let mut builder = TaskGraphBuilder::new(catalog);
    builder
        .add_task(
            TaskSpec::new("hog", Dur::new(1 << 40), p)
                .release(Time::new(0))
                .deadline(Time::new(1))
                .preemptive(),
        )
        .unwrap();
    let graph = builder.build().unwrap();
    let timing = compute_timing(&graph, &SystemModel::shared());
    let partition = partition_tasks(&graph, &timing, p);

    // The naive oracle computes Θ = 2^40 over a length-1 interval and
    // trips the converted ceiling overflow.
    let err = naive_bounds(
        &graph,
        &timing,
        std::slice::from_ref(&partition),
        CandidatePolicy::EstLct,
    )
    .unwrap_err();
    assert!(
        matches!(err, AnalysisError::BoundOverflow { .. }),
        "expected BoundOverflow, got {err:?}"
    );
    // So does the unpartitioned oracle.
    let err = flat_bounds(&graph, &timing, CandidatePolicy::EstLct).unwrap_err();
    assert!(matches!(err, AnalysisError::BoundOverflow { .. }));

    // The incremental sweep refuses the infeasible window outright
    // rather than decomposing an undefined ramp.
    let err = resource_bound(&graph, &timing, &partition).unwrap_err();
    assert!(
        matches!(err, AnalysisError::Infeasible { .. }),
        "expected Infeasible, got {err:?}"
    );

    // And the front door rejects the instance before any sweep runs.
    assert!(analyze(&graph, &SystemModel::shared()).is_err());
}

fn small_feasible_graph() -> TaskGraph {
    let mut catalog = Catalog::new();
    let p = catalog.processor("P");
    let r = catalog.resource("r");
    let mut builder = TaskGraphBuilder::new(catalog);
    builder.default_deadline(Time::new(20));
    for i in 0..4 {
        builder
            .add_task(TaskSpec::new(format!("t{i}"), Dur::new(3), p).resource(r))
            .unwrap();
    }
    builder.build().unwrap()
}

/// A cancelled token surfaces as [`AnalysisError::Deadline`] from the
/// one-call pipeline; an untripped token changes nothing.
#[test]
fn cancellation_is_a_typed_error() {
    let graph = small_feasible_graph();
    let ctl = CancelToken::new();
    ctl.cancel();
    let err = analyze_ctl(
        &graph,
        &SystemModel::shared(),
        AnalysisOptions::default(),
        &NULL_PROBE,
        &ctl,
    )
    .unwrap_err();
    assert_eq!(err, AnalysisError::Deadline);

    let live = analyze_ctl(
        &graph,
        &SystemModel::shared(),
        AnalysisOptions::default(),
        &NULL_PROBE,
        &CancelToken::new(),
    )
    .unwrap();
    let plain = analyze(&graph, &SystemModel::shared()).unwrap();
    assert_eq!(live.bounds(), plain.bounds());
}

/// An already-expired deadline trips on the first checkpoint.
#[test]
fn expired_deadline_is_a_typed_error() {
    let graph = small_feasible_graph();
    let ctl = CancelToken::with_timeout(std::time::Duration::ZERO);
    let err = analyze_ctl(
        &graph,
        &SystemModel::shared(),
        AnalysisOptions::default(),
        &NULL_PROBE,
        &ctl,
    )
    .unwrap_err();
    assert_eq!(err, AnalysisError::Deadline);
}

/// A failed `apply` keeps its dirt: the session stays usable, and the
/// next successful apply recomputes everything the failed one touched,
/// landing bit-identical to a from-scratch analysis.
#[test]
fn failed_apply_keeps_dirt_and_recovers() {
    let graph = small_feasible_graph();
    let model = SystemModel::shared();
    let mut session =
        AnalysisSession::new(graph, model.clone(), AnalysisOptions::default()).unwrap();
    let before = session.bounds();

    let ctl = CancelToken::new();
    ctl.cancel();
    let deltas = [Delta::SetComputation {
        task: TaskId::from_index(0),
        computation: Dur::new(9),
    }];
    let err = session.apply_ctl(&deltas, &NULL_PROBE, &ctl).unwrap_err();
    assert_eq!(err, AnalysisError::Deadline);

    // The edit reached the graph even though the refresh was cancelled.
    assert_eq!(
        session.graph().task(TaskId::from_index(0)).computation(),
        Dur::new(9)
    );

    // An empty follow-up apply drains the kept dirt and converges to the
    // from-scratch result on the edited graph.
    session.apply(&[]).unwrap();
    let scratch = analyze_with(session.graph(), &model, AnalysisOptions::default()).unwrap();
    assert_eq!(session.bounds(), scratch.bounds().to_vec());
    assert_ne!(session.bounds(), before, "the edit must move the bounds");
}

/// Three tasks whose total computation (`3 · i64::MAX/8`) escapes the
/// pipeline's exact range while every deadline sits exactly on it.
fn overflowing_graph() -> TaskGraph {
    let mut catalog = Catalog::new();
    let p = catalog.processor("P");
    let mut builder = TaskGraphBuilder::new(catalog);
    for i in 0..3 {
        builder
            .add_task(
                TaskSpec::new(format!("t{i}"), Dur::new(i64::MAX / 8), p)
                    .deadline(Time::new(i64::MAX / 4)),
            )
            .unwrap();
    }
    builder.build().unwrap()
}

/// Opening a session runs the same magnitude guard as `analyze`: an
/// instance the one-shot path rejects must not open with a bound.
#[test]
fn session_open_rejects_what_analyze_rejects() {
    let graph = overflowing_graph();
    let model = SystemModel::shared();
    assert!(matches!(
        analyze(&graph, &model),
        Err(AnalysisError::BoundOverflow { .. })
    ));
    let opened = AnalysisSession::new(graph, model, AnalysisOptions::default());
    assert!(
        matches!(opened, Err(AnalysisError::BoundOverflow { .. })),
        "expected BoundOverflow, got {:?}",
        opened.map(|s| s.bounds())
    );
}

/// An apply that edits an instance past the magnitude guard fails like
/// `analyze` on the edited graph, and keeps its dirt like any failed
/// apply.
#[test]
fn apply_past_the_magnitude_guard_is_rejected_and_keeps_dirt() {
    let graph = small_feasible_graph();
    let model = SystemModel::shared();
    let mut session = AnalysisSession::new(graph, model.clone(), AnalysisOptions::default())
        .expect("small instance opens");
    let deltas: Vec<Delta> = (0..3)
        .flat_map(|i| {
            let task = TaskId::from_index(i);
            [
                Delta::SetComputation {
                    task,
                    computation: Dur::new(i64::MAX / 8),
                },
                Delta::SetDeadline {
                    task,
                    deadline: Time::new(i64::MAX / 4),
                },
            ]
        })
        .collect();
    let err = session.apply(&deltas).unwrap_err();
    assert!(
        matches!(err, AnalysisError::BoundOverflow { .. }),
        "expected BoundOverflow, got {err:?}"
    );
    assert!(session.has_pending_edits(), "a failed apply keeps its dirt");
    assert!(matches!(
        analyze(session.graph(), &model),
        Err(AnalysisError::BoundOverflow { .. })
    ));
}

/// A dedicated model with a node type for P only cannot host z. The
/// public timing entries give z no merge set, so a pays its message
/// (Definition 2); `analyze` refuses the model with a typed error.
#[test]
fn unhostable_task_merges_with_nothing() {
    let mut catalog = Catalog::new();
    let p = catalog.processor("P");
    let q = catalog.processor("Q");
    let mut builder = TaskGraphBuilder::new(catalog);
    builder.default_deadline(Time::new(20));
    let a = builder
        .add_task(TaskSpec::new("a", Dur::new(2), p))
        .unwrap();
    let z = builder
        .add_task(TaskSpec::new("z", Dur::new(2), q))
        .unwrap();
    builder.add_edge(a, z, Dur::new(1)).unwrap();
    let graph = builder.build().unwrap();
    let model = SystemModel::dedicated(vec![NodeType::new("N", p, [], 1)]);

    let window = |est, lct| TaskWindow {
        est: Time::new(est),
        lct: Time::new(lct),
    };
    let (traced, _) = compute_timing_traced(&graph, &model);
    for timing in [
        compute_timing(&graph, &model),
        traced,
        compute_timing_paper(&graph, &model),
    ] {
        assert_eq!(timing.window(a), window(0, 17));
        // E_z = E_a + C_a + m = 0 + 2 + 1.
        assert_eq!(timing.window(z), window(3, 20));
        assert!(timing.merged_predecessors(z).is_empty());
        assert!(timing.merged_successors(a).is_empty());
    }
    assert_eq!(
        analyze(&graph, &model).unwrap_err(),
        AnalysisError::UnhostableTask("z".to_owned())
    );
}

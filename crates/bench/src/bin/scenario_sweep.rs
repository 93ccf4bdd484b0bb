//! E15 — incremental re-analysis: a scenario sweep over single-task
//! perturbations must be much cheaper through an [`AnalysisSession`]
//! than re-running the full pipeline per scenario, while staying
//! bit-identical to it.
//!
//! The workload is the paper's design-space-exploration use case: a
//! 400-task instance whose computation times are perturbed one task at a
//! time, 64 scenarios in a row. Each scenario dirties one task's blocks
//! on two resources at most, so the session re-sweeps a handful of
//! blocks while the full pipeline redoes everything.
//!
//! ```sh
//! cargo run --release -p rtlb-bench --bin scenario_sweep
//! ```

use std::time::Instant;

use rtlb_bench::{counters_json, write_bench_json, TextTable};
use rtlb_core::{analyze_with, AnalysisOptions, AnalysisSession, CancelToken, Delta, SystemModel};
use rtlb_graph::{Dur, TaskId};
use rtlb_obs::{Json, Recorder};
use rtlb_workloads::framed_tasks;

const FRAMES: usize = 100;
const PER_FRAME: usize = 4;
const TASKS: usize = FRAMES * PER_FRAME;
const SCENARIOS: usize = 64;
const SPEEDUP_TARGET: f64 = 5.0;

fn main() {
    println!("E15: incremental scenario sweep ({TASKS} tasks, {SCENARIOS} scenarios)\n");
    let graph = framed_tasks(FRAMES, PER_FRAME, 42);
    let model = SystemModel::shared();
    let options = AnalysisOptions::default();
    let originals: Vec<Dur> = (0..TASKS)
        .map(|i| graph.task(TaskId::from_index(i)).computation())
        .collect();

    let t0 = Instant::now();
    let mut session =
        AnalysisSession::new(graph, model.clone(), options).expect("workload is feasible");
    let setup_micros = t0.elapsed().as_micros() as u64;

    let recorder = Recorder::new();
    let mut rows: Vec<Json> = Vec::new();
    let mut full_total = 0u64;
    let mut incr_total = 0u64;
    let mut resweeped = 0u64;
    let mut reused = 0u64;
    let mut recomputed = 0u64;

    for k in 0..SCENARIOS {
        // Perturb one task per scenario; odd scenarios restore the
        // previous task, so the sweep revisits warm and cold blocks.
        let idx = (k * 131) % TASKS;
        let task = TaskId::from_index(idx);
        let c0 = originals[idx];
        let target = if k % 2 == 0 {
            Dur::new((c0.ticks() - 1).max(0))
        } else {
            c0
        };
        let delta = Delta::SetComputation {
            task,
            computation: target,
        };

        let t0 = Instant::now();
        let stats = session
            .apply_ctl(&[delta], &recorder, &CancelToken::none())
            .expect("shrinking C keeps the workload feasible");
        let incr_micros = t0.elapsed().as_micros() as u64;

        let t0 = Instant::now();
        let scratch = analyze_with(session.graph(), &model, options).expect("feasible");
        let full_micros = t0.elapsed().as_micros() as u64;

        assert_eq!(
            scratch.bounds(),
            session.bounds(),
            "scenario {k}: incremental diverged from scratch"
        );

        full_total += full_micros;
        incr_total += incr_micros;
        resweeped += stats.blocks_resweeped;
        reused += stats.blocks_reused;
        recomputed += stats.tasks_recomputed();
        rows.push(Json::obj([
            ("scenario", Json::Int(k as i64)),
            ("task", Json::Int(idx as i64)),
            ("full_micros", Json::Int(full_micros as i64)),
            ("incremental_micros", Json::Int(incr_micros as i64)),
            ("blocks_resweeped", Json::Int(stats.blocks_resweeped as i64)),
            ("blocks_reused", Json::Int(stats.blocks_reused as i64)),
        ]));
    }

    let speedup = full_total as f64 / (incr_total.max(1)) as f64;
    let mut table = TextTable::new(["metric", "value"]);
    table
        .row(["initial full analysis", &format!("{setup_micros} us")])
        .row(["full recompute, total", &format!("{full_total} us")])
        .row(["incremental, total", &format!("{incr_total} us")])
        .row(["speedup", &format!("{speedup:.1}x")])
        .row(["tasks recomputed", &recomputed.to_string()])
        .row(["blocks re-swept", &resweeped.to_string()])
        .row(["blocks reused", &reused.to_string()]);
    println!("{}", table.render());
    println!("bounds: bit-identical to from-scratch analysis on all {SCENARIOS} scenarios");

    let metrics = recorder.take_metrics();
    let body = vec![
        (
            "workload".to_owned(),
            Json::obj([
                ("tasks", Json::Int(TASKS as i64)),
                ("scenarios", Json::Int(SCENARIOS as i64)),
                ("perturbation", Json::str("single-task computation-time")),
            ]),
        ),
        (
            "totals".to_owned(),
            Json::obj([
                ("setup_micros", Json::Int(setup_micros as i64)),
                ("full_micros", Json::Int(full_total as i64)),
                ("incremental_micros", Json::Int(incr_total as i64)),
                ("speedup", Json::Float(speedup)),
                ("speedup_target", Json::Float(SPEEDUP_TARGET)),
                ("tasks_recomputed", Json::Int(recomputed as i64)),
                ("blocks_resweeped", Json::Int(resweeped as i64)),
                ("blocks_reused", Json::Int(reused as i64)),
            ]),
        ),
        ("counters".to_owned(), counters_json(&metrics)),
        ("scenarios".to_owned(), Json::Arr(rows)),
    ];
    let path = write_bench_json("BENCH_scenarios.json", "scenario_sweep", body)
        .expect("can write artifact");
    println!("wrote {}", path.display());

    assert!(
        speedup >= SPEEDUP_TARGET,
        "incremental speedup {speedup:.1}x below the {SPEEDUP_TARGET}x target"
    );
}

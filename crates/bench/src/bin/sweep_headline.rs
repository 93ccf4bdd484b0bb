//! B2 — the incremental Θ-sweep against the naive-sweep oracle on the
//! headline workload: 400 high-load independent tasks, few and large
//! partition blocks with many candidate points, the regime where the
//! naive sweep's `O(P²·N)` per block dominates.
//!
//! The naive side is `rtlb_core::oracle::naive_bounds` after the same
//! timing and partition stages. The binary exits non-zero when its
//! bounds differ from the pipeline's, then times each side as the median
//! of [`RUNS`] warm runs, prints the pipeline's serial median and range
//! and writes `BENCH_sweep.json` with both sides' times, their ratio and
//! the pipeline's work counters, for the all-cores leg (`counters`) and
//! the serial one (`counters_serial`). The headline is the pipeline's
//! own time: the naive oracle's time moves with code layout, so the
//! ratio is kept in the JSON only.
//!
//! The counters do not depend on the host except [`POOL_COUNTERS`],
//! which follow the worker pool's chunking; the binary also exits
//! non-zero when any other counter differs between the two legs.
//!
//! ```sh
//! cargo run --release -p rtlb-bench --bin sweep_headline
//! ```

use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use rtlb_bench::{counters_json, write_bench_json};
use rtlb_core::oracle::naive_bounds;
use rtlb_core::{
    analyze_with, analyze_with_probe, compute_timing, effective_threads, partition_all,
    AnalysisOptions, CandidatePolicy, ResourceBound, SystemModel,
};
use rtlb_graph::TaskGraph;
use rtlb_obs::{Json, Metrics, Recorder};
use rtlb_workloads::independent_tasks;

const TASKS: usize = 400;
/// Overlap depth: high load keeps windows overlapping, so the
/// partitioner produces few, large blocks.
const LOAD: u32 = 20;
const SEED: u64 = 11;
/// Timed warm runs per side; each side reports their median.
const RUNS: usize = 7;
/// The counters that follow the worker pool rather than the work: the
/// chunk plan, and the pairs pruned, since a chunk's first column has
/// no incumbent to prune against.
const POOL_COUNTERS: [&str; 3] = ["sweep.chunks", "sweep.jobs", "sweep.pairs_pruned"];

fn options(parallelism: usize) -> AnalysisOptions {
    AnalysisOptions {
        parallelism,
        ..AnalysisOptions::default()
    }
}

/// Timing, feasibility, partition, and the naive per-pair sweep — the
/// pipeline with the oracle sweep in place of the incremental one.
fn analyze_naive(graph: &TaskGraph) -> Vec<ResourceBound> {
    let timing = compute_timing(graph, &SystemModel::shared());
    timing.check_feasible(graph).expect("workload is feasible");
    let partitions = partition_all(graph, &timing);
    naive_bounds(graph, &timing, &partitions, CandidatePolicy::EstLct)
        .expect("naive sweep succeeds on a feasible workload")
}

fn pipeline(graph: &TaskGraph, parallelism: usize) -> Vec<ResourceBound> {
    analyze_with(graph, &SystemModel::shared(), options(parallelism))
        .expect("workload is feasible")
        .bounds()
        .to_vec()
}

/// The wall-clock times of [`RUNS`] runs, sorted.
fn time<T>(run: impl Fn() -> T) -> [Duration; RUNS] {
    let mut times = [Duration::ZERO; RUNS];
    for slot in &mut times {
        let start = Instant::now();
        black_box(run());
        *slot = start.elapsed();
    }
    times.sort_unstable();
    times
}

/// The pipeline's counters on the headline workload at `parallelism`.
fn counters(graph: &TaskGraph, parallelism: usize) -> Metrics {
    let recorder = Recorder::new();
    analyze_with_probe(
        graph,
        &SystemModel::shared(),
        options(parallelism),
        &recorder,
    )
    .expect("workload is feasible");
    recorder.take_metrics()
}

/// The work counters of `a` and `b` that differ, as `(name, a, b)`.
fn moved_counters(a: &Metrics, b: &Metrics) -> Vec<(String, Option<u64>, Option<u64>)> {
    let value = |m: &Metrics, name: &str| m.counters.iter().find(|c| c.0 == name).map(|c| c.1);
    let mut names: Vec<&str> = a.counters.iter().chain(&b.counters).map(|c| c.0).collect();
    names.sort_unstable();
    names.dedup();
    names
        .into_iter()
        .filter(|name| !POOL_COUNTERS.contains(name))
        .map(|name| (name.to_owned(), value(a, name), value(b, name)))
        .filter(|(_, a, b)| a != b)
        .collect()
}

fn main() -> ExitCode {
    let graph = independent_tasks(TASKS, LOAD, SEED);

    // The oracle check doubles as the warm-up of both timed paths.
    let oracle = analyze_naive(&graph);
    let incremental_bounds = pipeline(&graph, 1);
    assert_eq!(
        incremental_bounds, oracle,
        "the pipeline's bounds differ from the naive-sweep oracle's"
    );

    let naive_runs = time(|| analyze_naive(&graph));
    let incremental_runs = time(|| pipeline(&graph, 1));
    let allcores_runs = time(|| pipeline(&graph, 0));
    let median = |runs: &[Duration; RUNS]| runs[RUNS / 2];
    let (naive, incremental, allcores) = (
        median(&naive_runs),
        median(&incremental_runs),
        median(&allcores_runs),
    );
    let speedup = naive.as_secs_f64() / incremental.as_secs_f64().max(1e-9);
    println!(
        "bounds/sweep: single-thread pipeline on {TASKS} tasks (load {LOAD}): \
         median {incremental:?} of {RUNS} runs (range {:?} to {:?})",
        incremental_runs[0],
        incremental_runs[RUNS - 1]
    );

    // Re-run both legs under the recorder so the artifact carries the
    // pipeline counters alongside the timings.
    let metrics = counters(&graph, 0);
    let serial_metrics = counters(&graph, 1);
    let moved = moved_counters(&metrics, &serial_metrics);

    let micros = |d: Duration| Json::Int(d.as_micros() as i64);
    let range = |runs: &[Duration; RUNS]| Json::Arr(vec![micros(runs[0]), micros(runs[RUNS - 1])]);
    let body = vec![
        (
            "workload".to_owned(),
            Json::obj([
                ("tasks", Json::Int(TASKS as i64)),
                ("load", Json::Int(LOAD as i64)),
                ("seed", Json::Int(SEED as i64)),
            ]),
        ),
        ("timed_runs".to_owned(), Json::Int(RUNS as i64)),
        (
            "times_micros".to_owned(),
            Json::obj([
                ("naive", micros(naive)),
                ("incremental", micros(incremental)),
                ("incremental_allcores", micros(allcores)),
            ]),
        ),
        (
            "times_range_micros".to_owned(),
            Json::obj([
                ("naive", range(&naive_runs)),
                ("incremental", range(&incremental_runs)),
                ("incremental_allcores", range(&allcores_runs)),
            ]),
        ),
        (
            "speedup".to_owned(),
            Json::obj([
                ("incremental_vs_naive", Json::Float(speedup)),
                (
                    "allcores_vs_serial",
                    Json::Float(incremental.as_secs_f64() / allcores.as_secs_f64().max(1e-9)),
                ),
            ]),
        ),
        ("counters".to_owned(), counters_json(&metrics)),
        ("counters_serial".to_owned(), counters_json(&serial_metrics)),
        // The configured pool size for the all-cores leg. The recorder's
        // own thread count (`threads_observed`) can be smaller: it only
        // counts threads that actually recorded a span, and on a small
        // machine the serial warm-up legs all run on one thread.
        ("threads".to_owned(), Json::Int(effective_threads(0) as i64)),
        (
            "threads_observed".to_owned(),
            Json::Int(metrics.threads as i64),
        ),
        (
            "cores".to_owned(),
            Json::Int(
                std::thread::available_parallelism()
                    .map(|c| c.get() as i64)
                    .unwrap_or(1),
            ),
        ),
    ];
    let path =
        write_bench_json("BENCH_sweep.json", "sweep-headline", body).expect("can write artifact");
    println!("bounds/sweep: wrote {}", path.display());
    if moved.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "bounds/sweep: the serial leg's work counters differ from the all-cores leg's \
             (name, all cores, serial): {moved:?}"
        );
        ExitCode::FAILURE
    }
}

//! B2 — the incremental Θ-sweep against the naive-sweep oracle on the
//! headline workload: 400 high-load independent tasks, few and large
//! partition blocks with many candidate points, the regime where the
//! naive sweep's `O(P²·N)` per block dominates.
//!
//! The naive side is `rtlb_core::oracle::naive_bounds` after the same
//! timing and partition stages. The binary exits non-zero when its
//! bounds differ from the pipeline's, then times one warm run of each
//! side, prints the single-thread speedup and writes `BENCH_sweep.json`
//! with the pipeline's work counters. The counters do not depend on the
//! host except `sweep.chunks` and `sweep.jobs`, which follow the worker
//! pool; the timings are single samples.
//!
//! ```sh
//! cargo run --release -p rtlb-bench --bin sweep_headline
//! ```

use std::hint::black_box;
use std::time::{Duration, Instant};

use rtlb_bench::{counters_json, write_bench_json};
use rtlb_core::oracle::naive_bounds;
use rtlb_core::{
    analyze_with, analyze_with_probe, compute_timing, effective_threads, partition_all,
    AnalysisOptions, CandidatePolicy, ResourceBound, SystemModel,
};
use rtlb_graph::TaskGraph;
use rtlb_obs::{Json, Recorder};
use rtlb_workloads::independent_tasks;

const TASKS: usize = 400;
/// Overlap depth: high load keeps windows overlapping, so the
/// partitioner produces few, large blocks.
const LOAD: u32 = 20;
const SEED: u64 = 11;

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

fn time<T>(run: impl FnOnce() -> T) -> Duration {
    let start = Instant::now();
    black_box(run());
    start.elapsed()
}

fn main() {
    let graph = independent_tasks(TASKS, LOAD, SEED);

    // The oracle check doubles as the warm-up of both timed paths.
    let oracle = analyze_naive(&graph);
    let incremental_bounds = pipeline(&graph, 1);
    assert_eq!(
        incremental_bounds, oracle,
        "the pipeline's bounds differ from the naive-sweep oracle's"
    );

    let naive = time(|| analyze_naive(&graph));
    let incremental = time(|| pipeline(&graph, 1));
    let allcores = time(|| pipeline(&graph, 0));
    let speedup = naive.as_secs_f64() / incremental.as_secs_f64().max(1e-9);
    println!(
        "bounds/sweep: single-thread speedup on {TASKS} tasks (load {LOAD}): \
         {speedup:.1}x (naive {naive:?}, incremental {incremental:?})"
    );

    // Re-run the headline configuration under the recorder so the
    // artifact carries the pipeline counters alongside the timings.
    let recorder = Recorder::new();
    analyze_with_probe(&graph, &SystemModel::shared(), options(0), &recorder)
        .expect("workload is feasible");
    let metrics = recorder.take_metrics();

    let micros = |d: Duration| Json::Int(d.as_micros() as i64);
    let body = vec![
        (
            "workload".to_owned(),
            Json::obj([
                ("tasks", Json::Int(TASKS as i64)),
                ("load", Json::Int(LOAD as i64)),
                ("seed", Json::Int(SEED as i64)),
            ]),
        ),
        (
            "times_micros".to_owned(),
            Json::obj([
                ("naive", micros(naive)),
                ("incremental", micros(incremental)),
                ("incremental_allcores", micros(allcores)),
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
}

//! B3 — Theorem 5 ablation as a timed benchmark: the interval sweep with
//! and without Figure 4 partitioning (the bounds are identical; the work
//! is not), crossed with the Θ-sweep implementation. The flat sweep is
//! always naive, so the three rows per size separate the two speedups:
//! partitioning (flat → partitioned/naive) and the incremental scan
//! (partitioned/naive → partitioned/incremental). The flat and naive rows
//! run the `rtlb_core::oracle` sweeps after the same timing and partition
//! stages the pipeline runs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use rtlb_core::oracle::{flat_bounds, naive_bounds};
use rtlb_core::{analyze, compute_timing, partition_all, CandidatePolicy, SystemModel};
use rtlb_graph::TaskGraph;
use rtlb_workloads::independent_tasks;

/// Timing, feasibility, partition, and the naive per-pair sweep — the
/// pipeline with the oracle sweep in place of the incremental one.
fn naive_pipeline(graph: &TaskGraph) {
    let timing = compute_timing(graph, &SystemModel::shared());
    timing.check_feasible(graph).unwrap();
    let partitions = partition_all(graph, &timing);
    naive_bounds(graph, &timing, &partitions, CandidatePolicy::EstLct).unwrap();
}

/// Timing, feasibility, and one flat naive sweep per resource.
fn flat_pipeline(graph: &TaskGraph) {
    let timing = compute_timing(graph, &SystemModel::shared());
    timing.check_feasible(graph).unwrap();
    flat_bounds(graph, &timing, CandidatePolicy::EstLct).unwrap();
}

/// The pipeline itself: the incremental sweep over the partition.
fn incremental_pipeline(graph: &TaskGraph) {
    analyze(graph, &SystemModel::shared()).unwrap();
}

fn bench_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("partition_ablation");
    group.sample_size(15);
    for &n in &[50usize, 100, 200] {
        let graph = independent_tasks(n, 3, 42);
        let mut bench = |label: &str, run: fn(&TaskGraph)| {
            group.bench_with_input(BenchmarkId::new(label, n), &graph, |b, graph| {
                b.iter(|| run(black_box(graph)))
            });
        };
        bench("flat", flat_pipeline);
        bench("partitioned-naive", naive_pipeline);
        bench("partitioned-incremental", incremental_pipeline);
    }
    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);

#!/usr/bin/env bash
# Regenerates every experiment in EXPERIMENTS.md (E1-E18), in order,
# then the B2 sweep headline (BENCH_sweep.json).
# Usage: ./reproduce.sh [--release]
set -euo pipefail
profile="${1:-}"
run() {
    echo
    echo "==================================================================="
    echo ">> $1"
    echo "==================================================================="
    # shellcheck disable=SC2086
    cargo run -q $profile -p rtlb-bench --bin "$1"
}
for exp in table1 step2_partitions step3_bounds step4_cost fig5_overlap \
           trace_merges validity_study tightness_study partition_ablation \
           synthesis_search baseline_comparison extended_validity \
           candidate_ablation network_contention scenario_sweep \
           batch_cache windows_study sweep_headline; do
    run "$exp"
done
echo
echo "All experiments completed."

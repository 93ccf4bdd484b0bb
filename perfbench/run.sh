#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
# ones (see NOTES.md). Build output goes to $CARGO_TARGET_DIR, default
# `.bench_build` at the repository root; the batch workload's corpus,
# cache and the span dump of traced runs go below it as well.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

bin=perfbench
prev=""
for arg in "$@"; do
    if [ "$prev" = "--trace" ] && [ "$arg" = "1" ]; then
        bin=perfbench-traced
    fi
    prev="$arg"
done

cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml --bins >&2
exec "$CARGO_TARGET_DIR/release/$bin" --work "$CARGO_TARGET_DIR/perfbench-work" "$@"

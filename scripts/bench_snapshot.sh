#!/usr/bin/env bash
# Snapshot the hot-path benchmarks into BENCH_hotpath.json.
#
# Runs the criterion benches `best_response`, `dynamics`, `move_scan`,
# `service_roundtrip` and `large_n` through the hermetic criterion shim
# (crates/compat/criterion appends one JSON line per benchmark, with the
# median and quartiles of its samples, under target/criterion-lite/),
# then folds them with scripts/bench_aggregate.py into BENCH_hotpath.json
# at the repo root: each bench's median and IQR, plus the tracked derived
# figures with their noise bands (bench_aggregate.py defines each one).
# Every PR leaves a perf trajectory point behind.
#
# The pool is pinned to one thread: every tracked figure is a ratio of
# two arms timed on one thread. e2ebench's traced `wall.*` and `pool.*`
# metrics measure the pool with real threads.
#
# Knobs: CRITERION_LITE_SAMPLES (default 10 per group),
#        CRITERION_LITE_SAMPLE_MS (default 20 ms per sample).
set -euo pipefail

cd "$(dirname "$0")/.."
REPO_ROOT="$PWD"
OUT_DIR="$REPO_ROOT/target/criterion-lite"
export CRITERION_LITE_OUT="$OUT_DIR"
export GNCG_THREADS=1

rm -rf "$OUT_DIR"
mkdir -p "$OUT_DIR"

for bench in best_response dynamics move_scan service_roundtrip; do
    echo "== cargo bench --bench $bench" >&2
    cargo bench -p gncg-bench --bench "$bench" >&2
done

# The large-n round group runs single-shot: its n = 4096 round payload
# lasts over a minute per iteration, so the shim's usual warmup + 10
# samples would cost tens of minutes. One sample of a deterministic
# multi-second payload is far above timer noise, though not above a busy
# host's (a 1-sample median is that sample, and its IQR is 0).
echo "== cargo bench --bench large_n (single-shot)" >&2
CRITERION_LITE_SAMPLES=1 CRITERION_LITE_SAMPLE_MS=1 \
    cargo bench -p gncg-bench --bench large_n -- large_n_round >&2

python3 scripts/bench_aggregate.py "$OUT_DIR" "$REPO_ROOT/BENCH_hotpath.json"

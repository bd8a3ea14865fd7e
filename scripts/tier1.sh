#!/usr/bin/env bash
# Tier-1 verification flow: format, lint clean, build, test, and a smoke
# run of the scenario grid pipeline.
#
# `cargo fmt --check` and `cargo clippy -- -D warnings` run first so a
# style or lint regression fails the flow before the (longer) build +
# test steps.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== cargo fmt --check" >&2
cargo fmt --check

echo "== cargo clippy (deny warnings)" >&2
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (deny warnings)" >&2
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== cargo build --release" >&2
cargo build --release

echo "== exact best response: the DFS keeps its shortest-path steps inlined" >&2
# BrSearchView::dfs relaxes and undoes each include through DynamicSssp
# (add_edge, undo), and the search's speed rests on the compiler inlining
# those into it: a second caller of add_edge once made the DFS call it out
# of line, and a search ran about 9 % slower with no byte or work count
# moved. So the release binary must hold dfs, and dfs must call no
# function of gncg_graph::csr (DynamicSssp's methods, the frontiers, the
# edge sources), neither directly nor through a GOT slot (how a call to a
# global symbol is emitted). Disassembling takes under a second.
dfs_inlining_guard() {
  local bin=$1 csr_fns csr_slots dfs_branches
  # Addresses, leading zeros stripped, of every gncg_graph::csr function,
  # and of the GOT slots that hold one.
  csr_fns=$(nm -C "$bin" | awk '/gncg_graph::csr::/ {sub(/^0+/, "", $1); print $1}')
  csr_slots=$(objdump -R "$bin" | awk -v fns="$csr_fns" '
    BEGIN {n = split(fns, f, "\n"); for (i = 1; i <= n; i++) csr[f[i]] = 1}
    $3 ~ /^\*ABS\*\+0x/ {
      t = substr($3, 9); sub(/^0+/, "", t)
      if (t in csr) {s = $1; sub(/^0+/, "", s); print s}
    }')
  dfs_branches=$(objdump -d -C --no-show-raw-insn "$bin" | awk '
    /^[0-9a-f]+ <gncg_core::response::BrSearchView::dfs>:$/ {on = 1; found = 1; next}
    on && /^$/ {on = 0}
    on && /\t(call|jmp)/ {print}
    END {if (!found) print "no dfs"}')
  if [ "$dfs_branches" = "no dfs" ]; then
    echo "tier-1 inlining guard: $bin holds no BrSearchView::dfs symbol" >&2
    return 1
  fi
  local bad
  bad=$(echo "$dfs_branches" | awk -v slots="$csr_slots" '
    BEGIN {n = split(slots, s, "\n"); for (i = 1; i <= n; i++) if (s[i] != "") slot[s[i]] = 1}
    /gncg_graph::csr::/ {print; next}
    match($0, /# [0-9a-f]+ </) {
      t = substr($0, RSTART + 2, RLENGTH - 4)
      if (t in slot) print
    }')
  if [ -n "$bad" ]; then
    echo "tier-1 inlining guard: BrSearchView::dfs calls gncg_graph::csr out of line:" >&2
    echo "$bad" >&2
    return 1
  fi
}
dfs_inlining_guard target/release/gncg

echo "== cargo test" >&2
cargo test -q

echo "== allocation lock (release build)" >&2
# tests/allocations.rs locks four heap-allocation counts: the swap-heavy
# preset's run loop, the same run loop with the regret meter on (its pool
# scans kept on the calling thread by rayon::with_sequential), the br-grid
# preset's run loop, and the br-grid final profiles' fresh exact best
# responses. All of them run at n ≤ 64, where every shortest-path loop
# keeps its frontier in one machine word, so no heap allocation is left
# in them. Debug builds skip them: their oracles allocate on every
# activation.
cargo test --release -q --test allocations

echo "== e2ebench unit tests (its own cargo workspace)" >&2
# e2ebench/ is a separate workspace, so the root build never compiles it:
# without this step an engine API change could break the benchmark
# unnoticed.
cargo test --release --offline --manifest-path e2ebench/Cargo.toml

echo "== rayon shim under an oversubscribed pool (GNCG_THREADS=4)" >&2
# The pool tests must pass at a thread count above the core count: steals
# and panic propagation still have to behave when workers outnumber CPUs.
GNCG_THREADS=4 cargo test -q -p rayon

echo "== cargo bench smoke (compile all, 1-sample run of the tracked set)" >&2
# Benches are compiled by clippy but never executed by `cargo test`, so a
# runtime regression (a panicked setup assert, a changed bench id) rots
# silently. Compile every bench target, then run the benches
# bench_snapshot.sh tracks with one tiny sample each (the untracked
# solver benches cost minutes per iteration — compile-only for those).
cargo bench -p gncg-bench --no-run
# Bench binaries run from their package directory: the records path must
# be absolute to land under the root's target/.
SMOKE_OUT="$PWD/target/criterion-smoke"
rm -rf "$SMOKE_OUT"
for bench in best_response dynamics move_scan service_roundtrip; do
  CRITERION_LITE_SAMPLES=1 CRITERION_LITE_SAMPLE_MS=1 CRITERION_LITE_OUT="$SMOKE_OUT" \
    cargo bench -p gncg-bench --bench "$bench" >/dev/null
done
# large_n smokes only its sub-minute ids: the n=4096 round costs over a
# minute per iteration and the grid/daemon sections below already run
# that cell end to end, so the bench smoke filters to n=1024 (which
# covers the round group's setup and payload path).
CRITERION_LITE_SAMPLES=1 CRITERION_LITE_SAMPLE_MS=1 CRITERION_LITE_OUT="$SMOKE_OUT" \
  cargo bench -p gncg-bench --bench large_n -- 1024 >/dev/null
# The snapshot aggregation over the smoke's records: it fails when a
# derived figure finds one of its two bench ids but not the other, so a
# renamed arm cannot drop its figure unnoticed.
python3 scripts/bench_aggregate.py "$SMOKE_OUT" target/tier1-bench-smoke.json >/dev/null
rm -rf "$SMOKE_OUT"

echo "== gncg grid smoke (4 cells, n ≤ 8)" >&2
rm -f target/tier1-grid.jsonl target/tier1-grid.manifest
./target/release/gncg grid \
  --out target/tier1-grid.jsonl \
  --name tier1-smoke \
  --hosts unit,onetwo --n 6 --alpha 1.0,2.0 \
  --rules greedy --seed-count 1 --max-rounds 200
lines=$(wc -l < target/tier1-grid.jsonl)
if [ "$lines" -ne 4 ]; then
  echo "tier-1 grid smoke: expected 4 JSONL lines, got $lines" >&2
  exit 1
fi
# Resuming a complete grid must be a no-op that leaves the bytes alone.
cp target/tier1-grid.jsonl target/tier1-grid.jsonl.orig
./target/release/gncg resume --out target/tier1-grid.jsonl
cmp target/tier1-grid.jsonl target/tier1-grid.jsonl.orig
rm -f target/tier1-grid.jsonl.orig

# The binary the golden grids below run; the oracle-profile step reruns
# them with its own build.
GNCG=./target/release/gncg

echo "== swap-heavy grid vs committed golden (36 cells, n = 20)" >&2
# The removal-richest regime (≈ half the applied moves delete or swap
# edges) byte-compared against the committed pre-speculation golden:
# warm-vector repairs, the speculative move scan, and the work-stealing
# pool must never move a result byte. Run once pinned to one thread and
# once on the default pool — both must equal the golden exactly.
swap_heavy_grid() {
  rm -f target/tier1-swap-heavy.jsonl target/tier1-swap-heavy.manifest
  "$GNCG" grid \
    --out target/tier1-swap-heavy.jsonl \
    --name swap-heavy \
    --hosts r2,grid,clusters --n 20 --alpha 2.0,4.0,8.0 \
    --rules greedy --scheds rr --seeds 0,1,2,3 --max-rounds 500 --base-seed 0
  cmp target/tier1-swap-heavy.jsonl tests/golden/swap_heavy_n20.jsonl
}
GNCG_THREADS=1 swap_heavy_grid
(unset GNCG_THREADS && swap_heavy_grid)

echo "== br-grid vs committed golden (36 exact-BR cells, n = 12/14)" >&2
# Exact best responses, one fresh search per activation
# (exact_best_response_in, the search br certification runs on the
# all-pairs table's cost) straight off the network: d0 grown in the live
# vector, the agent's current cost derived off it, the candidates the cut
# keeps, a bound table grown one star relaxation per kept candidate in a
# second vector, in buffers each thread keeps; no warm vector is read. A
# re-probe with no commit since the agent was last priced is answered by
# the engine's pricing memo, which serves all three rules.
# The committed golden locks the bytes at one pool thread and at four;
# debug builds check every bound table against the per-candidate fold,
# d0 against a Dijkstra on the base graph, the derived cost against
# agent_cost_in, every cut search against the search over every
# candidate, and every memo hit against a fresh pricing.
br_grid() {
  rm -f target/tier1-br-grid.jsonl target/tier1-br-grid.manifest
  GNCG_THREADS="$1" "$GNCG" grid \
    --out target/tier1-br-grid.jsonl \
    --preset br-grid
  cmp target/tier1-br-grid.jsonl tests/golden/br_grid_n14.jsonl
}
br_grid 1
br_grid 4

echo "== metered grid vs committed golden (54 cells, every rule x scheduler)" >&2
# The per-round max-regret series of all three rules under all three
# schedulers, pinned to one pool thread and at four: the pricing memo the
# meter shares with activations, MaxGain and certification must never
# move a result byte.
meter_golden() {
  rm -f target/tier1-meter-golden.jsonl target/tier1-meter-golden.manifest
  GNCG_THREADS="$1" "$GNCG" grid \
    --out target/tier1-meter-golden.jsonl \
    --hosts r2,metric,clusters --n 12 --alpha 1.0,4.0 \
    --rules greedy,add,br --scheds rr,maxgain,random \
    --seed-count 1 --max-rounds 100 --regret-meter
  cmp target/tier1-meter-golden.jsonl tests/golden/meter_n12.jsonl
}
meter_golden 1
meter_golden 4

echo "== checkpoint grid vs committed golden (36 cells, every rule, a frame per round)" >&2
# Checkpoint frames carry every agent's cost each round, which no other
# golden holds: read off warm vectors under the greedy rules, priced
# afresh under the exact rule, whose searches warm no vector. Pinned to
# one pool thread and at four.
checkpoint_golden() {
  rm -f target/tier1-checkpoints.jsonl target/tier1-checkpoints.manifest
  GNCG_THREADS="$1" "$GNCG" grid \
    --out target/tier1-checkpoints.jsonl \
    --name checkpoints \
    --hosts unit,metric,oneinf --n 6 --alpha 0.8,2.0 \
    --rules greedy,add,br --scheds rr,maxgain \
    --seed-count 1 --max-rounds 100 --regret-meter --checkpoint-every 1
  cmp target/tier1-checkpoints.jsonl tests/golden/checkpoints_n6.jsonl
}
checkpoint_golden 1
checkpoint_golden 4

echo "== greedy-hosts grid vs committed golden (72 cells, n = 16)" >&2
# The greedy rule on the hosts no other golden covers: exact ties (unit,
# onetwo), a tree metric, non-metric weights (general) and ∞ edges
# (oneinf), under round-robin and the pool-parallel MaxGain scan. The
# speculative scan's bound-pruned swaps and shared removal frames must
# never move a result byte, pinned to one pool thread and at four.
greedy_hosts() {
  rm -f target/tier1-greedy-hosts.jsonl target/tier1-greedy-hosts.manifest
  GNCG_THREADS="$1" "$GNCG" grid \
    --out target/tier1-greedy-hosts.jsonl \
    --name greedy-hosts \
    --hosts unit,onetwo,tree,metric,general,oneinf --n 16 --alpha 0.5,1.5,4.0 \
    --rules greedy --scheds rr,maxgain --seeds 0,1 --max-rounds 500
  cmp target/tier1-greedy-hosts.jsonl tests/golden/greedy_hosts_n16.jsonl
}
greedy_hosts 1
greedy_hosts 4

echo "== br-hosts grid vs committed golden (72 exact-BR cells, n = 12)" >&2
# The br rule on the hosts br-grid skips: exact ties (unit, onetwo), a
# tree metric, non-metric weights (general), ∞ edges (oneinf) and the
# integer grid, under round-robin and MaxGain. The branch-and-bound's
# pruning bound decides only how many subsets it evaluates, never which
# best response it returns, so its bytes must not move, pinned to one
# pool thread and at four.
br_hosts() {
  rm -f target/tier1-br-hosts.jsonl target/tier1-br-hosts.manifest
  GNCG_THREADS="$1" "$GNCG" grid \
    --out target/tier1-br-hosts.jsonl \
    --name br-hosts \
    --hosts unit,onetwo,tree,general,oneinf,grid --n 12 --alpha 0.3,0.8,2.0 \
    --rules br --scheds rr,maxgain --seeds 0,1 --max-rounds 200
  cmp target/tier1-br-hosts.jsonl tests/golden/br_hosts_n12.jsonl
}
br_hosts 1
br_hosts 4

echo "== horizon-policy grid vs committed golden (24 cells, n = 20)" >&2
# Bounded-horizon pricing at n = 20 > PRICE_HORIZON, where the truncated
# speculative relaxations genuinely shape move selection: the committed
# golden locks the constant and the RegionDelta scan byte for byte.
horizon_grid() {
  rm -f target/tier1-horizon.jsonl target/tier1-horizon.manifest
  "$GNCG" grid \
    --out target/tier1-horizon.jsonl \
    --name horizon-policy \
    --hosts r2,grid,clusters --n 20 --alpha 2.0,4.0 \
    --rules greedy,add --scheds rr --seeds 0,1 --max-rounds 500 --base-seed 0 \
    --horizon
  cmp target/tier1-horizon.jsonl tests/golden/horizon_policy_n20.jsonl
}
horizon_grid
# Resume re-renders the manifest from the spec it parses back and
# byte-compares it with the one on disk, so resuming an opt-in grid
# (horizon_pricing=true here, schema 2 with both observability keys
# below) checks that the codec round-trips its opt-in keys.
# resume_prefix FILE KEEP WANT: cut FILE to KEEP whole lines plus a torn
# partial line, resume it, and byte-compare the result with WANT.
resume_prefix() {
  { head -n "$2" "$1"; sed -n "$(($2 + 1))p" "$1" | head -c 20; } > "$1.cut"
  mv "$1.cut" "$1"
  ./target/release/gncg resume --out "$1"
  cmp "$1" "$3"
}
resume_prefix target/tier1-horizon.jsonl 10 tests/golden/horizon_policy_n20.jsonl

echo "== large-n grid (n = 1024 preset cell, byte-stable across thread counts)" >&2
# The large-n scale path end to end: the full 3-round n = 1024 preset
# cell — shortest-path loops on the binary heap, lazily synced warm
# vectors, and bounded-horizon pricing all on the hot path — must
# produce identical bytes pinned to one pool thread and at four.
large_n_1024() {
  rm -f "target/tier1-large-n-$1.jsonl" "target/tier1-large-n-$1.manifest"
  GNCG_THREADS="$1" ./target/release/gncg grid \
    --out "target/tier1-large-n-$1.jsonl" \
    --preset large-n --n 1024
}
large_n_1024 1
large_n_1024 4
cmp target/tier1-large-n-1.jsonl target/tier1-large-n-4.jsonl

echo "== oracle profile (release speed, debug assertions on): goldens + large-n" >&2
# [profile.oracle] (root Cargo.toml) is the release profile with debug
# assertions on, so every debug oracle runs at optimized speed: the cold
# certifier's masked-scan check on every certified golden cell, every
# bound table a best response grows (engine activations and br
# certification) against the per-candidate fold it is grown instead of,
# within the 1 − 8nε margin, every cut search against the search over
# every candidate (the same strategy and cost bits, no more subsets
# evaluated) and every current cost a search derives against
# agent_cost_in, on every golden br cell, the br
# certificate's all-pairs current cost against its Dijkstra, the
# bound-first move scan's masked-scan and synced-row
# checks on every full-sum greedy and add activation, the RegionDelta
# winner's exact re-price on every horizon-policy activation (a path
# that must neither sync rows nor bound), every shortest-path loop of
# the golden cells (all at most 64 nodes, so on the one-word bitmask
# frontier) re-run on the heap with the same distances, undo log and
# removal discovery order, and at n = 1024 (past the word, so on the
# heap) the warm-vector, cached-network and memo checks.
# The golden bytes, and the release build's large-n bytes, must not move.
cargo build --profile oracle -p gncg-service --bin gncg
GNCG=./target/oracle/gncg
GNCG_THREADS=4 swap_heavy_grid
br_grid 4
meter_golden 4
checkpoint_golden 4
greedy_hosts 4
br_hosts 4
GNCG_THREADS=4 horizon_grid
rm -f target/tier1-large-n-oracle.jsonl target/tier1-large-n-oracle.manifest
GNCG_THREADS=4 "$GNCG" grid --out target/tier1-large-n-oracle.jsonl --preset large-n --n 1024
cmp target/tier1-large-n-oracle.jsonl target/tier1-large-n-1.jsonl

echo "== large-n grid (n = 4096 cell vs committed golden)" >&2
# One round of the n = 4096 preset cell (one round already sweeps all
# 4096 activations through the scan; the daemon leg below replays the
# same cell over the wire) against its committed golden line.
rm -f target/tier1-large-n-4096.jsonl target/tier1-large-n-4096.manifest
./target/release/gncg grid \
  --out target/tier1-large-n-4096.jsonl \
  --preset large-n --n 4096 --max-rounds 1
cmp target/tier1-large-n-4096.jsonl tests/golden/large_n_4096_r1.jsonl

echo "== observability smoke (meter + checkpoints, byte-stable across thread counts)" >&2
# The streamed max-regret series and checkpoint frames are part of the
# determinism contract: the same metered grid must produce identical
# bytes at 1, 2, and 4 pool threads (GNCG_THREADS is read at pool init,
# so each run gets its own process).
meter_grid() {
  rm -f "target/tier1-meter-$1.jsonl" "target/tier1-meter-$1.manifest"
  GNCG_THREADS="$1" ./target/release/gncg grid \
    --out "target/tier1-meter-$1.jsonl" \
    --name tier1-meter \
    --hosts unit,onetwo --n 6 --alpha 1.0,2.0 \
    --rules greedy --seed-count 1 --max-rounds 200 \
    --regret-meter --checkpoint-every 1
}
meter_grid 1
meter_grid 2
meter_grid 4
cmp target/tier1-meter-1.jsonl target/tier1-meter-2.jsonl
cmp target/tier1-meter-1.jsonl target/tier1-meter-4.jsonl
resume_prefix target/tier1-meter-1.jsonl 2 target/tier1-meter-2.jsonl
grep -q '"max_regret":\[' target/tier1-meter-1.jsonl
grep -q '"checkpoints":\[{"round":' target/tier1-meter-1.jsonl
# Every converged cell must end at a regret of exactly 0.0.
if grep '"outcome":"converged"' target/tier1-meter-1.jsonl | grep -v '"max_regret":\[.*,0\.0\]' \
   | grep -v '"max_regret":\[0\.0\]' | grep -q .; then
  echo "tier-1 observability smoke: a converged cell ended at nonzero regret" >&2
  exit 1
fi

echo "== gncg service smoke (serve → submit ×2 → shutdown)" >&2
SERVICE_ADDR=127.0.0.1:47421
rm -f target/tier1-serve.log target/tier1-submit-a.jsonl target/tier1-submit-b.jsonl \
  target/tier1-submit-meter.jsonl target/tier1-submit-large-n.jsonl
./target/release/gncg serve --addr "$SERVICE_ADDR" --workers 2 \
  > target/tier1-serve.log 2>&1 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
./target/release/gncg ping --addr "$SERVICE_ADDR" --wait-ms 10000
# Same 4-cell spec as the offline smoke above: the streamed bytes must be
# byte-identical to the offline grid output.
submit_smoke() {
  ./target/release/gncg submit --addr "$SERVICE_ADDR" \
    --out "$1" \
    --name tier1-smoke \
    --hosts unit,onetwo --n 6 --alpha 1.0,2.0 \
    --rules greedy --seed-count 1 --max-rounds 200
}
submit_smoke target/tier1-submit-a.jsonl
cmp target/tier1-submit-a.jsonl target/tier1-grid.jsonl
# The second submission must complete entirely from the result cache.
second=$(submit_smoke target/tier1-submit-b.jsonl)
cmp target/tier1-submit-b.jsonl target/tier1-grid.jsonl
echo "$second" | grep -q "4 cache hits, 0 simulated" || {
  echo "tier-1 service smoke: second submit not served from cache: $second" >&2
  exit 1
}
# Observability read-side against the live daemon: a metered job, then
# explore (checkpoint replay + strategy diff), metrics, and the one-line
# status summary.
meter_submit=$(./target/release/gncg submit --addr "$SERVICE_ADDR" \
  --out target/tier1-submit-meter.jsonl \
  --name tier1-meter \
  --hosts unit,onetwo --n 6 --alpha 1.0,2.0 \
  --rules greedy --seed-count 1 --max-rounds 200 \
  --regret-meter --checkpoint-every 1)
cmp target/tier1-submit-meter.jsonl target/tier1-meter-1.jsonl
meter_job=$(echo "$meter_submit" | sed -n 's/^submit: job \([0-9]*\).*/\1/p')
explore_out=$(./target/release/gncg explore --addr "$SERVICE_ADDR" \
  --job "$meter_job" --cell 0 --diff 0)
echo "$explore_out" | grep -q "max regret" || {
  echo "tier-1 observability smoke: explore printed no regret: $explore_out" >&2
  exit 1
}
echo "$explore_out" | grep -q "strategy diff" || {
  echo "tier-1 observability smoke: explore printed no diff: $explore_out" >&2
  exit 1
}
# Large-n through the daemon: the n = 4096 one-round cell must stream
# the same bytes over the wire that the offline grid and the committed
# golden carry, and afterwards the worker engines' warm-vector memory
# peak (4096 agents × 4096-slot distance vectors ≫ 0) must surface in
# the metrics summary.
./target/release/gncg submit --addr "$SERVICE_ADDR" \
  --out target/tier1-submit-large-n.jsonl \
  --preset large-n --n 4096 --max-rounds 1
cmp target/tier1-submit-large-n.jsonl tests/golden/large_n_4096_r1.jsonl
metrics_out=$(./target/release/gncg metrics --addr "$SERVICE_ADDR")
echo "$metrics_out" | grep -q "cells simulated" || {
  echo "tier-1 observability smoke: metrics printed no counters: $metrics_out" >&2
  exit 1
}
echo "$metrics_out" | grep -Eq "warm vectors: peak [1-9][0-9]{6,} bytes" || {
  echo "tier-1 large-n smoke: metrics warm-vector peak missing or implausibly small" >&2
  echo "$metrics_out" >&2
  exit 1
}
status_out=$(./target/release/gncg status --addr "$SERVICE_ADDR")
if [ "$(echo "$status_out" | wc -l)" -ne 1 ]; then
  echo "tier-1 observability smoke: status is not one line: $status_out" >&2
  exit 1
fi
echo "$status_out" | grep -q "up .*queued.*running.*done" || {
  echo "tier-1 observability smoke: status misses a job state: $status_out" >&2
  exit 1
}
# Graceful exit: --drain finishes anything active (nothing, here) and
# refuses new work before the daemon stops itself.
./target/release/gncg shutdown --addr "$SERVICE_ADDR" --drain
wait "$SERVE_PID"
trap - EXIT

echo "== chaos suite (fault injection, --features failpoints)" >&2
cargo test -q -p gncg-service --features failpoints --test chaos

echo "== chaos smoke (kill -9 mid-job → restart → journal replay → byte-diff)" >&2
# The debug binary built with --features failpoints carries the fault
# registry; GNCG_FAILPOINTS aborts the daemon at its 2nd simulated cell
# — a deterministic kill -9 mid-job. The release binary stays fault-free.
cargo build -q -p gncg-service --features failpoints
CHAOS_ADDR=127.0.0.1:47423
CHAOS_DIR=target/tier1-chaos
rm -rf "$CHAOS_DIR" && mkdir -p "$CHAOS_DIR"
chaos_submit() {
  ./target/debug/gncg submit --addr "$CHAOS_ADDR" \
    --out "$1" \
    --name tier1-smoke \
    --hosts unit,onetwo --n 6 --alpha 1.0,2.0 \
    --rules greedy --seed-count 1 --max-rounds 200
}
GNCG_FAILPOINTS="worker.cell=abort@2" ./target/debug/gncg serve \
  --addr "$CHAOS_ADDR" --workers 1 \
  --journal "$CHAOS_DIR/jobs.journal" --cache "$CHAOS_DIR/results.cache" \
  > "$CHAOS_DIR/serve-crash.log" 2>&1 &
CHAOS_PID=$!
trap 'kill -9 "$CHAOS_PID" 2>/dev/null || true' EXIT
./target/debug/gncg ping --addr "$CHAOS_ADDR" --wait-ms 10000
if chaos_submit "$CHAOS_DIR/doomed.jsonl"; then
  echo "tier-1 chaos smoke: submit survived a daemon that aborts mid-job" >&2
  exit 1
fi
wait "$CHAOS_PID" 2>/dev/null || true # died by its own abort
# Restart fault-free on the same journal: the unfinished job replays
# under its original id and a retried tail yields the offline bytes.
./target/debug/gncg serve --addr "$CHAOS_ADDR" --workers 1 \
  --journal "$CHAOS_DIR/jobs.journal" --cache "$CHAOS_DIR/results.cache" \
  > "$CHAOS_DIR/serve-replay.log" 2>&1 &
CHAOS_PID=$!
trap 'kill -9 "$CHAOS_PID" 2>/dev/null || true' EXIT
./target/debug/gncg ping --addr "$CHAOS_ADDR" --wait-ms 10000
./target/debug/gncg tail --addr "$CHAOS_ADDR" --job 1 \
  --out "$CHAOS_DIR/replayed.jsonl" --retries 2 --timeout-ms 30000
cmp "$CHAOS_DIR/replayed.jsonl" target/tier1-grid.jsonl
./target/debug/gncg shutdown --addr "$CHAOS_ADDR" --drain
wait "$CHAOS_PID" 2>/dev/null || true
trap - EXIT

echo "tier-1 OK" >&2

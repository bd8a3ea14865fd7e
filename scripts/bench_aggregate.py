#!/usr/bin/env python3
"""Fold criterion-lite records into a bench snapshot.

Usage: bench_aggregate.py <criterion-lite dir> <dest.json>

Reads the JSONL records the criterion shim (crates/compat/criterion)
appends under the directory, one per benchmark, and writes `dest`: each
bench's median and interquartile range, and the tracked derived figures,
each with its noise band. A ratio figure A / B gets the band
[A.q1 / B.q3, A.q3 / B.q1]: the ratio's range when each arm may sit
anywhere between its quartiles.

Exits non-zero when the directory holds no records, or when a ratio
finds one of its two bench ids but not the other, so an arm renamed
without its figure fails loudly. A ratio with both ids absent is
skipped, so a filtered run aggregates what it measured.
"""

import datetime
import json
import pathlib
import sys

# (figure, A, B): the figure is A's median / B's median.
RATIOS = (
    # Exact best response: the from-scratch leaf-pricing ancestor vs the
    # incremental branch-and-bound.
    ("incremental_speedup_n14",
     "best_response/exact_bnb_reference/14", "best_response/exact_bnb/14"),
    # Warm-vector maintenance under swap-heavy moves: invalidate-and-redo
    # vs Ramalingam-Reps repair.
    ("swap_heavy_speedup_n20",
     "dynamics_swap_heavy/invalidate/20", "dynamics_swap_heavy/dynamic/20"),
    # The per-activation move scan: one masked Dijkstra per candidate vs
    # speculative warm-vector deltas.
    ("move_scan_speedup_n20", "move_scan/masked/20", "move_scan/speculative/20"),
    # The max-regret meter's per-round pricing scan (>= 1.0, the price of
    # observing equilibrium quality).
    ("regret_meter_overhead_n20", "regret_meter/on/20", "regret_meter/off/20"),
)

# One bounded-horizon add-only round activates every agent once, so a
# round's time over n is the amortized cost of one activation (ns).
ROUND_SIZES = (256, 1024, 4096)


def main(out_dir, dest):
    quartiles = {}
    for f in sorted(pathlib.Path(out_dir).glob("*.jsonl")):
        for line in f.read_text().splitlines():
            rec = json.loads(line)
            # Last write wins: reruns within one snapshot supersede.
            quartiles[rec["benchmark"]] = (rec["q1_ns"], rec["median_ns"], rec["q3_ns"])
    if not quartiles:
        sys.exit(f"no criterion-lite records under {out_dir}")
    ids = sorted(quartiles)
    snapshot = {
        "generated_by": "scripts/bench_snapshot.sh",
        "date": datetime.date.today().isoformat(),
        "median_ns": {b: quartiles[b][1] for b in ids},
        "iqr_ns": {b: round(quartiles[b][2] - quartiles[b][0], 1) for b in ids},
    }
    bands = {}
    one_armed = []
    for fig, a, b in RATIOS:
        if a in quartiles and b in quartiles:
            (a1, am, a3), (b1, bm, b3) = quartiles[a], quartiles[b]
            snapshot[fig] = round(am / bm, 2)
            bands[fig] = [round(a1 / b3, 2), round(a3 / b1, 2)]
        elif a in quartiles or b in quartiles:
            have, lack = (a, b) if a in quartiles else (b, a)
            one_armed.append(f"{fig}: found {have} but not {lack}")
    if one_armed:
        sys.exit("derived figures with one arm missing:\n  " + "\n  ".join(one_armed))
    for n in ROUND_SIZES:
        rnd = quartiles.get(f"large_n_round/horizon/{n}")
        if rnd:
            fig = f"cost_per_activation_n{n}"
            snapshot[fig] = round(rnd[1] / n)
            bands[fig] = [round(rnd[0] / n), round(rnd[2] / n)]
    snapshot["bands"] = bands

    pathlib.Path(dest).write_text(json.dumps(snapshot, indent=2) + "\n")
    print(f"wrote {dest} ({len(ids)} benchmarks)")
    for fig, (lo, hi) in bands.items():
        unit = " ns" if fig.startswith("cost_per_activation") else "x"
        print(f"{fig} = {snapshot[fig]}{unit}  [{lo}, {hi}]")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(f"usage: {sys.argv[0]} <criterion-lite dir> <dest.json>")
    main(sys.argv[1], sys.argv[2])

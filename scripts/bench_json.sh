#!/bin/sh
# Perf-regression harness: run the engine micro-benchmarks (short
# iterations) plus the sweep-scaling, serve-QPS, hybrid-simulation,
# pattern-fit and region-sampling harnesses and merge them into
# BENCH_sim.json at the repository root — one entry per benchmark, stable
# keys, so two checkouts can be diffed with `jq` or eyeballed in a PR.
#
# Each harness holds its own claims: its shape checks exit nonzero when one
# fails, and its last stdout line is one JSON object holding its sections
# of BENCH_sim.json.  This script fails when any harness fails, merges
# those lines, and keeps the one gate that needs google-benchmark output:
# the fiber-switch ratio.  To explore without gates, run a harness
# directly.
#
# Usage: scripts/bench_json.sh [build-dir]   (default: build)
#
# Notes on methodology:
#   * micro_engine pins malloc trim/mmap thresholds itself so that
#     engine A/B comparisons measure the engine, not glibc handing pages
#     back to the kernel between iterations (see bench/micro_engine.cpp).
#   * --benchmark_repetitions=5 + max aggregate: on shared/virtualized
#     CI hosts throughput swings +-15% on a seconds timescale, so the
#     best-of run is the least-noise estimator; interleaved medians
#     would need both engine versions in one binary.
set -eu

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
HARNESSES="abl_sweep_scaling abl_serve_qps abl_hybrid_scaling abl_pattern_fit
           abl_region_sampling"

# Check every binary up front and name ALL the missing ones in one clear
# message (instead of dying mid-run, or handing jq a half-written file).
missing=""
for bin in micro_engine $HARNESSES; do
  [ -x "$BUILD/bench/$bin" ] || missing="$missing $bin"
done
if [ -n "$missing" ]; then
  echo "error: bench binaries missing from $BUILD/bench:$missing" >&2
  echo "hint: build them first with: cmake --build $BUILD -j" >&2
  echo "      (or pass the right build dir: scripts/bench_json.sh <dir>)" >&2
  exit 1
fi

out_dir=$(mktemp -d)
trap 'rm -rf "$out_dir"' EXIT

"$BUILD/bench/micro_engine" \
  --benchmark_min_time=0.2 \
  --benchmark_repetitions=5 \
  --benchmark_report_aggregates_only=false \
  --benchmark_format=json >"$out_dir/micro_engine.json"

# Harness reports go to stderr as they finish; every harness runs even
# after one fails, so a single run names all the failures.
failed=""
for bin in $HARNESSES; do
  status=0
  "$BUILD/bench/$bin" >"$out_dir/$bin.out" || status=$?
  cat "$out_dir/$bin.out" >&2
  [ "$status" -eq 0 ] || failed="$failed $bin"
done
if [ -n "$failed" ]; then
  echo "error: harnesses failed their shape checks:$failed" >&2
  exit 1
fi

python3 - "$out_dir" $HARNESSES <<'PY'
import json
import os
import sys

out_dir, harnesses = sys.argv[1], sys.argv[2:]
with open(os.path.join(out_dir, "micro_engine.json")) as f:
    data = json.load(f)

# Best-of over repetitions, keyed by benchmark name (items/sec where the
# benchmark reports it, else wall ns per iteration).
best = {}
for b in data.get("benchmarks", []):
    if b.get("run_type") == "aggregate":
        continue
    name = b["name"]
    entry = best.setdefault(name, {})
    ips = b.get("items_per_second")
    if ips is not None:
        entry["items_per_second"] = max(entry.get("items_per_second", 0.0), ips)
    entry["ns_per_iteration"] = min(
        entry.get("ns_per_iteration", float("inf")), b["real_time"])

out = {
    "schema": "xp-bench-sim/8",
    "hw_concurrency": 0,  # filled in by abl_sweep_scaling's line
    "source": ["bench/" + name for name in ["micro_engine"] + harnesses],
    "note": "items_per_second is best-of-5 repetitions; "
            "see scripts/bench_json.sh for methodology",
    "benchmarks": dict(sorted(best.items())),
}
# Each harness's last stdout line is its sections of this file.
for name in harnesses:
    with open(os.path.join(out_dir, name + ".out")) as f:
        out.update(json.loads(f.read().splitlines()[-1]))

with open("BENCH_sim.json", "w") as f:
    json.dump(out, f, indent=2)
    f.write("\n")
print(f"wrote BENCH_sim.json ({len(best)} micro benchmarks; " + ", ".join(
    f"{len(rows)} {key} rows" for key, rows in out.items()
    if key in ("sweep", "serve", "hybrid", "pattern", "sampling", "memo")) + ")")

# Fiber gate: the within-run ratio of BM_FiberSwitch (process-default
# backend, fcontext where ported) over BM_FiberSwitchUcontext must clear
# 2x — both numbers come from the same host and run, so absolute drift
# from the committed baseline cannot mask a backend regression.  On a
# target without an fcontext port both benchmarks time ucontext, so a
# ratio of ~1 passes when BM_FiberSwitch holds 0.7x the committed
# BENCH_sim.baseline.json row instead.
fs = best.get("BM_FiberSwitch", {}).get("items_per_second")
uc = best.get("BM_FiberSwitchUcontext", {}).get("items_per_second")
if not fs or not uc:
    print("fiber gate: skipped (BM_FiberSwitch rows missing)")
    sys.exit(0)
ratio = fs / uc
if ratio >= 2.0:
    print(f"fiber gate: OK (fcontext {ratio:.1f}x ucontext within-run)")
    sys.exit(0)
try:
    with open("BENCH_sim.baseline.json") as f:
        base = json.load(f).get("benchmarks", {}).get(
            "BM_FiberSwitch", {}).get("items_per_second")
except FileNotFoundError:
    base = None
if ratio >= 0.85 and base and fs >= 0.7 * base:
    print(f"fiber gate: OK (single-backend build, {fs:.3g} items/s vs "
          f"baseline {base:.3g})")
    sys.exit(0)
print(f"fiber gate: FAIL — BM_FiberSwitch is {ratio:.2f}x "
      "BM_FiberSwitchUcontext (need >= 2x)", file=sys.stderr)
sys.exit(1)
PY

#!/usr/bin/env python3
"""Build and run the ExtraP benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload suite-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  The library and the benchmark program are built from
source into $CARGO_TARGET_DIR (default .bench_build); build output goes to
stderr, so the last line of stdout is the program's JSON result.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BINARY = os.path.join(BUILD, "perfbench")
REFERENCE = os.path.join(HERE, "reference.txt")
WORKLOADS = ["suite-cold", "whatif-warm", "serve-mixed"]


def build():
    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def drive(workload, seed, seconds, trace, extra=()):
    """Run the benchmark program once; return its stdout lines (exits on failure)."""
    out_dir = os.path.join(BUILD, "traces")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--reference", REFERENCE, "--out-dir", out_dir, *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit("perfbench: benchmark program exited with %d" % proc.returncode)
    return proc.stdout.splitlines()


def selftest():
    """Small-size run of every workload, traced and untraced: every named
    metric is printed with its unit, every digest matches, and another seed
    changes the serve-mixed schedule but no prediction."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            lines = drive(workload, 1, 1, trace, ["--small"])
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                problems.append("%s trace=%d: outputs incorrect" % (workload, trace))
            if not any(l.startswith("host: ") for l in lines):
                problems.append("%s trace=%d: no host line" % (workload, trace))
            for m in spec[key]:
                got = result["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append("%s trace=%d: metric %s missing or wrong unit"
                                    % (workload, trace, m["name"]))
    schedules = []
    for seed in (1, 2):
        lines = drive("serve-mixed", seed, 1, 0, ["--small"])
        if not json.loads(lines[-1])["correct"]:
            problems.append("serve-mixed seed %d: outputs incorrect" % seed)
        schedules.append([l for l in lines if l.startswith("schedule: ")])
    if not schedules[0] or schedules[0] == schedules[1]:
        problems.append("serve-mixed: the seed does not change the schedule")
    for p in problems:
        print("selftest: " + p)
    print("selftest: %s" % ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--write-reference", action="store_true",
                    help="regenerate reference.txt from the current library")
    args = ap.parse_args()
    build()
    if args.selftest:
        return selftest()
    if args.write_reference:
        for workload in WORKLOADS:
            drive(workload, 1, 1, 0, ["--write-reference"])
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    for line in drive(args.workload, args.seed, args.seconds, args.trace):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/bin/sh
# Reproduce everything: build, run the full test suite, regenerate every
# table/figure of the paper, and leave the logs at the repository root
# (test_output.txt, bench_output.txt).  See EXPERIMENTS.md for how to read
# the results.  Every bench binary exits nonzero when one of its shape
# checks fails; the script runs them all, names the failures, and exits
# nonzero if there were any.
set -eu

cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build

ctest --test-dir build 2>&1 | tee test_output.txt

run_log=$(mktemp)
trap 'rm -f "$run_log"' EXIT
: >bench_output.txt
passed=0
failed=""
for b in build/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  status=0
  "$b" >"$run_log" 2>&1 || status=$?
  tee -a bench_output.txt <"$run_log"
  if [ "$status" -eq 0 ]; then
    passed=$((passed + 1))
  else
    failed="$failed ${b##*/}"
  fi
done

echo
echo "bench binaries: $passed passed"
if [ -n "$failed" ]; then
  echo "bench binaries failed:$failed" >&2
  exit 1
fi

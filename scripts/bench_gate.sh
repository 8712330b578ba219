#!/usr/bin/env bash
# Perf-regression gate: run the smoke benchmark, write BENCH_PR<k>.json, and
# compare per-phase timings against the newest prior BENCH_*.json. Fails
# (exit 1) if any phase's mean seconds regressed beyond the tolerance; the
# first ever run just records the baseline. A new report number is written
# at the repo root (to be committed); regenerating a report that is already
# committed writes under target/bench_gate/ instead, so a CI re-run leaves
# the tree untouched.
#
# Knobs (env):
#   BENCH_PR              force the PR number for the output file
#   BENCH_GATE_TOLERANCE  fractional slowdown allowed per phase (default 0.25)
#   BENCH_GATE_MIN_SECS   ignore phases faster than this (default 0.005)
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -q -p carve-bench --bin bench_smoke

if [[ -n "${BENCH_PR:-}" ]]; then
  k="$BENCH_PR"
else
  newest=$(ls BENCH_PR*.json 2>/dev/null | sort -V | tail -n 1 || true)
  if [[ -n "$newest" ]]; then
    k=$(( $(basename "$newest" .json | sed 's/^BENCH_PR//') + 1 ))
  else
    k=2 # PR numbering starts where the observability layer landed
  fi
fi
name="BENCH_PR${k}.json"

# Newest prior report = highest PR number among committed BENCH_PR*.json,
# excluding this run's own report (a rerun must not diff against itself).
prev=$(ls BENCH_PR*.json 2>/dev/null | grep -Fxv "$name" | sort -V | tail -n 1 || true)

out="$name"
if [[ -e "$name" ]]; then
  mkdir -p target/bench_gate
  out="target/bench_gate/$name"
fi

./target/release/bench_smoke "$out"

if [[ -n "$prev" && "$prev" != "$out" ]]; then
  ./target/release/bench_smoke --compare "$prev" "$out"
  echo "bench_gate: $out vs $prev — no regression"
else
  echo "bench_gate: recorded baseline $out (no prior report to compare)"
fi

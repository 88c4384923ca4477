#!/usr/bin/env bash
# Builds dmx_e2e (Release, into build-e2e/) and runs the end-to-end SQL
# benchmark. Run from the repository root.
#
#   bash bench/e2e/run.sh [--workload NAME] [--seed N] [--seconds S]
#                         [--trace [0|1]] [--out DIR] [--smoke]
#
# With --workload, runs that one workload; the last line of stdout is its
# JSON summary (end-to-end metrics untraced, per-layer metrics traced).
# Without it, runs all four workloads, each again traced when --trace is
# given, and prints one `workload metric value unit` line per metric.
# Every run also writes DIR/<workload>.<seed>[.traced].json (DIR defaults
# to build-e2e/results); traced runs write DIR/<workload>.spans.jsonl.
# --smoke runs at 5k rows with 2 s windows, full verification included.
set -euo pipefail

workload="" seed=1 seconds=15 trace=0 smoke=0
build=build-e2e
out="$build/results"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --smoke) smoke=1; shift ;;
    --trace)
      if [[ "${2:-}" == 0 || "${2:-}" == 1 ]]; then trace="$2"; shift 2
      else trace=1; shift; fi ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done

if [[ ! -f bench/e2e/CMakeLists.txt ]]; then
  echo "run.sh: run from the repository root" >&2
  exit 2
fi
mkdir -p "$build"
if ! { cmake -S bench/e2e -B "$build" -DCMAKE_BUILD_TYPE=Release &&
       cmake --build "$build" -j 4; } >"$build/build.log" 2>&1; then
  tail -n 20 "$build/build.log" >&2
  echo "run.sh: build failed; full log in $build/build.log" >&2
  exit 1
fi

DMX_E2E_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export DMX_E2E_COMMIT
args=(--seed "$seed" --seconds "$seconds" --out "$out")
if [[ $smoke == 1 ]]; then
  args+=(--rows 5000 --seconds 2)
fi

if [[ -n "$workload" ]]; then
  exec "$build/dmx_e2e" --workload "$workload" --trace "$trace" "${args[@]}"
fi

for w in read_adhoc read_prepared write_mix tenants_4s; do
  "$build/dmx_e2e" --workload "$w" --trace 0 "${args[@]}" | grep -v '^{'
  if [[ $trace == 1 ]]; then
    "$build/dmx_e2e" --workload "$w" --trace 1 "${args[@]}" | grep -v '^{'
  fi
done

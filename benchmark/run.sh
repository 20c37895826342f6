#!/usr/bin/env bash
# Builds era_bench and runs the benchmark (see benchmark/README.md).
#
#   bash benchmark/run.sh [--seed S] [--seconds T] [--trace [0|1]]
#                         [--workload NAME] [--out DIR]
#
# Without --workload it runs every workload, prints their
# `workload metric value unit` lines, and keeps each run's result JSON as
# DIR/<workload>.<seed>.<time>.json (DIR defaults to .bench_build/results).
# With --workload it runs that one workload; the last line of stdout is its
# result JSON. Everything it builds and writes stays under .bench_build/.
# Exits nonzero if the build fails, a run fails, or any answer is wrong.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
build=.bench_build
workload=""
seed=42
seconds=10
trace=0
out="$build/results"
while (($#)); do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --trace)
      if [[ "${2:-}" == 0 || "${2:-}" == 1 ]]; then
        trace="$2"
        shift 2
      else
        trace=1
        shift
      fi
      ;;
    *) echo "run.sh: unknown argument: $1" >&2; exit 2 ;;
  esac
done

# Build output goes to stderr: the last stdout line must be the result.
cmake -S benchmark -B "$build/cmake" >&2
cmake --build "$build/cmake" --target era_bench -j 4 >&2
bench="$build/cmake/era_bench"

run() {
  local args=(--workload="$1" --seed="$seed" --seconds="$seconds"
              --work="$build/work")
  if [[ "$trace" == 1 ]]; then args+=(--trace="$build/traces"); fi
  "$bench" "${args[@]}"
}

if [[ -n "$workload" ]]; then
  run "$workload"
  exit
fi

mkdir -p "$out"
for w in $("$bench" --list); do
  result="$(run "$w")"
  printf '%s\n' "$result" | sed '$d'
  printf '%s\n' "$result" | tail -n 1 > "$out/$w.$seed.$(date +%s%N).json"
done
echo "results in $out" >&2

#!/usr/bin/env bash
# One-command runner of the end-to-end benchmark (bench/e2e/README.md).
#
#   bench/e2e/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#                    [--trace-dir DIR] [--self-test]     one workload
#   bench/e2e/run.sh [--runs N] [--out DIR] [--seed N] [--trace 0|1]
#                                                        every workload
#   bench/e2e/run.sh --smoke                             quick check, ~10 s
#
# Builds acrobat_e2e and the library it links from source into .bench_build/
# at the repository root, then runs one process per workload run. --seconds
# defaults to run_seconds in BENCHMARK.json; --runs N uses seeds N, N+1, ...
# from --seed (default 42). With --out DIR each run's result line is saved as
# DIR/<workload>.<seed>.json, the input of bench/e2e/compare.py. Exits
# non-zero if any run failed a request or an output check.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"

# NetServer reads this variable and would run a fault-injected program.
if [[ -n "${ACROBAT_FAULT_SPEC+set}" ]]; then
  echo "run.sh: refusing to run with ACROBAT_FAULT_SPEC set" >&2
  exit 2
fi

workloads=(batch_zoo fleet_mixed decode_stream wire_decode)
runs=1 out="" seed=42 smoke=0 seconds=""
pass=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workloads=("$2"); shift 2 ;;
    --runs) runs="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --smoke) smoke=1; shift ;;
    *) pass+=("$1"); shift ;;
  esac
done

build=.bench_build/e2e
cmake -S bench/e2e -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target acrobat_e2e -j 4 >&2
bin="$build/acrobat_e2e"

if [[ "$smoke" == 1 ]]; then
  args=(--smoke --trace 1)
else
  if [[ -z "$seconds" ]]; then
    seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
  fi
  args=(--seconds "$seconds")
fi
args+=(${pass[@]+"${pass[@]}"})
[[ -n "$out" ]] && mkdir -p "$out"

run_one() {
  local w="$1" s="$2" rc=0
  if [[ -n "$out" ]]; then
    "$bin" --workload "$w" --seed "$s" "${args[@]}" | tee "$out/$w.$s.log" || rc=$?
    tail -n 1 "$out/$w.$s.log" > "$out/$w.$s.json"
  else
    "$bin" --workload "$w" --seed "$s" "${args[@]}" || rc=$?
  fi
  return "$rc"
}

status=0
for ((r = 0; r < runs; r++)); do
  for w in "${workloads[@]}"; do
    run_one "$w" $((seed + r)) || status=1
  done
done
exit "$status"

#!/usr/bin/env bash
# End-to-end benchmark of the loopback deployment; README.md describes the
# workloads and metrics.
#
#   bench/e2e/run.sh [--workloads=a,b,...] [--seconds=30] [--seed=N] [--out=DIR]
#       For each workload (default: all four), an untraced pass of --seconds
#       (end-to-end metrics) and a 10 s traced pass (per-layer metrics, a
#       Perfetto trace and the per-epoch ledger). Writes DIR/<workload>.json
#       (default DIR: build-e2e/results).
#
#   bench/e2e/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       One pass of one workload. The last line of stdout is one JSON object:
#       correct, attempted, failed, and the metrics BENCHMARK.json lists for
#       the pass (end_to_end for --trace 0, per_layer for --trace 1).
#
# Both forms build into build-e2e/ and run the decorator coverage test
# first. The exit status is non-zero when the build, that test, or any
# correctness check fails.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/../.."
build=build-e2e

usage() {
  sed -n '5,14s/^# \{0,1\}//p' "${BASH_SOURCE[0]}" >&2
  exit 2
}

workloads=smallbank,smallbank_1ms,ycsb_hot,ycsb_large
seconds=30
seed=1
out="$build/results"
trace=""
while (($# > 0)); do
  arg=$1
  shift
  case "$arg" in
    --*=*) key=${arg%%=*} value=${arg#*=} ;;
    --*)
      (($# > 0)) || usage
      key=$arg value=$1
      shift
      ;;
    *) usage ;;
  esac
  case "$key" in
    --workload | --workloads) workloads=$value ;;
    --seconds) seconds=$value ;;
    --seed) seed=$value ;;
    --out) out=$value ;;
    --trace) trace=$value ;;
    *) usage ;;
  esac
done

mkdir -p "$build"
if ! { cmake -S bench/e2e -B "$build" -DCMAKE_BUILD_TYPE=Release &&
  cmake --build "$build" -j 4; } >"$build/build.log" 2>&1; then
  tail -n 30 "$build/build.log" >&2
  echo "run.sh: build failed (full log: $build/build.log)" >&2
  exit 1
fi
if ! "$build/decorators_test" >"$build/decorators_test.log" 2>&1; then
  cat "$build/decorators_test.log" >&2
  echo "run.sh: decorators_test failed" >&2
  exit 1
fi

if [[ -z "$trace" ]]; then
  status=0
  IFS=, read -ra list <<<"$workloads"
  for w in "${list[@]}"; do
    "$build/e2e_bench" --workload "$w" --seed "$seed" --seconds "$seconds" --trace both \
      --out "$out" || status=1
  done
  exit "$status"
fi

[[ "$workloads" != *,* && ("$trace" == 0 || "$trace" == 1) ]] || usage
rm -f "$out/$workloads.json"
status=0
"$build/e2e_bench" --workload "$workloads" --seed "$seed" --seconds "$seconds" \
  --trace "$trace" --out "$out" || status=$?
# The result file is written whenever the pass ran, even when a check failed.
[[ -f "$out/$workloads.json" ]] || exit "$status"
python3 - "$out/$workloads.json" "$trace" <<'PY'
import json
import sys

result = json.load(open(sys.argv[1]))
spec = json.load(open("BENCHMARK.json"))
section = "per_layer" if sys.argv[2] == "1" else "end_to_end"
metrics = {m["name"]: result[section][m["name"]] for m in spec[section]}
print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                  "failed": result["failed"], "metrics": metrics}))
PY
exit "$status"

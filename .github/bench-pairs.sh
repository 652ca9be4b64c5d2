#!/usr/bin/env bash
# Gates a change on the end-to-end benchmark (bench/): every workload of
# BENCHMARK.json runs in alternating pairs, once on the parent commit and
# once on the change, and bench's own -compare judges the two result sets
# with BENCHMARK.json's bounds. Run from the change's root, with the parent
# commit checked out at PARENT_DIR:
#
#   bash .github/bench-pairs.sh PARENT_DIR
#
# Pair k runs both sides at seed k. Odd pairs run the parent first and even
# pairs the change first, so a drift in the machine's speed during a pair
# falls on each side alike. Each side builds bench/ from its own source with
# bench/run.sh. A run that exits 1 (a failed correctness check) still ends
# with its result line; the line is kept, so -compare sees the incorrect run
# and fails on it. A run that prints no result line (a build failure) stops
# the gate.
#
# Writes bench-pairs/parent.json and bench-pairs/change.json, in the
# {workload: [result, ...]} shape that run.sh -collect writes, and the
# compare table to bench-pairs/compare.txt. Exits as -compare does: 1 when
# a metric regressed beyond its bound or a run was incorrect.
set -euo pipefail

# pairs is how many parent/change pairs each workload runs: four spans the
# quartiles -compare computes a spread from, and keeps the gate near 18
# minutes on a 2-vCPU runner (4 workloads x 4 pairs x 2 runs of about 33 s).
readonly pairs=4

if [ $# -ne 1 ] || [ ! -f "$1/bench/run.sh" ]; then
  echo "usage: bash .github/bench-pairs.sh PARENT_DIR (a checkout of the parent commit)" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
change=$(pwd)
out="$change/bench-pairs"
rm -rf "$out"
mkdir -p "$out"
seconds=$(jq -r '.run_seconds' BENCHMARK.json)
mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json)

# measure runs one workload at one seed in one tree and appends
# {"workload", "result"} to that side's list.
measure() {
  local side=$1 tree=$2 workload=$3 seed=$4 line
  echo "bench-pairs: $workload seed $seed on the $side" >&2
  line=$(cd "$tree" && bash bench/run.sh --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace 0 | tail -n 1) || true
  if ! jq -e 'has("metrics")' <<<"$line" >/dev/null 2>&1; then
    echo "bench-pairs: $workload seed $seed on the $side printed no result line" >&2
    exit 1
  fi
  jq -c --arg w "$workload" '{workload: $w, result: .}' <<<"$line" >>"$out/$side.jsonl"
}

for workload in "${workloads[@]}"; do
  for ((k = 1; k <= pairs; k++)); do
    if ((k % 2 == 1)); then
      measure parent "$parent" "$workload" "$k"
      measure change "$change" "$workload" "$k"
    else
      measure change "$change" "$workload" "$k"
      measure parent "$parent" "$workload" "$k"
    fi
  done
done

for side in parent change; do
  jq -s 'reduce .[] as $r ({}; .[$r.workload] += [$r.result])' \
    "$out/$side.jsonl" >"$out/$side.json"
  rm "$out/$side.jsonl"
done

status=0
bash bench/run.sh -compare "$out/parent.json" "$out/change.json" >"$out/compare.txt" || status=$?
cat "$out/compare.txt"
exit "$status"

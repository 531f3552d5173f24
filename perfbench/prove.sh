#!/usr/bin/env bash
# Runs the benchmark once per seed on each workload and prints, per
# metric, the median and the inter-quartile spread as a share of the
# median (the figure BENCHMARK.json's bounds are checked against).
#
#   perfbench/prove.sh [first_seed] [runs] [seconds] [workload...]
#
# Run it from the repository root. Result lines are kept under
# .bench_results/ for later comparison.
set -euo pipefail
first=${1:-1}
runs=${2:-10}
seconds=${3:-20}
shift $(( $# < 3 ? $# : 3 ))
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
  workloads=(ctl_lifecycle chain_steady chain_churn)
fi
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
bin="${CARGO_TARGET_DIR:-perfbench/target}/release/escape-perfbench"
mkdir -p .bench_results
for w in "${workloads[@]}"; do
  out=".bench_results/$w-seeds$first-$runs-${seconds}s.jsonl"
  : > "$out"
  for ((i = 0; i < runs; i++)); do
    "$bin" --workload "$w" --seed $((first + i)) --seconds "$seconds" --trace 0 | tail -n 1 >> "$out"
  done
  echo "== $w ($out)"
  "$bin" spread < "$out"
done

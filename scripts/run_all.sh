#!/usr/bin/env bash
# Regenerate every table/figure of the paper plus the extension studies.
#
# Usage: scripts/run_all.sh [--tiny|--small|--medium|--full] [--seed N]
# Output: one log per experiment under results/, reused by EXPERIMENTS.md.
set -euo pipefail
cd "$(dirname "$0")/.."

FLAGS=("$@")
mkdir -p results

# Fail fast if the workspace doesn't pass the lint+test gate: a broken
# build should not burn hours of experiment time first.
scripts/ci.sh

cargo build --release -p fv-bench --bins

for name in $(./target/release/exp --list); do
  echo "=== exp $name ${FLAGS[*]:-} ==="
  ./target/release/exp "$name" "${FLAGS[@]}" | tee "results/exp_$name.txt"
done
echo "=== exp_serve ${FLAGS[*]:-} ==="
./target/release/exp_serve "${FLAGS[@]}" | tee results/exp_serve.txt

echo "All experiment logs written to results/"

#!/usr/bin/env bash
# Builds the benchmark offline, runs the four workloads once (end-to-end
# metrics), then once more traced (per-layer metrics + span files under
# benchmark/results/).  Run from anywhere; extra arguments replace the
# default `--seed 1 --seconds 24`.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ "$#" -eq 0 ]; then set -- --seed 1 --seconds 24; fi
cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/flowbench"
for trace in 0 1; do
  for workload in paper_loop cold_synth cnn_train flowd_mix; do
    "$bin" --workload "$workload" --trace "$trace" "$@"
  done
done

#!/usr/bin/env bash
# The benchmark's front door: builds `cote` and the benchmark binary, then
# runs one workload.
#
#   benchmark/run.sh --workload <name> [--seed N] [--seconds S] [--trace 0|1]
#   benchmark/run.sh <name> [--seed N] [--trace]
#   benchmark/run.sh --check | --spread | --steady   (see benchmark/check.py)
#
# Workloads: compile_serial compile_parallel wire_cold wire_hot.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"

# One target directory for both builds; a relative CARGO_TARGET_DIR is
# relative to the repo root.
target=${CARGO_TARGET_DIR:-target}
case $target in /*) ;; *) target=$root/$target ;; esac
export CARGO_TARGET_DIR=$target CARGO_NET_OFFLINE=true

cargo build --release --offline --quiet -p cote-cli >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

bench=("$target/release/cote-benchmark" --cote-bin "$target/release/cote" --results-dir benchmark/results)
case ${1:-} in
--check | --spread | --steady) exec python3 benchmark/check.py "${1#--}" -- "${bench[@]}" ;;
*) exec "${bench[@]}" "$@" ;;
esac

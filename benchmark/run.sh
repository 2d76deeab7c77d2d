#!/usr/bin/env bash
# Build the benchmark and run it.
#
#   benchmark/run.sh                      every workload, gated and traced
#   benchmark/run.sh --smoke              the same in a few seconds (CI)
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one run, as BENCHMARK.json's command
#   benchmark/run.sh aa|diff ...          see benchmark/README.md
#
# Run it from the root of the repository. Prints `workload metric value unit`
# lines; a single run ends with the result object on the last line.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
target="${CARGO_TARGET_DIR:-$here/target}"

# Cargo's own output goes to stderr: standard output carries results only.
cargo build --release --offline --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
dkbench="$target/release/dkbench"

case "${1:-}" in
  "")          exec "$dkbench" all ;;
  --smoke)     shift; exec "$dkbench" all --ops-scale 0.01 "$@" ;;
  aa|diff|all) exec "$dkbench" "$@" ;;
  *)           exec "$dkbench" run "$@" ;;
esac

#!/usr/bin/env bash
# The benchmark's single entry point (`command` in ../BENCHMARK.json).
#
#   benchmark/run.sh                      every workload, seed 1: table on stderr, JSON on stdout
#   benchmark/run.sh --selfcheck          two sets back to back, held against the bounds
#   benchmark/run.sh --workload ff_wire --seed 3 --seconds 10 --trace 0
#
# Builds the release binary once (into $CARGO_TARGET_DIR, or benchmark/target)
# and runs it with the pinned environment. Works from any directory.
set -euo pipefail

manifest="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)/Cargo.toml"

# The harness pins these itself as well; exporting them here keeps a
# hand-started worker or debugger session under the same settings.
export FEIR_NUM_THREADS=2
unset FEIR_SPMV_FORMAT FEIR_TRACE

if [ "$#" -eq 0 ]; then
    set -- --workload all --seed 1
fi

cargo build --release --offline --quiet --manifest-path "$manifest" >&2
exec cargo run --release --offline --quiet --manifest-path "$manifest" -- "$@"

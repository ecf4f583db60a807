#!/usr/bin/env bash
# Build mdr-perf (release, offline) and run it with the given arguments.
#
#   benchmark/run.sh --workload fluid-boot --seed 7 --seconds 15 --trace 0
#   benchmark/run.sh run --seed 7 --reps 3 --trace
#   benchmark/run.sh run --smoke
#   benchmark/run.sh compare benchmark/out/a.json benchmark/out/b.json
#
# Run from the repository root. Build products go to $CARGO_TARGET_DIR,
# or to the repository's shared target/ when that is unset.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/mdr-perf" "$@"

#!/usr/bin/env bash
# Builds the daemon under test (`enqd`, from the repository's workspace) and
# this benchmark into one target directory, then runs the benchmark:
#
#   bash perfbench/run.sh --workload serve-cold --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build output goes to stderr so the last line
# of stdout stays the result object.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p enq_net --bin enqd >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"

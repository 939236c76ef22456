#!/usr/bin/env bash
# Build the shipped binaries and the benchmark from source, then run it:
#   bash structbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); cargo's own output goes to stderr.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet \
    -p structmine-serve --bin structmine-serve \
    -p structmine-bench --bin table_xclass >&2
cargo build --release --offline --quiet --manifest-path structbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/structbench" "$@"

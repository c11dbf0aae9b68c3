#!/usr/bin/env bash
# Build the benchmark from source, then run one workload. Run from the
# repository root:
#   bash perfbench/run.sh --workload explore-big --seed 1 --seconds 30 --trace 0
# Build output goes to $CARGO_TARGET_DIR (default: .bench_build). Cargo's
# own output goes to stderr; the result is the last line of stdout.
# `serve-predict` also builds the `pmt` binary, whose daemon it drives.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
if [[ " $* " == *" serve-predict "* ]]; then
    cargo build --release --offline --quiet --bin pmt >&2
fi
exec "$CARGO_TARGET_DIR/release/perfbench" --pmt "$CARGO_TARGET_DIR/release/pmt" "$@"

#!/bin/sh
# Builds the driver offline, runs the five workloads timed and then traced
# (each in a fresh process), writes benchmark/out/results.json and
# benchmark/out/trace.json, and prints every metric table.
# Arguments go to `suite`: --seed N, --seconds S, --out DIR.
set -eu
cd "$(dirname "$0")/.."
cargo build --release --offline --manifest-path benchmark/Cargo.toml
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/bfetch-benchmark" suite "$@"

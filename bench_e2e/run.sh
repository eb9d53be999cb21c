#!/usr/bin/env bash
# Build `bench_e2e` and the `wasai` CLI it drives into one target directory
# (`$CARGO_TARGET_DIR`, default `.bench_build` at the repository root), then
# run one workload:
#
#   bash bench_e2e/run.sh --workload <table4|wild_sdk|cosmwasm|sweep_warm> \
#       [--seed N] [--seconds S] [--trace 0|1]
#
# Build output goes to stderr; the last line of stdout is the result JSON.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/.bench_build}"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin wasai >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
# Not `exec`: the bench reads its children's peak memory from getrusage, and
# an exec'd process would inherit the cargo builds as finished children.
"$CARGO_TARGET_DIR/release/bench_e2e" "$@"

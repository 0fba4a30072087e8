#!/usr/bin/env bash
# Builds `subg` and `subg_bench` from this checkout, then runs the
# benchmark with the given arguments, e.g.
#
#   bash crates/bench/src/bin/subg_bench/run.sh --workload chip_find --seed 17 --seconds 10 --trace 0
#
# Run it from the root of the checkout. Build output goes to
# $CARGO_TARGET_DIR (default: target/ at the root), build messages to
# stderr; stdout carries only the benchmark's report.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$bench_dir/../../../../.." && pwd)"
target="${CARGO_TARGET_DIR:-$root/target}"
export CARGO_TARGET_DIR="$target"

cargo build --release --quiet --manifest-path "$root/Cargo.toml" -p subgemini-cli 1>&2
cargo build --release --quiet --manifest-path "$bench_dir/Cargo.toml" 1>&2
exec "$target/release/subg_bench" --subg "$target/release/subg" "$@"

#!/usr/bin/env bash
# Build the benchmark and the grip-serve server from this checkout's
# sources (release, offline), then run the benchmark with the given
# arguments, e.g.
#
#   bash gripbench/run.sh --workload cold_compile --seed 1 --seconds 20 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default: .bench_build in the
# checkout); cargo's own messages go to stderr, so stdout carries only the
# benchmark's report, ending with its one-line JSON result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p grip-service --bin grip-serve >&2
cargo build --release --offline --quiet --manifest-path "$root/gripbench/Cargo.toml" >&2

export GRIPBENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
GRIPBENCH_COMMIT=none
if [ -e "$root/.git" ]; then
    GRIPBENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo none)"
fi
export GRIPBENCH_COMMIT
exec "$target/release/gripbench" --serve-bin "$target/release/grip-serve" \
    --out-dir "$target/gripbench" "$@"

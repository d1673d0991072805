#!/usr/bin/env bash
# Builds the `serve` binary and the benchmark from source, then runs the
# benchmark with the given arguments:
#
#   bash servebench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Build output and per-run scratch state
# go under $CARGO_TARGET_DIR (default: .bench_build).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
case "$CARGO_TARGET_DIR" in
  /*) target="$CARGO_TARGET_DIR" ;;
  *) target="$PWD/$CARGO_TARGET_DIR" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --quiet --release --offline --manifest-path "$root/Cargo.toml" -p ttsv-serve --bin serve >&2
cargo build --quiet --release --offline --manifest-path "$here/Cargo.toml" >&2

mkdir -p "$target/servebench"
exec "$target/release/ttsv-servebench" \
  --serve-bin "$target/release/serve" \
  --work-dir "$target/servebench" \
  "$@"

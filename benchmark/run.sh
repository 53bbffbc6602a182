#!/usr/bin/env bash
# Builds the benchmark and the `pdeml` binary it drives, then runs the
# benchmark with the arguments given. Both builds start from the repo root so
# that .cargo/config.toml (target-cpu=native) applies to each, and share one
# target directory so the workspace crates compile once.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
cargo build --release --offline --quiet -p pde-ml-cli
exec "$CARGO_TARGET_DIR/release/pde-benchmark" "$@"

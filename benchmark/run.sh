#!/usr/bin/env bash
# The one command: builds the real server (the tier-1 `cargo build --release`
# of the repo this directory sits in), builds the harness, and runs it.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick]
#
# Without --workload every workload runs, first with tracing off (the
# end-to-end metrics), then traced (the per-layer metrics). The exit status
# is non-zero when a build fails, an output check fails, or an operation
# fails. Everything is written inside the checkout: build products under
# $CARGO_TARGET_DIR (default: the repo's target/), traces under benchmark/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# One target directory for both builds, so the engine crates compile once.
target="${CARGO_TARGET_DIR:-target}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"

# Build output goes to stderr: stdout carries the report and, last, the result line.
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin blazeit-server >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

exec "$target/release/blazeit-benchmark" --server-bin "$target/release/blazeit-server" "$@"

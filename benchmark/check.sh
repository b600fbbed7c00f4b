#!/usr/bin/env bash
# Everything a CI job needs for this directory, in one line:
# format, lints, unit tests, and a --quick pass of all four workloads that
# runs every output check but prints no numbers.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here"
cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline
"$here/run.sh" --quick

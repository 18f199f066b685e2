#!/usr/bin/env bash
# Builds the benchmark and its dist worker (release profile, offline), then
# runs it with the given arguments. Build output goes to stderr, so the
# benchmark's result line stays the last line of stdout.
#
#   bash checkbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Artifacts go to $CARGO_TARGET_DIR when set, else checkbench/target.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/checkbench" "$@"

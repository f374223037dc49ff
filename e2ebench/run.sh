#!/usr/bin/env bash
# Builds the AFEX release binaries (afex-cli, the victim and the preload
# shim) and the benchmark into one target directory, then runs the
# benchmark with the given arguments:
#
#   bash e2ebench/run.sh --workload proc-campaign --seed 1 --seconds 24 --trace 0
#
# Run from the repository root. Build output goes to stderr; the last
# line of stdout is the result object.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$root/target}"
mkdir -p "$target"
target="$(cd "$target" && pwd)"
cargo build --release --quiet --manifest-path "$root/Cargo.toml" \
    -p afex -p afex-preload --target-dir "$target" 1>&2
cargo build --release --quiet --manifest-path "$here/Cargo.toml" \
    --target-dir "$target" 1>&2
exec "$target/release/afex-e2ebench" "$@"

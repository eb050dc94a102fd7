#!/usr/bin/env bash
# perf/compare.sh A.json B.json
#
# Judges candidate B against baseline A (two results.json files, or the
# committed perf/BENCH_baseline.json): for every workload x gated metric
# it applies the declared direction and bound and prints `ok`,
# `regressed`, or `unresolved` (the windows scatter too widely to place
# the median within the bound). Exits non-zero unless every line is ok.
set -euo pipefail

[ $# -eq 2 ] || { echo "usage: perf/compare.sh A.json B.json" >&2; exit 2; }
# Resolve the files before changing directory for the build.
a="$(realpath "$1")" b="$(realpath "$2")"

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
case "$CARGO_TARGET_DIR" in /*) ;; *) CARGO_TARGET_DIR="$root/$CARGO_TARGET_DIR" ;; esac

cargo build --release --offline --quiet --manifest-path perf/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/ledger" compare "$a" "$b"

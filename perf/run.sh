#!/usr/bin/env bash
# The perf ledger's one command.
#
#   perf/run.sh [--seed N] [--workload W] [--seconds S] [--smoke]
#       Ledger mode: builds in release, runs every workload (or W) in a
#       fresh process twice - an untraced pass for the end-to-end
#       metrics, a traced pass for the per-layer ones - prints every
#       metric as `workload metric value unit`, the layer ladder and the
#       paper scorecard, writes perf/out/results.json and
#       perf/out/trace_<workload>.jsonl, exits non-zero on a failed check.
#
#   perf/run.sh --workload W --seed N --seconds S --trace 0|1
#       One pass of one workload, as BENCHMARK.json's `command` runs it:
#       the last line of standard output is the result object.
#
# Reads and writes only inside the checkout: build output goes to
# $CARGO_TARGET_DIR (default: the repository's shared target/), results
# and the durable workload's log to perf/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# A relative CARGO_TARGET_DIR means "relative to where I was started",
# which is the checkout root we just changed to.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
case "$CARGO_TARGET_DIR" in /*) ;; *) CARGO_TARGET_DIR="$root/$CARGO_TARGET_DIR" ;; esac

seed=42 seconds=20 workload="" trace="" smoke=""
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --workload) workload="$2"; shift 2 ;;
        --trace) trace="$2"; shift 2 ;;
        --smoke) smoke="--smoke"; shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

# Build output goes to stderr so stdout stays the ledger's.
cargo build --release --offline --quiet --manifest-path perf/Cargo.toml >&2
PERF_RUSTC="$(rustc -V)"
export PERF_RUSTC
bin="$CARGO_TARGET_DIR/release"
out="perf/out"
mkdir -p "$out"

pass() { # workload trace extra...
    local w="$1" t="$2"; shift 2
    local exe="$bin/ledger"
    [ "$t" = 1 ] && exe="$bin/ledger_traced"
    "$exe" pass --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$t" --out "$out" $smoke "$@"
}

if [ -n "$trace" ]; then
    [ -n "$workload" ] || { echo "run.sh: --trace needs --workload" >&2; exit 2; }
    pass "$workload" "$trace" --contract
    exit
fi

workloads="${workload:-engine_update engine_read_scan wire_pipelined wire_durable_fanout}"
failed=0
for w in $workloads; do
    # Each pass is a fresh process: no allocator state, page cache of
    # the log, or warmed branch predictor carries from one to the next.
    pass "$w" 0 || failed=1
    pass "$w" 1 || failed=1
done
"$bin/ledger" merge --seed "$seed" --seconds "$seconds" --out "$out" $smoke ${workload:+--workload "$workload"} || failed=1
exit "$failed"

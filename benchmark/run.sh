#!/bin/sh
# One command for people: build offline, run the five workloads one process
# at a time (untraced, for the end-to-end metrics), then each again traced
# (for the per-layer metrics), keep everything under benchmark/out/ and
# print the tables. Engines on the known-broken list are run and counted
# here, so the failure stays on record; the BENCHMARK.json command leaves
# them out.
#
#   benchmark/run.sh [--seed <n>] [--seconds <s>]
set -eu
cd "$(dirname "$0")"

seed=42
seconds=10
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed=$2; shift 2 ;;
        --seconds) seconds=$2; shift 2 ;;
        *) echo "usage: $0 [--seed <n>] [--seconds <s>]" >&2; exit 2 ;;
    esac
done

cargo build --release --offline
bin=${CARGO_TARGET_DIR:-target}/release/benchmark
workloads="rx_mtu_16c tx_tso_1c rr_64b_1c kv_1k_16c rx_64k_256c_percore"
mkdir -p out

for w in $workloads; do
    "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
        --include-broken 1 > "out/$w.txt"
    # Everything but the result line, which stays in the file.
    sed '$d' "out/$w.txt"
    echo
done
for w in $workloads; do
    "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 1 \
        --include-broken 1 --spans "out/$w.spans.jsonl" > "out/$w.traced.txt"
    sed '$d' "out/$w.traced.txt"
    echo
done
echo "results and spans are in benchmark/out/"

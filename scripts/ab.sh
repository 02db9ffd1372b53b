#!/bin/sh
# A/B study of one benchmark workload: a parent revision against the
# working tree, in alternating pairs of processes.
#
#   scripts/ab.sh <parent-rev> <workload> [pairs] [seed]
#
# Builds the benchmark that BENCHMARK.json runs (benchmark/, release,
# offline) twice: in a copy of <parent-rev> unpacked with `git archive`
# under ${TMPDIR:-/tmp}/ab-<commit> (kept, so a second study against the
# same revision does not build it again), and in the working tree. Then
# runs `pairs` pairs (default 10) at BENCHMARK.json's run_seconds and
# `--seed <seed>` (default 42), alternating which side runs first.
#
# Prints, for every pair, host_items_per_s, setup_s and host_peak_rss_mb
# of both sides; for each side and metric the median and quartiles; how
# many pairs the working tree won on each metric (ties count for neither
# side), the ratio of the medians and the median pair ratio; and whether the gain rule of a claim holds: the working tree wins
# at least nine tenths of the pairs and its median beats the parent's by
# more than the parent's interquartile range.
#
# Exits 1 if any sim_* metric or any engine-table row (its host-seconds
# column aside) differs between the two sides in any pair: an A/B study
# of host time is only meaningful when the simulated run is the same.
set -eu

if [ $# -lt 2 ] || [ $# -gt 4 ]; then
    echo "usage: $0 <parent-rev> <workload> [pairs] [seed]" >&2
    exit 2
fi
rev=$1
workload=$2
pairs=${3:-10}
seed=${4:-42}

root=$(git rev-parse --show-toplevel)
commit=$(git -C "$root" rev-parse --verify "$rev^{commit}")
seconds=$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' "$root/BENCHMARK.json")
base=${TMPDIR:-/tmp}/ab-$commit
out=$(mktemp -d "${TMPDIR:-/tmp}/ab-runs.XXXXXX")

if [ ! -d "$base" ]; then
    mkdir -p "$base.partial"
    git -C "$root" archive "$commit" | tar -x -C "$base.partial"
    mv "$base.partial" "$base"
fi
for side in "$base" "$root"; do
    CARGO_TARGET_DIR="$side/benchmark/target" cargo build --release --offline --quiet \
        --manifest-path "$side/benchmark/Cargo.toml"
done

# Runs one side once: $1 is the checkout, $2 the output file.
run() {
    "$1/benchmark/target/release/benchmark" --workload "$workload" \
        --seed "$seed" --seconds "$seconds" --trace 0 > "$2"
}

# The simulated part of one output: the engine table without its last
# (host seconds) column, and every sim_* metric line.
simulated() {
    awk '/^engine / { table = 1 } /^ops_attempted/ { table = 0 }
         table { $NF = ""; print; next }
         $1 ~ /^sim_/ { print }' "$1"
}

# One metric's value from one output's metric lines.
metric() {
    awk -v m="$2" '$1 == m { print $2; exit }' "$1"
}

differs=0
i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        run "$base" "$out/a$i"
        run "$root" "$out/b$i"
    else
        run "$root" "$out/b$i"
        run "$base" "$out/a$i"
    fi
    simulated "$out/a$i" > "$out/a$i.sim"
    simulated "$out/b$i" > "$out/b$i.sim"
    if ! cmp -s "$out/a$i.sim" "$out/b$i.sim"; then
        echo "pair $i: simulated output differs (parent <, working tree >):"
        diff "$out/a$i.sim" "$out/b$i.sim" || true
        differs=1
    fi
    for m in host_items_per_s setup_s host_peak_rss_mb; do
        echo "$i $m $(metric "$out/a$i" "$m") $(metric "$out/b$i" "$m")"
    done >> "$out/table"
    i=$((i + 1))
done

echo "workload $workload seed $seed, $pairs pairs at ${seconds}s:" \
    "parent $(git -C "$root" rev-parse --short "$commit") vs working tree"
awk '
    function sortv(v, n,    i, j, t) {
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
    }
    # Median of v[lo..hi], sorted.
    function med(v, lo, hi,    n) {
        n = hi - lo + 1
        return n % 2 ? v[lo + (n - 1) / 2] : (v[lo + n / 2 - 1] + v[lo + n / 2]) / 2
    }
    # Median and quartiles (the medians of the lower and upper halves).
    function stats(v, n, s) {
        sortv(v, n)
        s["med"] = med(v, 1, n)
        s["q1"] = med(v, 1, int(n / 2))
        s["q3"] = med(v, n - int(n / 2) + 1, n)
    }
    {
        m = $2; n[m]++; a[m, n[m]] = $3 + 0; b[m, n[m]] = $4 + 0
        printf "pair %2d  %-17s parent %12s  working tree %12s  ratio %.3f\n", $1, m, $3, $4, $4 / $3
    }
    END {
        split("host_items_per_s setup_s host_peak_rss_mb", order, " ")
        higher["host_items_per_s"] = 1
        for (k = 1; k <= 3; k++) {
            m = order[k]; c = n[m]; wins = 0
            for (i = 1; i <= c; i++) {
                va[i] = a[m, i]; vb[i] = b[m, i]; vr[i] = b[m, i] / a[m, i]
                if (higher[m] ? b[m, i] > a[m, i] : b[m, i] < a[m, i]) wins++
            }
            stats(va, c, sa); stats(vb, c, sb); stats(vr, c, sr)
            iqr = sa["q3"] - sa["q1"]
            gain = higher[m] ? sb["med"] - sa["med"] : sa["med"] - sb["med"]
            holds = wins * 10 >= 9 * c && gain > iqr
            printf "%-17s parent median %.4g [%.4g, %.4g]  working tree median %.4g [%.4g, %.4g]\n", \
                m, sa["med"], sa["q1"], sa["q3"], sb["med"], sb["q1"], sb["q3"]
            printf "%-17s working tree wins %d of %d, ratio of medians %.3f, median pair ratio %.3f, gain rule %s\n", \
                m, wins, c, sb["med"] / sa["med"], sr["med"], holds ? "holds" : "does not hold"
        }
    }' "$out/table"
if [ "$differs" -ne 0 ]; then
    echo "simulated output differs between the two sides; outputs kept in $out" >&2
    exit 1
fi
rm -r "$out"

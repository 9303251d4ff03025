#!/bin/sh
# bench_compare.sh — diff a fresh trajectory document (see
# bench_trajectory.sh for the format) against the newest committed
# BENCH_PR*.json and warn about any benchmark whose ns/op or allocs/op
# regressed by more than 20%, or whose allocs/op rose from zero at all
# (the //lint:hotpath kernels are pinned at 0 allocs/op).
#
# Usage: bench_compare.sh [NEW]   (NEW defaults to bench-latest.json,
# bench_trajectory.sh's default output).
#
# Advisory only: always exits 0, so CI stays green — the warnings land
# in the job log (and as GitHub annotations via the ::warning:: prefix)
# for a human to judge. Needs only POSIX sh + awk.
set -eu

cd "$(dirname "$0")/.."

NEW=${1:-bench-latest.json}
if [ ! -f "$NEW" ]; then
    echo "bench-compare: $NEW not found; run scripts/bench_trajectory.sh first"
    exit 0
fi
# The newest committed baseline by PR number (version sort handles
# BENCH_PR10.json after BENCH_PR9.json).
OLD=$(ls BENCH_PR*.json 2>/dev/null | sort -V | tail -n 1)
if [ -z "$OLD" ]; then
    echo "bench-compare: no committed BENCH_PR*.json baseline, nothing to compare"
    exit 0
fi
echo "bench-compare: $OLD -> $NEW (threshold: 20% on ns/op and allocs/op, any rise from 0 allocs/op)"

awk -v oldfile="$OLD" '
# Pull one numeric or string field out of a single-line benchmark row.
function val(line, key,    rest) {
    rest = line
    if (!sub(".*\"" key "\": *", "", rest)) return ""
    sub(/[,}].*/, "", rest)
    gsub(/"/, "", rest)
    return rest
}
FNR == NR {
    if ($0 ~ /"name"/) {
        n = val($0, "name")
        oldns[n] = val($0, "ns_per_op")
        oldal[n] = val($0, "allocs_per_op")
    }
    next
}
$0 ~ /"name"/ {
    n = val($0, "name")
    if (!(n in oldns)) {
        printf "bench-compare: %s is new (no baseline in %s)\n", n, oldfile
        next
    }
    ns = val($0, "ns_per_op") + 0;     ons = oldns[n] + 0
    al = val($0, "allocs_per_op") + 0; oal = oldal[n] + 0
    if (ons > 0 && ns > ons * 1.2) {
        printf "::warning::bench-compare: %s ns/op regressed %.1f%% (%g -> %g)\n", n, (ns / ons - 1) * 100, ons, ns
        bad++
    }
    if (oal > 0 && al > oal * 1.2) {
        printf "::warning::bench-compare: %s allocs/op regressed %.1f%% (%g -> %g)\n", n, (al / oal - 1) * 100, oal, al
        bad++
    } else if (oal == 0 && al > 0) {
        printf "::warning::bench-compare: %s allocs/op rose from 0 to %g\n", n, al
        bad++
    }
    compared++
}
END {
    printf "bench-compare: %d benchmark(s) compared, %d regression warning(s)\n", compared + 0, bad + 0
}
' "$OLD" "$NEW"

exit 0

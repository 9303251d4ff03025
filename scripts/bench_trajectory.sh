#!/bin/sh
# bench_trajectory.sh — record the per-PR benchmark trajectory.
#
# Runs the headline benchmarks (BenchmarkInfer: the parallel multi-chain
# sampling engine; BenchmarkPublicInfer: the full public API path;
# BenchmarkCampaignSimulation: one beacon campaign through the simulator;
# BenchmarkLint: a whole-module becauselint pass; the //lint:hotpath
# sampler and observation-model kernels, BenchmarkPaperChain: one MH
# sweep and one HMC trajectory at paper scale, 600 ASes and 3000 paths;
# BenchmarkSummarize: the per-node means and HDPIs of a paper-scale
# result; and the campaign write path —
# event queue, BGP encoder, MRT writer — which must hold zero allocs/op)
# and emits a
# machine-readable JSON document — benchmark name, ns/op, B/op,
# allocs/op, plus the commit the numbers were taken at — so successive
# PRs leave comparable perf data points in the repo.
#
# Output goes to bench-latest.json (override with BENCH_OUT), a scratch
# name that never shadows a committed BENCH_PR*.json baseline;
# scripts/bench_compare.sh compares it against the newest of those. To
# record a PR's data point, copy it to the next BENCH_PR<n>.json and
# commit that. BENCHTIME tunes -benchtime; the default 1x runs one timed
# iteration per benchmark — enough for the coarse trajectory and quick in
# CI. Use e.g. BENCHTIME=2s for stabler numbers. Needs only sh + the Go
# toolchain.
set -eu

cd "$(dirname "$0")/.."

OUT=${BENCH_OUT:-bench-latest.json}
BENCHTIME=${BENCHTIME:-1x}

RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

echo "bench-trajectory: root benchmarks (benchtime $BENCHTIME)"
go test -run '^$' -bench '^(BenchmarkInfer|BenchmarkPublicInfer|BenchmarkCampaignSimulation)$' \
    -benchmem -benchtime "$BENCHTIME" . | tee -a "$RAW"
echo "bench-trajectory: lint benchmark"
go test -run '^$' -bench '^BenchmarkLint$' \
    -benchmem -benchtime "$BENCHTIME" ./internal/lint | tee -a "$RAW"
echo "bench-trajectory: hotpath kernels (both observation models)"
go test -run '^$' -bench '^(BenchmarkMHSweep|BenchmarkHMCLeapfrog|BenchmarkPaperChain|BenchmarkSummarize|BenchmarkChurnDeltaApply|BenchmarkChurnGrad|BenchmarkChurnGradNoMiss)$' \
    -benchmem -benchtime "$BENCHTIME" ./internal/core | tee -a "$RAW"
go test -run '^$' -bench '^(BenchmarkPermInto|BenchmarkTruncNormalSample)$' \
    -benchmem -benchtime "$BENCHTIME" ./internal/stats | tee -a "$RAW"
echo "bench-trajectory: campaign write path (event queue, BGP encoder, MRT writer)"
go test -run '^$' -bench '^BenchmarkQueuePushPop$' \
    -benchmem -benchtime "$BENCHTIME" ./internal/netsim | tee -a "$RAW"
go test -run '^$' -bench '^BenchmarkEncodeUpdate$' \
    -benchmem -benchtime "$BENCHTIME" ./internal/bgp | tee -a "$RAW"
go test -run '^$' -bench '^BenchmarkWriteUpdateRecord$' \
    -benchmem -benchtime "$BENCHTIME" ./internal/mrt | tee -a "$RAW"

COMMIT=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
GOVER=$(go env GOVERSION)

# Each result line looks like
#   BenchmarkInfer/chains=4/workers=1-8   3   412345678 ns/op   96 B/op   2 allocs/op
# The -N GOMAXPROCS suffix is stripped so names compare across machines.
awk -v commit="$COMMIT" -v gover="$GOVER" -v benchtime="$BENCHTIME" '
/^Benchmark/ && /ns\/op/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    ns = ""; bytes = "0"; allocs = "0"
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op") ns = $i
        if ($(i+1) == "B/op") bytes = $i
        if ($(i+1) == "allocs/op") allocs = $i
    }
    if (ns == "") next
    row = sprintf("    {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}",
                  name, ns, bytes, allocs)
    rows = rows (rows == "" ? "" : ",\n") row
}
END {
    printf "{\n"
    printf "  \"schema_version\": 1,\n"
    printf "  \"commit\": \"%s\",\n", commit
    printf "  \"go\": \"%s\",\n", gover
    printf "  \"benchtime\": \"%s\",\n", benchtime
    printf "  \"benchmarks\": [\n%s\n  ]\n", rows
    printf "}\n"
}' "$RAW" >"$OUT"

echo "bench-trajectory: wrote $OUT"

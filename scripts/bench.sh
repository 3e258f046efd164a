#!/usr/bin/env bash
# bench.sh [tag] — run the perf-tracking benchmarks and emit BENCH_<tag>.json
# (default tag 1, the PR number of the first tracked change), so the round
# latency / allocation trajectory is recorded from PR 1 onward.
set -euo pipefail
cd "$(dirname "$0")/.."

TAG="${1:-1}"
OUT="BENCH_${TAG}.json"
BENCHES='BenchmarkSS2PLQueryDatalog|BenchmarkSS2PLQuerySQL|BenchmarkSQLIncrementalRound|BenchmarkMiddlewareRound|BenchmarkMiddlewareRoundDurable|BenchmarkMiddlewareRoundPartitioned|BenchmarkMiddlewareRoundPartitionedHotKey|BenchmarkMiddlewarePipelined|BenchmarkPendingStore|BenchmarkDatalogIncrementalRound|BenchmarkNetRoundTrip|BenchmarkNetMultiplexed|BenchmarkDeadlockVictims'
BENCHTIME="${BENCHTIME:-1s}"

# The paper-baseline row, BenchmarkSS2PLQuerySQLNestedLoop (Listing 1 run by
# the test interpreter, which has no planner), lives with the interpreter in
# internal/minisql.
RAW="$(go test -run='^$' -bench="${BENCHES}" -benchmem -benchtime="${BENCHTIME}" . )
$(go test -run='^$' -bench='^BenchmarkSS2PLQuerySQLNestedLoop$' -benchmem -benchtime="${BENCHTIME}" ./internal/minisql )"
echo "${RAW}"

# Convert `BenchmarkName-N  iters  t ns/op  b B/op  a allocs/op` lines to JSON.
echo "${RAW}" | awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
BEGIN { print "[" }
/^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    ns = ""; bytes = ""; allocs = ""; p50 = ""; p99 = ""; p999 = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op") ns = $(i-1)
        if ($i == "B/op") bytes = $(i-1)
        if ($i == "allocs/op") allocs = $(i-1)
        if ($i == "p50-us") p50 = $(i-1)
        if ($i == "p99-us") p99 = $(i-1)
        if ($i == "p999-us") p999 = $(i-1)
    }
    if (ns == "") next
    if (n++) printf ",\n"
    printf "  {\"bench\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s", \
        name, ns, (bytes == "" ? 0 : bytes), (allocs == "" ? 0 : allocs)
    if (p50 != "") printf ", \"p50_us\": %s, \"p99_us\": %s", p50, (p99 == "" ? 0 : p99)
    if (p999 != "") printf ", \"p999_us\": %s", p999
    printf ", \"date\": \"%s\"}", date
}
END { print "\n]" }
' > "${OUT}"

echo "wrote ${OUT}"

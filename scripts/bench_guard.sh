#!/usr/bin/env bash
# bench_guard.sh — regression gate for the round hot paths. Runs the guarded
# benchmarks and fails (exit 1) if any ns/op — or allocs/op — is more than
# GUARD_FACTOR (default 2) times the figure committed in the newest
# BENCH_<n>.json, so a PR cannot silently lose the warm-start, cold-round or
# SQL-backend wins. Allocations are deterministic where wall time is noisy,
# so the allocs gate is the sharper tripwire for "a hot path started
# allocating per row" regressions (the warm rounds sit at ~646 (Datalog,
# affected-closure recompute) / ~92 (SQL: flat bags and deltas allocate no
# cell, map bucket or bucket slice per tuple, and only the views a delta rule
# reads are materialised; ~163 with every plan node materialised) allocs/op;
# the committed baseline is the ratchet). CI boxes are noisy and
# heterogeneous; 2x is deliberately
# loose — it catches "the hot path fell off a cliff", not percent-level
# drift (the trajectory table in ROADMAP.md tracks that). A guarded bench
# missing from the baseline file is skipped, so the guard degrades gracefully
# against old baselines. A baseline of 0 allocs/op is a real zero (bench.sh
# always runs with -benchmem) and is gated as if it were 1. A final relative
# gate holds the
# large-delta SQL round to at least SPEEDUP_MIN (default 2) times faster
# than the cold round: a round that churns a quarter of pending must still
# cost its churn through the view cache's per-tuple delta rules.
set -euo pipefail
cd "$(dirname "$0")/.."

GUARD_FACTOR="${GUARD_FACTOR:-2}"
# Guarded benches: the Datalog warm round (the steady-state hot path), the
# 300-client Datalog cold round, the 300-client SQL-backend round, the
# delta-maintained SQL warm round (the view-cache win), the full middleware
# round (the scheduler-core store/pipeline win), the 3000-client one-shard
# middleware round (~1000-row Datalog deltas against a 6000-row history: the
# regime where an insert or delete on a Datalog fact set (a relation.Bag,
# the store both engines share) that walks its hash chain costs 8x —
# small instances cannot see it, which is how one passed CI in PR 9), and
# both sides of the 8-shard hot-key round (static and rebalanced slot table).
# The hot-key pair used to be held to a ratio, rebalanced >= 1.5x faster than
# static; that 3.7x was mostly the quadratic fact-store removal flattering
# the side with the smaller per-shard instance. With O(1) removal five runs
# read 1.18-1.45x on two cores (23.4-26.3 ms static, 16.2-20.0 ms
# rebalanced), too close to the run-to-run spread for a ratio gate, so each
# side is guarded on its own figure instead. The two wire benches (one
# client's write+commit over loopback, and 16 clients multiplexed on one
# connection) guard the trigger hand-off: a request waits for its round, not
# for a timer, so a lone write+commit is two rounds, each a third of the
# bench server's Every (200us) after the last plus a kernel sleep's wake-up
# (~0.3 ms; 2.4 ms while each request sat out a runtime timer that an idle
# process serves a millisecond late — re-baselined in BENCH_19.json, where a
# 2x gate first means something). The deadlock search on a paper-mix-sized
# round (200 pending, 5,000 history rows) guards the resolve stage, which the
# starvation bound runs on most paper-mix rounds: one filtered history pass
# and a search over dense arrays (42 us, 29 allocs in BENCH_22.json; the
# map-based detector it replaced took 117-206 us and 137 on the same box).
# The two pending-store benches guard the round loop's stores, which no
# end-to-end workload can isolate: 64 admits and removes against 10,000
# standing requests, and a victim's rollback of a 16-request transaction
# across both stores. On the per-transaction slot tables they take ~9 us / 0
# allocs and ~2.7 us / 5 allocs where the map-per-index stores they replaced
# took ~29 us / 64 and ~8 us / 15 (BENCH_26.json, taken in a slow phase,
# reads 11 and 3.5 us).
GUARDED='BenchmarkDatalogIncrementalRound/warm
BenchmarkSS2PLQueryDatalog/clients=300
BenchmarkSS2PLQuerySQL/clients=300
BenchmarkSQLIncrementalRound/warm
BenchmarkSQLIncrementalRound/bulk
BenchmarkMiddlewareRound
BenchmarkMiddlewareRoundPartitioned/partitions=1/clients=3000
BenchmarkMiddlewareRoundPartitionedHotKey/partitions=8/static
BenchmarkMiddlewareRoundPartitionedHotKey/partitions=8/rebalanced
BenchmarkNetRoundTrip
BenchmarkNetMultiplexed
BenchmarkDeadlockVictims
BenchmarkPendingStore/admit+remove/batch=64
BenchmarkPendingStore/victim-rollback/txn=16'

latest=$( (ls BENCH_*.json 2>/dev/null || true) | sed -n 's/^BENCH_\([0-9][0-9]*\)\.json$/\1/p' | sort -n | tail -1)
if [ -z "${latest}" ]; then
    echo "bench_guard: no committed BENCH_<n>.json baseline; skipping"
    exit 0
fi

json_field() { # json_field <bench> <field>
    awk -v bench="$1" -v field="$2" '
        index($0, "\"bench\": \"" bench "\"") {
            if (match($0, "\"" field "\": *[0-9.]+")) {
                v = substr($0, RSTART, RLENGTH)
                sub(/.*: */, "", v)
                print v
            }
        }' "BENCH_${latest}.json"
}

fail=0
while IFS= read -r bench; do
    base=$(json_field "${bench}" ns_per_op)
    base_allocs=$(json_field "${bench}" allocs_per_op)
    if [ -z "${base}" ]; then
        echo "bench_guard: ${bench} not in BENCH_${latest}.json; skipping"
        continue
    fi
    # go test splits the -bench regex on "/" and matches per segment:
    # anchor each segment of the bench path separately, with regex
    # metacharacters (the "+" of admit+remove) quoted.
    quoted=$(printf '%s' "${bench}" | sed 's/[][\\.*^$+?(){}|]/\\&/g')
    pattern="^${quoted//\//\$/^}\$"
    raw=$(go test -run='^$' -bench="${pattern}" -benchmem -benchtime="${BENCHTIME:-1s}" .)
    echo "${raw}"
    short="${bench#Benchmark}"
    now=$(echo "${raw}" | awk -v b="${short}" 'index($1, b) {
        for (i = 2; i <= NF; i++) if ($i == "ns/op") print $(i-1)
    }' | head -1)
    now_allocs=$(echo "${raw}" | awk -v b="${short}" 'index($1, b) {
        for (i = 2; i <= NF; i++) if ($i == "allocs/op") print $(i-1)
    }' | head -1)
    if [ -z "${now}" ]; then
        echo "bench_guard: ${bench} produced no ns/op line"
        fail=1
        continue
    fi
    echo "bench_guard: ${bench} now ${now} ns/op, baseline (BENCH_${latest}.json) ${base} ns/op"
    if ! awk -v now="${now}" -v base="${base}" -v f="${GUARD_FACTOR}" 'BEGIN {
        if (now > base * f) {
            printf "bench_guard: FAIL — %.0f ns/op is more than %sx the %.0f ns/op baseline\n", now, f, base
            exit 1
        }
        printf "bench_guard: OK (%.2fx of baseline)\n", now / base
    }'; then
        fail=1
    fi
    # The allocation gate; a zero baseline counts as one allocation.
    if [ -n "${base_allocs}" ] && [ -n "${now_allocs}" ]; then
        echo "bench_guard: ${bench} now ${now_allocs} allocs/op, baseline ${base_allocs} allocs/op"
        if ! awk -v now="${now_allocs}" -v base="${base_allocs}" -v f="${GUARD_FACTOR}" 'BEGIN {
            if (base < 1) base = 1
            if (now > base * f) {
                printf "bench_guard: FAIL — %.0f allocs/op is more than %sx the %.0f allocs/op baseline\n", now, f, base
                exit 1
            }
            printf "bench_guard: OK (%.2fx of baseline allocs)\n", now / base
        }'; then
            fail=1
        fi
    fi
done <<EOF
${GUARDED}
EOF

# Relative gate: the large-delta round (BenchmarkSQLIncrementalRound/bulk, a
# quarter of pending retired and re-admitted per round) must stay at least
# SPEEDUP_MIN times faster than the cold round. It runs the same per-tuple
# delta rules as a trickle round and measures ~0.19-0.24 ms against a
# 3.6-5.2 ms cold round on a 2-core box with the plan rewrites (0.38 ms and
# 5.6 ms without them), 19-24x. A large delta that fell back to re-evaluating
# Listing 1 reads ~1x and fails here; a wholesale recompute of every affected
# node (1.4-1.6 ms and 3,791 allocs, ~5x) passes here but fails the absolute
# guard above against BENCH_25.json (0.21 ms, 484 allocs).
SPEEDUP_MIN="${SPEEDUP_MIN:-2}"
raw=$(go test -run='^$' -bench='^BenchmarkSQLIncrementalRound$/^(cold|bulk)$' -benchmem -benchtime="${BENCHTIME:-1s}" .)
echo "${raw}"
cold_ns=$(echo "${raw}" | awk '/SQLIncrementalRound\/cold/ {
    for (i = 2; i <= NF; i++) if ($i == "ns/op") print $(i-1)
}' | head -1)
bulk_ns=$(echo "${raw}" | awk '/SQLIncrementalRound\/bulk/ {
    for (i = 2; i <= NF; i++) if ($i == "ns/op") print $(i-1)
}' | head -1)
if [ -z "${cold_ns}" ] || [ -z "${bulk_ns}" ]; then
    echo "bench_guard: bulk speedup gate produced no cold/bulk ns/op lines"
    fail=1
elif ! awk -v cold="${cold_ns}" -v bulk="${bulk_ns}" -v m="${SPEEDUP_MIN}" 'BEGIN {
    if (bulk * m > cold) {
        printf "bench_guard: FAIL — bulk round %.0f ns/op is not %sx faster than cold %.0f ns/op (%.2fx)\n", bulk, m, cold, cold / bulk
        exit 1
    }
    printf "bench_guard: OK — bulk round %.2fx faster than cold (gate %sx)\n", cold / bulk, m
}'; then
    fail=1
fi

exit "${fail}"

#!/usr/bin/env bash
# smoke.sh — build every binary under cmd/ and examples/ and run each one
# briefly with tiny workloads, so the entrypoints (which have no test files)
# cannot silently rot: flag parsing, wiring and a minimal end-to-end pass are
# exercised on every CI run.
set -euo pipefail
cd "$(dirname "$0")/.."

bin="$(mktemp -d)"
trap 'rm -rf "${bin}"' EXIT

echo "smoke: building cmd/* and examples/*"
for d in cmd/* examples/*; do
    [ -d "${d}" ] || continue
    go build -o "${bin}/$(basename "${d}")" "./${d}"
done

run() {
    echo "smoke: $*"
    # Per-binary watchdog: a wedged entrypoint fails the job with exit 124
    # instead of hanging it. The closed-loop demos are wall-clock bound on
    # slow single-core boxes, so the default is generous.
    timeout "${SMOKE_TIMEOUT:-300}" "$@" > /dev/null
}

# declsched: a tiny closed-loop workload under each backend, plus the SQL
# backend, whose first round builds the view cache and whose later rounds
# maintain it, under the serializability check on one shard and on four.
run "${bin}/declsched" -clients 4 -txns 2 -reads 2 -writes 2 -objects 64 -check
run "${bin}/declsched" -protocol ss2pl-sql -clients 4 -txns 2 -reads 2 -writes 2 -objects 64 -check
run "${bin}/declsched" -protocol ss2pl-sql -partitions 4 -clients 4 -txns 2 -reads 2 -writes 2 -objects 64 -check
run "${bin}/declsched" -protocol fcfs -clients 2 -txns 1 -reads 1 -writes 1 -objects 16
# The partitioned round loop: sharded scheduler over a hot-key workload, with
# the merged-log serializability check on — once on the static slot table and
# once with the online rebalancer moving hot slots mid-run.
run "${bin}/declsched" -partitions 4 -clients 4 -txns 2 -reads 2 -writes 2 -objects 64 -hotkeys 8 -check
run "${bin}/declsched" -partitions 4 -rebalance 1.1 -rebalance-every 2 -clients 4 -txns 2 -reads 2 -writes 2 -objects 64 -hotkeys 8 -check

# dlrun: a two-fact Datalog program, and Listing 1 shaped mini-SQL.
prog="${bin}/prog.dl"
cat > "${prog}" <<'EOF'
qualified(ID, TA, I, OP, OBJ) :- request(ID, TA, I, OP, OBJ).
EOF
reqs="${bin}/requests.csv"
cat > "${reqs}" <<'EOF'
id:int,ta:int,intrata:int,operation:string,object:int
1,1,0,r,7
EOF
hist="${bin}/history.csv"
cat > "${hist}" <<'EOF'
id:int,ta:int,intrata:int,operation:string,object:int
EOF
run "${bin}/dlrun" -rel "request=${reqs}" -rel "history=${hist}" "${prog}"
sql="${bin}/q.sql"
echo "SELECT r.id, r.ta FROM requests r ORDER BY id" > "${sql}"
run "${bin}/dlrun" -sql -rel "requests=${reqs}" "${sql}"

# experiments: the static tables are instant; the timed harnesses are covered
# by the benchmarks. The partition-skew sweep runs at toy scale so the
# static-vs-rebalanced slot-table paths (migration between super-rounds
# included) are exercised end to end on every CI run.
run "${bin}/experiments" -run table1
run "${bin}/experiments" -run table2
run "${bin}/experiments" -run partitionskew -clients 8

# schedserver + netproto client: bring the network front end up (pipelined
# rounds by default, then the -sync serialized loop), drive it over the wire
# — a transaction end to end plus the STATS probe — and stop it with the
# signal it handles (SIGINT).
netproto_pair() {
    port="$1"; shift
    echo "smoke: schedserver $* (netproto pair on :${port})"
    "${bin}/schedserver" -addr "127.0.0.1:${port}" -rows 64 "$@" > /dev/null &
    srv=$!
    # Wait for the listener, then run one write+commit transaction and a
    # STATS probe through bash's /dev/tcp client.
    ok=""
    for _ in $(seq 1 50); do
        if exec 3<>"/dev/tcp/127.0.0.1/${port}" 2>/dev/null; then
            ok=1
            break
        fi
        sleep 0.1
    done
    if [ -z "${ok}" ]; then
        echo "smoke: schedserver did not come up on :${port}"
        kill -9 "${srv}" 2>/dev/null || true
        exit 1
    fi
    printf 'PING\nREQ 7 0 w 5\nREQ 7 1 c -1\nSTATS\nQUIT\n' >&3
    # Watchdog on every blocking step: a wedged scheduler (the very path this
    # smoke guards) must fail the job fast, not hang it.
    pong=""; w=""; c=""; stats=""
    read -t 30 -r pong <&3 && read -t 30 -r w <&3 && read -t 30 -r c <&3 && read -t 30 -r stats <&3 || true
    exec 3<&- 3>&-
    case "${pong}/${w}/${c}/${stats}" in
        PONG/"OK 1"/"OK 0"/STATS\ *) ;;
        *)
            echo "smoke: netproto replies wrong or timed out: '${pong}' '${w}' '${c}' '${stats}'"
            kill -9 "${srv}" 2>/dev/null || true
            exit 1
            ;;
    esac
    kill -INT "${srv}"
    for _ in $(seq 1 100); do
        kill -0 "${srv}" 2>/dev/null || break
        sleep 0.1
    done
    if kill -0 "${srv}" 2>/dev/null; then
        echo "smoke: schedserver wedged in shutdown; killing"
        kill -9 "${srv}" 2>/dev/null || true
        exit 1
    fi
    wait "${srv}" || {
        status=$?
        echo "smoke: schedserver exited ${status}"
        exit "${status}"
    }
}
netproto_pair 7997
netproto_pair 7998 -sync
netproto_pair 7999 -partitions 4

# Durability: commit one transaction over the wire, leave a second one
# uncommitted, kill -9 the server (no clean shutdown), restart it on the
# same directory and verify recovery kept exactly the committed prefix.
durable_pair() {
    port="$1"
    dur="${bin}/durdata"
    echo "smoke: schedserver -durable crash/recover pair on :${port}"
    "${bin}/schedserver" -addr "127.0.0.1:${port}" -rows 64 -durable -dir "${dur}" > /dev/null &
    srv=$!
    ok=""
    for _ in $(seq 1 50); do
        if exec 3<>"/dev/tcp/127.0.0.1/${port}" 2>/dev/null; then
            ok=1
            break
        fi
        sleep 0.1
    done
    if [ -z "${ok}" ]; then
        echo "smoke: durable schedserver did not come up on :${port}"
        kill -9 "${srv}" 2>/dev/null || true
        exit 1
    fi
    # ta7 commits its write of row 5; ta8's write of row 6 never commits.
    printf 'REQ 7 0 w 5\nREQ 7 1 c -1\nREQ 8 0 w 6\n' >&3
    w=""; c=""; u=""
    read -t 30 -r w <&3 && read -t 30 -r c <&3 && read -t 30 -r u <&3 || true
    exec 3<&- 3>&-
    case "${w}/${c}/${u}" in
        "OK 1"/"OK 0"/"OK 1") ;;
        *)
            echo "smoke: durable phase-1 replies wrong: '${w}' '${c}' '${u}'"
            kill -9 "${srv}" 2>/dev/null || true
            exit 1
            ;;
    esac
    kill -9 "${srv}"
    wait "${srv}" 2>/dev/null || true

    "${bin}/schedserver" -addr "127.0.0.1:${port}" -rows 64 -durable -dir "${dur}" > /dev/null &
    srv=$!
    ok=""
    for _ in $(seq 1 50); do
        if exec 3<>"/dev/tcp/127.0.0.1/${port}" 2>/dev/null; then
            ok=1
            break
        fi
        sleep 0.1
    done
    if [ -z "${ok}" ]; then
        echo "smoke: recovered schedserver did not come up on :${port}"
        kill -9 "${srv}" 2>/dev/null || true
        exit 1
    fi
    printf 'REQ 9 0 r 5\nREQ 9 1 r 6\nQUIT\n' >&3
    r5=""; r6=""
    read -t 30 -r r5 <&3 && read -t 30 -r r6 <&3 || true
    exec 3<&- 3>&-
    case "${r5}/${r6}" in
        "OK 1"/"OK 0") ;;
        *)
            echo "smoke: recovery check failed: committed row read '${r5}' (want OK 1), uncommitted row read '${r6}' (want OK 0)"
            kill -9 "${srv}" 2>/dev/null || true
            exit 1
            ;;
    esac
    kill -INT "${srv}"
    for _ in $(seq 1 100); do
        kill -0 "${srv}" 2>/dev/null || break
        sleep 0.1
    done
    kill -9 "${srv}" 2>/dev/null || true
    wait "${srv}" 2>/dev/null || true
}
durable_pair 7996

# Graceful drain: SIGTERM must stop admission (SHUTTING_DOWN to new
# transactions) while admitted work runs to termination, then exit 0 with the
# journal covering everything acknowledged — the clean-shutdown counterpart
# of durable_pair's kill -9.
drain_pair() {
    port="$1"
    dur="${bin}/draindata"
    echo "smoke: schedserver graceful-drain pair on :${port}"
    # -starve-after -1: the blocked transaction below must stay blocked (not
    # be starvation-aborted) so the drain deterministically stays open.
    "${bin}/schedserver" -addr "127.0.0.1:${port}" -rows 64 -durable -dir "${dur}" -drain-timeout 15s -starve-after -1 > /dev/null &
    srv=$!
    ok=""
    for _ in $(seq 1 50); do
        if exec 3<>"/dev/tcp/127.0.0.1/${port}" 2>/dev/null; then
            ok=1
            break
        fi
        sleep 0.1
    done
    if [ -z "${ok}" ]; then
        echo "smoke: drain schedserver did not come up on :${port}"
        kill -9 "${srv}" 2>/dev/null || true
        exit 1
    fi
    # ta1 takes the write lock on row 5; ta2 blocks behind it on a second
    # connection — an admitted-but-unanswered transaction that keeps the
    # drain open.
    printf 'REQ 1 0 w 5\n' >&3
    w1=""
    read -t 30 -r w1 <&3 || true
    if [ "${w1}" != "OK 1" ]; then
        echo "smoke: drain phase-1 write replied '${w1}'"
        kill -9 "${srv}" 2>/dev/null || true
        exit 1
    fi
    exec 4<>"/dev/tcp/127.0.0.1/${port}"
    printf 'REQ 2 0 w 5\n' >&4
    sleep 0.5
    kill -TERM "${srv}"
    sleep 0.5
    # New transactions are rejected while draining; ta1's termination (an
    # admitted transaction's request) still goes through, unblocking ta2.
    printf 'REQ 3 0 w 6\nREQ 1 1 c -1\n' >&3
    rej=""; c1=""; w2=""
    read -t 30 -r rej <&3 && read -t 30 -r c1 <&3 || true
    read -t 30 -r w2 <&4 || true
    exec 3<&- 3>&- 4<&- 4>&-
    case "${rej}/${c1}/${w2}" in
        SHUTTING_DOWN/"OK 0"/"OK 2") ;;
        *)
            echo "smoke: drain replies wrong: new-txn '${rej}' (want SHUTTING_DOWN), commit '${c1}' (want OK 0), blocked write '${w2}' (want OK 2)"
            kill -9 "${srv}" 2>/dev/null || true
            exit 1
            ;;
    esac
    for _ in $(seq 1 200); do
        kill -0 "${srv}" 2>/dev/null || break
        sleep 0.1
    done
    if kill -0 "${srv}" 2>/dev/null; then
        echo "smoke: schedserver wedged in graceful drain; killing"
        kill -9 "${srv}" 2>/dev/null || true
        exit 1
    fi
    wait "${srv}" || {
        status=$?
        echo "smoke: schedserver exited ${status} from graceful drain"
        exit "${status}"
    }
    # Recovery after the clean exit: ta1's committed write survived, ta2's
    # executed-but-uncommitted write did not.
    "${bin}/schedserver" -addr "127.0.0.1:${port}" -rows 64 -durable -dir "${dur}" > /dev/null &
    srv=$!
    ok=""
    for _ in $(seq 1 50); do
        if exec 3<>"/dev/tcp/127.0.0.1/${port}" 2>/dev/null; then
            ok=1
            break
        fi
        sleep 0.1
    done
    if [ -z "${ok}" ]; then
        echo "smoke: post-drain schedserver did not come up on :${port}"
        kill -9 "${srv}" 2>/dev/null || true
        exit 1
    fi
    printf 'REQ 9 0 r 5\nQUIT\n' >&3
    r5=""
    read -t 30 -r r5 <&3 || true
    exec 3<&- 3>&-
    if [ "${r5}" != "OK 1" ]; then
        echo "smoke: post-drain recovery read '${r5}', want OK 1"
        kill -9 "${srv}" 2>/dev/null || true
        exit 1
    fi
    kill -INT "${srv}"
    for _ in $(seq 1 100); do
        kill -0 "${srv}" 2>/dev/null || break
        sleep 0.1
    done
    kill -9 "${srv}" 2>/dev/null || true
    wait "${srv}" 2>/dev/null || true
}
drain_pair 7995

# netload: the overload/fault harness at toy scale — in-process server, state
# audit on, one clean pass and one pass through the chaos proxy.
run "${bin}/netload" -clients 50 -conns 4 -txns 2 -objects 256 -deadline 60s
run "${bin}/netload" -clients 50 -conns 4 -txns 2 -objects 256 -deadline 60s -chaos -timeout 5s -retry 8

# netload against the built schedserver: the multiplexed dialect and the
# report's STATS scraper end to end over a real socket. It gets its own server
# because netload numbers transactions from 1, which would collide with the
# bash probe's finished ta7 above.
netload_pair() {
    port="$1"
    echo "smoke: schedserver + netload pair on :${port}"
    "${bin}/schedserver" -addr "127.0.0.1:${port}" -rows 64 > /dev/null &
    srv=$!
    ok=""
    for _ in $(seq 1 50); do
        if exec 3<>"/dev/tcp/127.0.0.1/${port}" 2>/dev/null; then
            exec 3<&- 3>&-
            ok=1
            break
        fi
        sleep 0.1
    done
    if [ -z "${ok}" ]; then
        echo "smoke: netload schedserver did not come up on :${port}"
        kill -9 "${srv}" 2>/dev/null || true
        exit 1
    fi
    report="${bin}/netload-pair.json"
    if ! timeout "${SMOKE_TIMEOUT:-300}" "${bin}/netload" -addr "127.0.0.1:${port}" \
        -clients 8 -conns 2 -txns 2 -objects 64 -deadline 30s > "${report}"; then
        echo "smoke: netload against schedserver failed"
        kill -9 "${srv}" 2>/dev/null || true
        exit 1
    fi
    if ! grep -q '"failed": 0,' "${report}" || ! grep -q '"server_stats": "[^"]' "${report}"; then
        echo "smoke: netload report has failures or no server stats:"
        cat "${report}"
        kill -9 "${srv}" 2>/dev/null || true
        exit 1
    fi
    kill -INT "${srv}"
    for _ in $(seq 1 100); do
        kill -0 "${srv}" 2>/dev/null || break
        sleep 0.1
    done
    if kill -0 "${srv}" 2>/dev/null; then
        echo "smoke: schedserver wedged in shutdown after netload; killing"
        kill -9 "${srv}" 2>/dev/null || true
        exit 1
    fi
    wait "${srv}" || {
        status=$?
        echo "smoke: schedserver exited ${status} after netload"
        exit "${status}"
    }
}
netload_pair 7994

# examples: each is a self-contained demo.
for ex in quickstart adaptive reservation slatiers; do
    run "${bin}/${ex}"
done

echo "smoke: OK"

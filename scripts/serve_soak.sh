#!/usr/bin/env bash
# Serve soak: process death across a real process boundary. A loadgen
# streams every app through a live apserve while this harness SIGKILLs
# the serving process mid-stream. The loadgen verifies every completed
# stream bit-identical against an uninterrupted local run, so each mode
# proves exactly-once report delivery across genuine process death — the
# in-process equivalents (Server.Abort) live in chaos_test.go.
#
#   restart   one node; it is SIGKILLed SERVE_SOAK_KILLS times and
#             restarted on the same checkpoint store each time. Clients
#             must retry and resume (>= 1 retry).
#   failover  node A replicates every committed checkpoint slot to
#             follower B (ack quorum 1, so reports release to clients
#             only once B holds the covering slot); A is SIGKILLed once
#             and never restarted. Clients must fail over to B and
#             resume from the replicated slots (>= 1 failover, 0 forced
#             restarts).
#
#   scripts/serve_soak.sh restart        # default app set (HM PEN TCP)
#   scripts/serve_soak.sh failover HM    # explicit app list (smoke: one app)
#
# Environment knobs:
#   SERVE_SOAK_PORT      node A listen port            (default 18425)
#   SERVE_SOAK_PORT_B    follower port, failover only  (default 18426)
#   SERVE_SOAK_DIVISOR   network scale divisor         (default 8)
#   SERVE_SOAK_INPUT     input length in symbols       (default 131072)
#   SERVE_SOAK_EVERY     checkpoint interval           (default 2048)
#   SERVE_SOAK_KILLS     SIGKILLs, restart only        (default 2)
#   SERVE_SOAK_STREAMS   verified streams per app      (default 2)
#   SERVE_SOAK_PACE      per-chunk stream pacing       (default 20ms)
#
# The stream phase must outlast the kill plan (restart: a kill 0.2s in and
# another 0.2s after each restart; failover: one kill 0.4s in): with the
# loadgen's 4096-byte chunks a stream takes (INPUT/4096)*PACE plus its
# checkpoint saves, and nothing else — at 10ms the default restart plan
# used to land its second kill only because 64 saves took long enough —
# so keep that product comfortably above the plan when overriding INPUT
# or PACE.
set -euo pipefail
cd "$(dirname "$0")/.."

mode=${1:-}
case "$mode" in
restart) kill_delay=0.2 ;;
failover) kill_delay=0.4 ;;
*)
    echo "usage: scripts/serve_soak.sh restart|failover [apps...]" >&2
    exit 2
    ;;
esac
shift

port=${SERVE_SOAK_PORT:-18425}
port_b=${SERVE_SOAK_PORT_B:-18426}
divisor=${SERVE_SOAK_DIVISOR:-8}
input=${SERVE_SOAK_INPUT:-131072}
every=${SERVE_SOAK_EVERY:-2048}
kills=${SERVE_SOAK_KILLS:-2}
[[ $mode == failover ]] && kills=1 # A dies once and stays dead
streams=${SERVE_SOAK_STREAMS:-2}
pace=${SERVE_SOAK_PACE:-20ms}
apps=("$@")
[[ ${#apps[@]} -eq 0 ]] && apps=(HM PEN TCP)
applist=$(IFS=,; echo "${apps[*]}")
url="http://127.0.0.1:$port"
url_b="http://127.0.0.1:$port_b"
tag="serve_soak $mode"

work=$(mktemp -d)
pid_a=""
pid_b=""
loadgen_pid=""
cleanup() {
    [[ -n "$pid_a" ]] && kill -9 "$pid_a" 2>/dev/null || true
    [[ -n "$pid_b" ]] && kill -9 "$pid_b" 2>/dev/null || true
    [[ -n "$loadgen_pid" ]] && kill "$loadgen_pid" 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

apserve="$work/apserve"
go build -o "$apserve" ./cmd/apserve

# The loadgen rebuilds each app locally to verify streams, so the scale
# flags must be identical on every node and the loadgen.
common=(-apps "$applist" -divisor "$divisor" -input "$input")

wait_ready() { # url pid log label
    for _ in $(seq 100); do
        if curl -fsS -o /dev/null "$1/healthz" 2>/dev/null; then
            return 0
        fi
        if ! kill -0 "$2" 2>/dev/null; then
            echo "$tag: node $4 died during startup:" >&2
            tail -5 "$3" >&2
            exit 1
        fi
        sleep 0.1
    done
    echo "$tag: node $4 never became ready on $1" >&2
    exit 1
}

# start_a launches node A with any extra flags and waits for it.
start_a() {
    "$apserve" "${common[@]}" -addr "127.0.0.1:$port" \
        -store "$work/store_a" -every "$every" "$@" >>"$work/server_a.log" 2>&1 &
    pid_a=$!
    disown "$pid_a" # keep job control quiet about the SIGKILLs
    wait_ready "$url" "$pid_a" "$work/server_a.log" A
}

kill_a() {
    kill -9 "$pid_a" 2>/dev/null || true
    wait "$pid_a" 2>/dev/null || true
    pid_a=""
}

loadgen_peers=()
if [[ $mode == failover ]]; then
    # Follower first: A's first replicated save must find B listening.
    "$apserve" "${common[@]}" -addr "127.0.0.1:$port_b" \
        -store "$work/store_b" -every "$every" >>"$work/server_b.log" 2>&1 &
    pid_b=$!
    disown "$pid_b"
    wait_ready "$url_b" "$pid_b" "$work/server_b.log" B
    start_a -peers "$url_b" -replicas "$url_b" -ack 1
    loadgen_peers=(-peers "$url_b")
else
    start_a
fi

# The streams are paced, so they stay in flight long enough for every
# SIGKILL below to land mid-stream.
"$apserve" -loadgen -url "$url" ${loadgen_peers[@]+"${loadgen_peers[@]}"} "${common[@]}" \
    -streams "$streams" -pace "$pace" \
    >"$work/loadgen.log" 2>&1 &
loadgen_pid=$!

delivered=0
sleep "$kill_delay"
if [[ $mode == failover ]]; then
    if kill -0 "$loadgen_pid" 2>/dev/null; then
        kill_a # A stays dead: survival must come from B's replicated slots
        delivered=1
    fi
else
    for (( k = 0; k < kills; k++ )); do
        if ! kill -0 "$loadgen_pid" 2>/dev/null; then
            break # loadgen finished before the full kill plan fired
        fi
        kill_a
        delivered=$((delivered + 1))
        start_a
        sleep "$kill_delay"
    done
fi

status=0
wait "$loadgen_pid" || status=$?
loadgen_pid=""
if (( status != 0 )); then
    echo "$tag: loadgen failed (exit $status):" >&2
    tail -20 "$work/loadgen.log" >&2
    exit 1
fi
if (( delivered < kills )); then
    echo "$tag: only $delivered/$kills kills landed before the loadgen finished" >&2
    echo "$tag: raise SERVE_SOAK_PACE or SERVE_SOAK_INPUT" >&2
    exit 1
fi

# The loadgen prints "... (N resumes, M retries, K sheds, F failovers,
# R restarts)".
count() { grep -o "[0-9]* $1" "$work/loadgen.log" | head -1 | cut -d' ' -f1 || true; }
fail() {
    echo "$tag: $1:" >&2
    cat "$work/loadgen.log" >&2
    exit 1
}
if [[ $mode == failover ]]; then
    # Losing A mid-stream must force failovers, and the replicated slots
    # must make every one a seamless resume (no restarts).
    failovers=$(count failovers)
    restarts=$(count restarts)
    [[ -n "$failovers" && "$failovers" -ne 0 ]] || fail "node A was killed but no client ever failed over"
    [[ -n "$restarts" && "$restarts" -eq 0 ]] || fail "$restarts forced restarts — replication failed to carry the sessions"
    verdict="node A SIGKILLed, $failovers failovers, 0 restarts"
else
    # A kill that truly interrupted live streams forces at least one
    # reconnect.
    retries=$(count retries)
    [[ -n "$retries" && "$retries" -ne 0 ]] || fail "$delivered kills landed but no client ever retried"
    verdict="$delivered kills, $retries retries"
fi

grep 'streams verified' "$work/loadgen.log"
echo "$tag: apps=$applist: $verdict, streams identical"

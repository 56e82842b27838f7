#!/usr/bin/env sh
# End-to-end smoke test for the checker service (DESIGN.md §12): boot
# cmd/server over a fresh store, drive the REST API with curl — submit
# an exhaustive unicons check, the same check under full reduction and
# a violating lockcounter soak, poll them to their terminal states,
# fetch a repro bundle by content key — then SIGTERM the server and
# require a clean graceful shutdown.
#
# Tunables (env): PORT, SOAK_RUNS.
set -eu

PORT=${PORT:-18080}
SOAK_RUNS=${SOAK_RUNS:-60}
BASE="http://127.0.0.1:$PORT"

work=$(mktemp -d)
server_pid=""
cleanup() {
    [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

echo "server-smoke: building cmd/server"
go build -o "$work/server" ./cmd/server

echo "server-smoke: starting on $BASE (store $work/farm)"
"$work/server" -addr "127.0.0.1:$PORT" -store "$work/farm" >"$work/server.log" 2>&1 &
server_pid=$!

i=0
until curl -fs "$BASE/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "server-smoke: FAIL: server never became healthy" >&2
        cat "$work/server.log" >&2
        exit 1
    fi
    sleep 0.1
done

# jget FILE KEY: pull a scalar out of the server's indented JSON.
jget() {
    sed -n 's/.*"'"$2"'": *"\{0,1\}\([^",}]*\)"\{0,1\}.*/\1/p' "$1" | head -n 1
}

# poll_terminal ID: poll GET /jobs/ID until the state is terminal.
poll_terminal() {
    j=0
    while :; do
        curl -fs "$BASE/jobs/$1" >"$work/status.json"
        state=$(jget "$work/status.json" state)
        case $state in
        done | failed | cancelled | error) printf '%s' "$state"; return 0 ;;
        esac
        j=$((j + 1))
        if [ "$j" -gt 600 ]; then
            echo "server-smoke: FAIL: job $1 stuck in state $state" >&2
            cat "$work/status.json" >&2
            exit 1
        fi
        sleep 0.1
    done
}

echo "server-smoke: submitting exhaustive unicons check (N=2, Q=8)"
curl -fs -X POST "$BASE/jobs" -d '{
  "kind": "check",
  "check": {
    "meta": {"workload": "unicons", "n": 2, "v": 1, "quantum": 8, "max_steps": 262144},
    "mode": "all"
  }
}' >"$work/submit1.json"
check_id=$(jget "$work/submit1.json" id)
[ -n "$check_id" ] || { echo "server-smoke: FAIL: no job id in $(cat "$work/submit1.json")" >&2; exit 1; }

echo "server-smoke: submitting the same check under full reduction"
curl -fs -X POST "$BASE/jobs" -d '{
  "kind": "check",
  "check": {
    "meta": {"workload": "unicons", "n": 2, "v": 1, "quantum": 8, "max_steps": 262144},
    "mode": "all", "reduction": "full"
  }
}' >"$work/submit3.json"
reduced_id=$(jget "$work/submit3.json" id)
[ -n "$reduced_id" ] || { echo "server-smoke: FAIL: no job id in $(cat "$work/submit3.json")" >&2; exit 1; }

echo "server-smoke: submitting lockcounter soak ($SOAK_RUNS runs under a wait-free bound)"
curl -fs -X POST "$BASE/jobs" -d '{
  "kind": "soak",
  "soak": {
    "workload": "lockcounter", "n": 2, "v": 2, "quantum": 4, "waitfree_bound": 60,
    "runs": '"$SOAK_RUNS"', "seed": 7, "keep_going": true
  }
}' >"$work/submit2.json"
soak_id=$(jget "$work/submit2.json" id)
[ -n "$soak_id" ] || { echo "server-smoke: FAIL: no job id in $(cat "$work/submit2.json")" >&2; exit 1; }

state=$(poll_terminal "$check_id")
schedules=$(jget "$work/status.json" schedules)
if [ "$state" != "done" ] || [ "$schedules" != "114" ]; then
    echo "server-smoke: FAIL: unicons check ended $state with $schedules schedules (want done/114)" >&2
    cat "$work/status.json" >&2
    exit 1
fi
echo "server-smoke: check $check_id done (114 schedules, clean)"

state=$(poll_terminal "$reduced_id")
if [ "$state" != "done" ]; then
    echo "server-smoke: FAIL: reduced unicons check ended $state (want done)" >&2
    cat "$work/status.json" >&2
    exit 1
fi
echo "server-smoke: reduced check $reduced_id done ($(jget "$work/status.json" schedules) schedules, clean)"

state=$(poll_terminal "$soak_id")
if [ "$state" != "failed" ]; then
    echo "server-smoke: FAIL: lockcounter soak ended $state (want failed: the bound must be violated)" >&2
    cat "$work/status.json" >&2
    exit 1
fi
key=$(grep -o '[0-9a-f]\{64\}' "$work/status.json" | head -n 1)
[ -n "$key" ] || { echo "server-smoke: FAIL: failed soak reported no artifact keys" >&2; exit 1; }
echo "server-smoke: soak $soak_id failed as expected; fetching bundle $key"

curl -fs "$BASE/artifacts/$key" >"$work/bundle.json"
if ! grep -q '"workload":"lockcounter"' "$work/bundle.json"; then
    echo "server-smoke: FAIL: fetched bundle is not a lockcounter repro" >&2
    head -c 400 "$work/bundle.json" >&2
    exit 1
fi

echo "server-smoke: SIGTERM, expecting graceful shutdown"
kill -TERM "$server_pid"
if ! wait "$server_pid"; then
    echo "server-smoke: FAIL: server exited nonzero on SIGTERM" >&2
    cat "$work/server.log" >&2
    exit 1
fi
server_pid=""
if ! grep -q 'graceful shutdown complete' "$work/server.log"; then
    echo "server-smoke: FAIL: no graceful-shutdown log line" >&2
    cat "$work/server.log" >&2
    exit 1
fi

echo "server-smoke: PASS: submit, schedule, persist, fetch, and graceful shutdown all verified"

#!/usr/bin/env sh
# Kill-resume smoke test for the durable campaign runner (DESIGN.md §11):
# start a durable soak, SIGKILL it mid-campaign (no graceful shutdown, no
# final checkpoint — the journal tail is whatever the crash left), resume
# from the state directory, and assert the resumed campaign's final
# summary is identical to an uninterrupted run of the same seeds.
#
# Tunables (env): RUNS (campaign length), SEED, KILL_AFTER (seconds
# before the SIGKILL), PARALLEL.
set -eu

RUNS=${RUNS:-60000}
SEED=${SEED:-1}
KILL_AFTER=${KILL_AFTER:-2}
PARALLEL=${PARALLEL:-2}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

echo "soak-resume-smoke: building cmd/soak"
go build -o "$work/soak" ./cmd/soak

echo "soak-resume-smoke: uninterrupted baseline (-runs $RUNS -seed $SEED)"
"$work/soak" -runs "$RUNS" -seed "$SEED" -parallel "$PARALLEL" >"$work/base.log"
base=$(tail -n 1 "$work/base.log")

echo "soak-resume-smoke: durable leg, SIGKILL after ${KILL_AFTER}s"
"$work/soak" -runs "$RUNS" -seed "$SEED" -parallel "$PARALLEL" \
    -state-dir "$work/state" -checkpoint-every 64 >"$work/leg1.log" 2>&1 &
pid=$!
sleep "$KILL_AFTER"
if ! kill -9 "$pid" 2>/dev/null; then
    echo "soak-resume-smoke: FAIL: campaign finished before the kill; raise RUNS or lower KILL_AFTER" >&2
    exit 1
fi
wait "$pid" 2>/dev/null || true
if grep -q '"runs"' "$work/leg1.log"; then
    echo "soak-resume-smoke: FAIL: first leg printed a summary — it completed before the kill" >&2
    exit 1
fi
echo "soak-resume-smoke: killed; resuming from $work/state"

"$work/soak" -resume "$work/state" -runs "$RUNS" -parallel "$PARALLEL" >"$work/resume.log"
resumed=$(tail -n 1 "$work/resume.log")
# The resume summary carries an extra "resumed" count; everything else —
# run totals, violations, crashes, timeouts, verdict — must match the
# uninterrupted baseline byte for byte.
normalized=$(printf '%s\n' "$resumed" | sed 's/,"resumed":[0-9]*//')

if [ "$normalized" != "$base" ]; then
    echo "soak-resume-smoke: FAIL: resumed summary diverges from uninterrupted run" >&2
    echo "  uninterrupted: $base" >&2
    echo "  resumed:       $resumed" >&2
    exit 1
fi
case $resumed in
*'"resumed":'*) ;;
*)
    echo "soak-resume-smoke: FAIL: resume leg did not report a resume: $resumed" >&2
    exit 1
    ;;
esac

echo "soak-resume-smoke: PASS: resumed campaign converged to the uninterrupted summary"
echo "  $base"

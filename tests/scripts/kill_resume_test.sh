#!/bin/sh
# Kill-and-resume smoke test for the supervised sweep runner.
#
# Runs a small sweep to completion to obtain reference output, then
# runs the same sweep again, SIGKILLs the runner (and its child) midway
# through, re-runs the same command, and asserts the merged sweep.csv
# is byte-identical to the uninterrupted run. A SIGKILL leaves the
# killed worker's lease behind, so the re-run also drives the
# stale-lease seizure (after the lease TTL). This is the end-to-end
# guarantee behind every robustness feature in the simulator: a run
# that dies at an arbitrary point can always be completed without
# changing a single measured number.
#
# Usage: kill_resume_test.sh <texdist_sim> <sweep_runner> <workdir>
set -u

SIM=$1
RUNNER=$2
WORK=$3

fail() {
    echo "FAIL: $*" >&2
    exit 1
}

rm -rf "$WORK"
mkdir -p "$WORK" || fail "cannot create $WORK"

CONFIGS="$WORK/sweep.cfg"
cat > "$CONFIGS" <<'EOF'
# Three distributions over the same scene; enough frames that a
# SIGKILL lands mid-sweep, few enough that the test stays fast.
block8:  --dist=block --param=8
block16: --dist=block --param=16
sli2:    --dist=sli --param=2
EOF

COMMON="--scene=quake --scale=0.25 --procs=4 --frames=100"

# --- Reference: uninterrupted sweep. --------------------------------
"$RUNNER" --sim="$SIM" --configs="$CONFIGS" --out="$WORK/ref" \
    -- $COMMON \
    || fail "reference sweep exited nonzero"
[ -f "$WORK/ref/sweep.csv" ] || fail "reference sweep.csv missing"

# --- Interrupted sweep: SIGKILL midway, then resume. ----------------
"$RUNNER" --sim="$SIM" --configs="$CONFIGS" --out="$WORK/kill" \
    -- $COMMON &
RUNNER_PID=$!

# Wait until the first config has completed (its result CSV exists),
# so the kill interrupts a sweep that has real partial progress.
TRIES=0
while [ ! -f "$WORK/kill/block8.csv" ]; do
    kill -0 "$RUNNER_PID" 2>/dev/null || break
    TRIES=$((TRIES + 1))
    [ "$TRIES" -gt 600 ] && break
    sleep 0.1
done

if kill -0 "$RUNNER_PID" 2>/dev/null; then
    # SIGKILL: no handlers run, no cleanup — the hard-crash case.
    kill -9 "$RUNNER_PID" 2>/dev/null
    wait "$RUNNER_PID" 2>/dev/null
    # The orphaned child simulator (if any) must not keep writing
    # into the output directory while the resumed sweep runs. Match
    # the exact child invocation so nothing else can be caught.
    pkill -9 -f "^$SIM .*--result-csv=$WORK/kill/" 2>/dev/null
    sleep 0.2
else
    # The sweep finished before we could kill it; the resume below
    # then just verifies the no-work-left path, which is still a
    # valid (if weaker) pass.
    wait "$RUNNER_PID" 2>/dev/null
    echo "note: sweep finished before SIGKILL; resume is a no-op"
fi

# A done marker is written only after its result CSV, and the merge
# only after every config is done.
for done in "$WORK"/kill/queue/*.done; do
    [ -e "$done" ] || continue
    name=$(basename "$done" .done)
    [ -f "$WORK/kill/$name.csv" ] \
        || fail "$name is marked done without its result CSV"
done
if [ -f "$WORK/kill/sweep.csv" ]; then
    for name in block8 block16 sli2; do
        [ -f "$WORK/kill/queue/$name.done" ] \
            || fail "merged CSV exists but $name has no done marker"
    done
fi

# The killed worker held a lease: the re-run must seize it once the
# lease TTL runs out.
STALE=$(ls "$WORK/kill/queue" | grep "\.lease$" || true)

"$RUNNER" --sim="$SIM" --configs="$CONFIGS" --out="$WORK/kill" \
    --worker-id=rerun -- $COMMON > "$WORK/rerun.log" 2>&1 \
    || fail "resumed sweep exited nonzero: $(cat "$WORK/rerun.log")"
if [ -n "$STALE" ]; then
    grep -q "seized stale lease" "$WORK/rerun.log" \
        || fail "the re-run did not seize the stale lease $STALE"
fi

# Store misses count configs, not the poll rounds spent waiting out
# the stale lease: at most one per config.
MISSES=$(python3 -c '
import json, sys
print(json.load(open(sys.argv[1]))["store_misses"])
' "$WORK/kill/fabric_stats.rerun.json") \
    || fail "the re-run wrote no readable fabric stats"
[ "$MISSES" -le 3 ] \
    || fail "the re-run reported $MISSES store misses for 3 configs"

[ -f "$WORK/kill/sweep.csv" ] || fail "resumed sweep.csv missing"

cmp "$WORK/ref/sweep.csv" "$WORK/kill/sweep.csv" \
    || fail "resumed sweep.csv differs from uninterrupted run"

echo "PASS: resumed sweep output is byte-identical"
exit 0

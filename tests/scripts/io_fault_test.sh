#!/bin/sh
# Injected filesystem faults, end to end.
#
# Two documented failure schedules run against the real binaries:
#
#   1. ENOSPC mid-checkpoint: the disk fills while the second
#      checkpoint is being staged. The run must die with the typed
#      I/O exit code (14), leave no scratch file and no torn
#      checkpoint — the previously published checkpoint survives
#      whole — and a --restore run from that survivor must succeed.
#
#   2. rename-fail mid-store-publication: the publishing rename of
#      the first store entry fails. The sweep must die with exit 14,
#      the store must hold no partial entry (--fsck clean), the
#      worker must have released its lease, and a re-run over the
#      surviving state must complete.
#
# Usage: io_fault_test.sh <texdist_sim> <sweep_runner> <workdir>
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

SCENE="--scene=quake --scale=0.25 --procs=4 --frames=6"

# --- 1. ENOSPC during a checkpoint write ----------------------------

# Clean run first: measures how big a checkpoint actually is, so the
# byte budget below admits exactly one checkpoint and fails the next.
mkdir -p "$WORK/clean"
"$SIM" $SCENE --checkpoint-every=2 \
    --checkpoint-file="$WORK/clean/c.ckpt" \
    > /dev/null 2>&1 || fail "clean checkpointed run exited nonzero"
[ -f "$WORK/clean/c.ckpt" ] || fail "clean run published no checkpoint"
SIZE=$(wc -c < "$WORK/clean/c.ckpt")
BUDGET=$((SIZE + SIZE / 2))

mkdir -p "$WORK/fault"
ERR="$WORK/fault/stderr.txt"
"$SIM" $SCENE --checkpoint-every=2 \
    --checkpoint-file="$WORK/fault/c.ckpt" \
    --io-fault=enospc:.ckpt,after=$BUDGET \
    > /dev/null 2> "$ERR"
CODE=$?
[ "$CODE" -eq 14 ] \
    || fail "ENOSPC run exited $CODE, want 14: $(cat "$ERR")"
grep -q "io-fault: enospc" "$ERR" \
    || fail "no deterministic enospc strike line in: $(cat "$ERR")"
grep -q "fatal: io error" "$ERR" \
    || fail "no typed io error diagnostic in: $(cat "$ERR")"

# Rollback: no scratch file may survive the failed publication.
LEFTOVER=$(ls "$WORK/fault" | grep "\.tmp\." || true)
[ -z "$LEFTOVER" ] || fail "scratch files survived ENOSPC: $LEFTOVER"

# The first checkpoint published before the disk filled is intact:
# a --restore run from it completes cleanly.
[ -f "$WORK/fault/c.ckpt" ] \
    || fail "surviving checkpoint missing after ENOSPC"
"$SIM" $SCENE --restore="$WORK/fault/c.ckpt" > /dev/null 2>&1 \
    || fail "--restore from the surviving checkpoint failed"

# --- 2. rename-fail during store publication ------------------------

CONFIGS="$WORK/sweep.cfg"
cat > "$CONFIGS" <<'EOF'
block8:  --dist=block --param=8
sli2:    --dist=sli --param=2
EOF
COMMON="--scene=quake --scale=0.25 --procs=4 --frames=2"

ERR="$WORK/store_stderr.txt"
"$RUNNER" --sim="$SIM" --configs="$CONFIGS" --out="$WORK/s1" \
    --store="$WORK/store" --io-fault=rename-fail:store,nth=1 \
    -- $COMMON > /dev/null 2> "$ERR"
CODE=$?
[ "$CODE" -eq 14 ] \
    || fail "rename-fail sweep exited $CODE, want 14: $(cat "$ERR")"
grep -q "io-fault: rename-fail" "$ERR" \
    || fail "no deterministic rename strike line in: $(cat "$ERR")"

# No partial entry: nothing but whole .res entries in the store, and
# fsck agrees it is clean.
LEFTOVER=$(ls "$WORK/store" | grep -v "\.res$" || true)
[ -z "$LEFTOVER" ] || fail "partial store artifacts: $LEFTOVER"
"$RUNNER" --fsck --store="$WORK/store" > "$WORK/fsck.txt" 2>&1 \
    || fail "fsck found damage after failed publication"
grep -q " 0 quarantined" "$WORK/fsck.txt" \
    || fail "fsck quarantined entries: $(cat "$WORK/fsck.txt")"

# The typed I/O exit is a graceful stop: the worker released its
# lease, so the re-run below need not wait out the lease TTL.
LEFTOVER=$(ls "$WORK/s1/queue" | grep "\.lease$" || true)
[ -z "$LEFTOVER" ] || fail "exit 14 left a lease behind: $LEFTOVER"

# The surviving state resumes: the same sweep, no faults, completes
# and merges.
"$RUNNER" --sim="$SIM" --configs="$CONFIGS" --out="$WORK/s1" \
    --store="$WORK/store" -- $COMMON > /dev/null 2>&1 \
    || fail "warm re-run over surviving state failed"
[ -f "$WORK/s1/sweep.csv" ] || fail "warm re-run merged no sweep.csv"

echo "PASS: injected ENOSPC and rename failures leave no partial artifact and resume cleanly"
exit 0

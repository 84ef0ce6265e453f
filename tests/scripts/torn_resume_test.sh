#!/bin/sh
# Torn results under done markers, repaired by a plain re-run.
#
# A crash during a write on a non-atomic filesystem (or a stray edit)
# can leave a per-config CSV cut mid-record under a valid done
# marker, or the done marker itself cut mid-write. Re-running the
# same command must repair both from the result store — without
# simulating anything again and without a typed CSV error — and the
# merged sweep.csv must come out byte-identical to an undamaged run.
#
# Markers vouch only for the arguments they were written for: a
# re-run into the same --out with changed common arguments must
# produce what a fresh run with the new arguments produces, and a
# config whose failing line was fixed must run again.
#
# Usage: torn_resume_test.sh <texdist_sim> <sweep_runner> <workdir>
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
block8:  --dist=block --param=8
block16: --dist=block --param=16
sli2:    --dist=sli --param=2
EOF
COMMON="--scene=quake --scale=0.25 --procs=4 --frames=4"

# Truncate a file to all-but-its-last-N bytes: the torn-tail shape.
tear() { # file bytes_to_cut
    size=$(wc -c < "$1")
    keep=$((size - $2))
    head -c "$keep" "$1" > "$1.torn" && mv "$1.torn" "$1"
}

run_sweep() { # outdir worker-id [extra common args...]
    out=$1
    worker=$2
    shift 2
    "$RUNNER" --sim="$SIM" --configs="$CONFIGS" --out="$out" \
        --worker-id="$worker" -- $COMMON "$@"
}

# One numeric field of a worker's fabric stats.
stat_of() { # stats-file field
    python3 -c '
import json, sys
root = json.load(open(sys.argv[1]))
print(len(root["configs"]) if sys.argv[2] == "ran" else root[sys.argv[2]])
' "$1" "$2"
}

run_sweep "$WORK/ref" w0 > /dev/null || fail "reference sweep exited nonzero"

# --- Torn per-config CSV under a done marker: restored. -------------
run_sweep "$WORK/csv" w0 > /dev/null || fail "setup sweep exited nonzero"
tear "$WORK/csv/block8.csv" 7
rm -f "$WORK/csv/sweep.csv"

OUT=$(run_sweep "$WORK/csv" w1 2>&1) \
    || fail "re-run after a torn CSV exited nonzero: $OUT"
echo "$OUT" | grep -q "block8.*restored from the store" \
    || fail "no restore warning for block8 in: $OUT"
cmp "$WORK/ref/block8.csv" "$WORK/csv/block8.csv" \
    || fail "block8.csv was not restored byte-identically"
cmp "$WORK/ref/sweep.csv" "$WORK/csv/sweep.csv" \
    || fail "sweep.csv differs after the torn-CSV re-run"
STATS="$WORK/csv/fabric_stats.w1.json"
[ "$(stat_of "$STATS" ran)" = "0" ] \
    || fail "the torn-CSV re-run simulated a config again"
[ "$(stat_of "$STATS" store_hits)" = "1" ] \
    || fail "the torn CSV was not served from the store" \
            "($(stat_of "$STATS" store_hits) hit(s), want 1)"

# --- Torn done marker: the config re-runs as a store hit. -----------
run_sweep "$WORK/marker" w0 > /dev/null \
    || fail "setup sweep exited nonzero"
tear "$WORK/marker/queue/block16.done" 5
rm -f "$WORK/marker/sweep.csv"

OUT=$(run_sweep "$WORK/marker" w1 2>&1) \
    || fail "re-run after a torn done marker exited nonzero: $OUT"
echo "$OUT" | grep -q "block16: done (store hit)" \
    || fail "block16 was not served from the store: $OUT"
cmp "$WORK/ref/sweep.csv" "$WORK/marker/sweep.csv" \
    || fail "sweep.csv differs after the torn-marker re-run"
STATS="$WORK/marker/fabric_stats.w1.json"
[ "$(stat_of "$STATS" ran)" = "0" ] \
    || fail "the torn-marker re-run simulated a config again"

# --- Changed common arguments: markers of the old run do not count. --
COMMON="--scene=quake --scale=0.25 --procs=4"
run_sweep "$WORK/fresh3" w0 --frames=3 > /dev/null \
    || fail "fresh --frames=3 sweep exited nonzero"
run_sweep "$WORK/args" w0 --frames=2 > /dev/null \
    || fail "--frames=2 sweep exited nonzero"
cp "$WORK/args/sweep.csv" "$WORK/frames2.csv"

OUT=$(run_sweep "$WORK/args" w0 --frames=3 2>&1) \
    || fail "--frames=3 re-run exited nonzero: $OUT"
echo "$OUT" | grep -q "written for other arguments" \
    || fail "no stale-marker warning in: $OUT"
for f in sweep block8 block16 sli2; do
    cmp "$WORK/fresh3/$f.csv" "$WORK/args/$f.csv" \
        || fail "$f.csv after the --frames=3 re-run differs from a" \
                "fresh --frames=3 run"
done
[ "$(stat_of "$WORK/args/fabric_stats.w0.json" ran)" = "3" ] \
    || fail "the --frames=3 re-run did not simulate all 3 configs"

# Back to the old arguments: served from the store, byte-identical.
OUT=$(run_sweep "$WORK/args" w0 --frames=2 2>&1) \
    || fail "--frames=2 re-run exited nonzero: $OUT"
cmp "$WORK/frames2.csv" "$WORK/args/sweep.csv" \
    || fail "sweep.csv after returning to --frames=2 differs"
[ "$(stat_of "$WORK/args/fabric_stats.w0.json" store_hits)" = "3" ] \
    || fail "returning to --frames=2 was not 3 store hits"

# --- A failed config whose line was fixed runs again. ---------------
CONFIGS="$WORK/fix.cfg"
printf 'block8: --dist=block --param=8\nsli2: --dist=sli --no-such-flag\n' \
    > "$CONFIGS"
run_sweep "$WORK/fix" w0 --frames=2 > /dev/null
[ $? -eq 2 ] || fail "the sweep with a bad config line should exit 2"
[ -f "$WORK/fix/queue/sli2.failed" ] || fail "no failed marker for sli2"

printf 'block8: --dist=block --param=8\nsli2: --dist=sli --param=2\n' \
    > "$CONFIGS"
OUT=$(run_sweep "$WORK/fix" w0 --frames=2 2>&1) \
    || fail "re-run after fixing sli2's line exited nonzero: $OUT"
cmp "$WORK/args/sli2.csv" "$WORK/fix/sli2.csv" \
    || fail "the fixed sli2 config did not produce its result"
[ ! -f "$WORK/fix/queue/sli2.failed" ] \
    || fail "the stale failed marker for sli2 was left behind"

echo "PASS: torn CSVs and done markers are repaired, and markers count only for their arguments"
exit 0

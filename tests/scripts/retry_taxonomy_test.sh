#!/bin/sh
# Retry-taxonomy test for the supervised sweep runner.
#
# The runner keeps two separate retry budgets: deterministic nonzero
# exits consume --retries — except typed parse-error exits (1, 6-9,
# 11), which reproduce identically on every attempt and must fail
# fast without burning a single retry — while timeouts and signal
# deaths are environmental and consume their own --signal-retries
# budget with per-config accounting in the worker's fabric stats.
#
# It also pins the supervisor's wait: a child that ignores SIGTERM
# past its --timeout is SIGKILLed, an interrupt during a retry
# backoff ends the sweep without another attempt and releases the
# worker's lease (so a re-run starts at once instead of waiting out
# the stale-lease TTL), and a child is reaped as soon as it exits
# rather than on a polling period.
#
# Usage: retry_taxonomy_test.sh <texdist_sim> <sweep_runner> <workdir>
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

# Every run below is worker w0; one field of one config's entry in
# the configs array of its fabric stats.
field() { # outdir config field
    python3 -c '
import json, sys
root = json.load(open(sys.argv[1] + "/fabric_stats.w0.json"))
for cfg in root["configs"]:
    if cfg["name"] == sys.argv[2]:
        print(cfg[sys.argv[3]])
' "$1" "$2" "$3"
}

# --- Typed parse-error exit: fail fast, zero retries. ---------------
CONFIGS="$WORK/parse.cfg"
cat > "$CONFIGS" <<'EOF'
good: --dist=block --param=8
bad:  --dist=block --param=8 --no-such-flag
EOF

"$RUNNER" --sim="$SIM" --configs="$CONFIGS" --out="$WORK/parse" \
    --worker-id=w0 --retries=3 --backoff-ms=50 \
    -- --scene=quake --scale=0.25 --procs=4 --frames=2
[ $? -eq 2 ] || fail "parse-error sweep should exit 2 (some failed)"

RUN_OUT="$WORK/parse"
[ "$(field "$RUN_OUT" bad status)" = "failed" ] \
    || fail "bad config not marked failed"
[ "$(field "$RUN_OUT" bad exit_code)" = "1" ] \
    || fail "bad config exit code not recorded as 1"
# The whole point: a typed CLI rejection must not burn the 3 retries.
[ "$(field "$RUN_OUT" bad attempts)" = "1" ] \
    || fail "typed parse-error exit was retried" \
            "(attempts=$(field "$RUN_OUT" bad attempts), want 1)"
[ "$(field "$RUN_OUT" good status)" = "done" ] \
    || fail "good config should still complete"

# --- Timeout (environmental): retried on its own budget. ------------
CONFIGS="$WORK/slow.cfg"
cat > "$CONFIGS" <<'EOF'
slow: --dist=block --param=8
EOF

"$RUNNER" --sim="$SIM" --configs="$CONFIGS" --out="$WORK/slow" \
    --worker-id=w0 --timeout=1 --retries=0 --signal-retries=1 --backoff-ms=50 \
    -- --scene=quake --scale=0.5 --procs=4 --frames=400
[ $? -eq 2 ] || fail "timeout sweep should exit 2 after retries"

RUN_OUT="$WORK/slow"
[ "$(field "$RUN_OUT" slow status)" = "failed" ] \
    || fail "slow config not marked failed"
# --retries=0, yet the timeout retried once on the signal budget and
# both environmental deaths were accounted separately.
[ "$(field "$RUN_OUT" slow attempts)" = "2" ] \
    || fail "timeout did not use the signal-retry budget" \
            "(attempts=$(field "$RUN_OUT" slow attempts), want 2)"
[ "$(field "$RUN_OUT" slow signal_deaths)" = "2" ] \
    || fail "signal_deaths not accounted" \
            "(got $(field "$RUN_OUT" slow signal_deaths), want 2)"

# Wall-clock milliseconds, for the timing checks below.
now_ms() { python3 -c 'import time; print(int(time.time() * 1000))'; }

# Fake --sim scripts for the supervision checks: sweep_runner execs
# whatever --sim names and only looks at its exit status and its
# --result-csv output.
fake_sim() { # path body
    printf '#!/bin/sh\n%s\n' "$2" > "$1"
    chmod +x "$1" || fail "cannot create $1"
}

# --- SIGTERM-ignoring child: the timeout escalates to SIGKILL. ------
# An ignored disposition survives exec, so the sleep itself ignores
# SIGTERM and only the SIGKILL 2 s later ends it.
fake_sim "$WORK/stubborn.sh" "trap '' TERM; exec sleep 30"
echo "stubborn: --dist=block" > "$WORK/stubborn.cfg"
t0=$(now_ms)
"$RUNNER" --sim="$WORK/stubborn.sh" --configs="$WORK/stubborn.cfg" \
    --out="$WORK/stubborn" --worker-id=w0 --timeout=1 --retries=0 --signal-retries=0
[ $? -eq 2 ] || fail "killed config should make the sweep exit 2"
elapsed=$(( $(now_ms) - t0 ))
[ "$elapsed" -lt 10000 ] \
    || fail "SIGKILL escalation took ${elapsed} ms (child sleeps 30 s)"

RUN_OUT="$WORK/stubborn"
[ "$(field "$RUN_OUT" stubborn exit_code)" = "137" ] \
    || fail "escalated child should record exit 137" \
            "(got $(field "$RUN_OUT" stubborn exit_code))"
[ "$(field "$RUN_OUT" stubborn signal_deaths)" = "1" ] \
    || fail "SIGKILL escalation not counted as a signal death"

# --- SIGINT during the retry backoff: no further attempt. -----------
# The child fails retryably (exit 2) at once; the runner then sleeps a
# 30 s backoff, and an interrupt there must end the sweep, not start
# attempt 2.
fake_sim "$WORK/flaky.sh" "touch '$WORK/flaky.ran'; exit 2"
echo "flaky: --dist=block" > "$WORK/flaky.cfg"
"$RUNNER" --sim="$WORK/flaky.sh" --configs="$WORK/flaky.cfg" \
    --out="$WORK/flaky" --worker-id=w0 --retries=3 --backoff-ms=30000 \
    > "$WORK/flaky.out" 2>&1 &
pid=$!
i=0
while [ ! -e "$WORK/flaky.ran" ] && [ $i -lt 100 ]; do
    sleep 0.1
    i=$((i + 1))
done
[ -e "$WORK/flaky.ran" ] || fail "first attempt never ran"
sleep 0.5 # let the runner reap the child and enter the backoff
t0=$(now_ms)
kill -INT "$pid"
wait "$pid"
rc=$?
elapsed=$(( $(now_ms) - t0 ))
[ "$rc" -eq 3 ] || fail "SIGINT in the backoff should exit 3 (got $rc)"
[ "$elapsed" -lt 5000 ] \
    || fail "interrupted backoff took ${elapsed} ms to exit"
[ "$(field "$WORK/flaky" flaky attempts)" = "1" ] \
    || fail "an attempt started after the interrupt (attempts=" \
            "$(field "$WORK/flaky" flaky attempts))"

# The interrupted worker released its lease, so a re-run claims the
# config at once; a leftover lease would hold it for the stale-lease
# TTL (100 polls of 50 ms).
[ -e "$WORK/flaky/queue/flaky.lease" ] \
    && fail "the interrupted worker left its lease behind"
rm -f "$WORK/flaky.ran"
t0=$(now_ms)
"$RUNNER" --sim="$WORK/flaky.sh" --configs="$WORK/flaky.cfg" \
    --out="$WORK/flaky" --worker-id=w0 --retries=0 \
    > "$WORK/flaky-rerun.out" 2>&1
rc=$?
elapsed=$(( $(now_ms) - t0 ))
[ "$rc" -eq 2 ] || fail "the re-run should fail flaky for good (got $rc)"
[ -e "$WORK/flaky.ran" ] || fail "the re-run never ran the config"
[ "$elapsed" -lt 2500 ] \
    || fail "the re-run took ${elapsed} ms: it waited for the lease TTL"

# --- Instant children: supervision adds no per-child floor. ---------
# A child that only copies a canned result CSV exits in a few ms, and
# the runner must reap it as soon as it exits. The floor this guards
# against is a sleeping wait: the former 50 ms child poll alone cost
# 20 children 20 x 50 = 1000 ms, so the sweep must finish in less.
# Everything else (20 forks, 20 store publications) takes ~100-150 ms
# on an idle host and has been seen at ~650 ms under load, so a
# tighter bound fails on load, not on a floor.
"$SIM" --scene=quake --scale=0.125 --procs=4 \
    --result-csv="$WORK/canned.csv" > /dev/null \
    || fail "cannot produce the canned CSV"
fake_sim "$WORK/instant.sh" "for a; do case \$a in
    --result-csv=*) exec cp '$WORK/canned.csv' \"\${a#--result-csv=}\";;
esac; done; exit 1"
: > "$WORK/instant.cfg"
for n in $(seq 1 20); do
    echo "c$n: --dist=block --param=$n" >> "$WORK/instant.cfg"
done
t0=$(now_ms)
"$RUNNER" --sim="$WORK/instant.sh" --configs="$WORK/instant.cfg" \
    --out="$WORK/instant" --worker-id=w0 > /dev/null
[ $? -eq 0 ] || fail "instant sweep should succeed"
elapsed=$(( $(now_ms) - t0 ))
floor_ms=$(( 20 * 50 ))
[ "$elapsed" -lt "$floor_ms" ] \
    || fail "20 instant children took ${elapsed} ms (want < ${floor_ms})"
[ "$(wc -l < "$WORK/instant/sweep.csv")" -eq 21 ] \
    || fail "instant sweep.csv should hold a header and 20 rows"

echo "PASS: parse errors fail fast, environmental deaths retry on their own budget, SIGKILL escalation, interrupted backoff releases its lease, no per-child wait floor"
exit 0

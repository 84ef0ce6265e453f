#!/bin/sh
# Pinned output formats of texdist_sim: the frame report on stdout,
# the per-frame result CSV and the --stats-file text must match the
# expected files byte for byte, and multi-frame runs must reject the
# single-frame-only flags.
#
# Usage: output_format_test.sh <texdist_sim-binary> <expected-dir>
set -u

SIM=${1:?usage: output_format_test.sh <texdist_sim> <expected-dir>}
EXPECTED=${2:?usage: output_format_test.sh <texdist_sim> <expected-dir>}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
failures=0

fail() {
    echo "FAIL: $*"
    failures=$((failures + 1))
}

# same <expected-file> <actual-file>
same() {
    if ! cmp -s "$EXPECTED/$1" "$2"; then
        fail "$1 differs"
        diff "$EXPECTED/$1" "$2" | head -20
    fi
}

# run <case> <args...>: run in <case>'s own directory, exit code 0
run() {
    name=$1
    shift
    mkdir "$WORK/$name"
    (cd "$WORK/$name" && "$SIM" "$@" >stdout 2>stderr)
    code=$?
    [ "$code" -eq 0 ] || fail "case $name exited $code"
}

echo "=== a: single frame, SLI, bus 2, stats file and result CSV ==="
run a --scene=quake --scale=0.25 --procs=16 --dist=sli --param=4 \
    --bus=2 --stats-file=s.txt --result-csv=r.csv
same a.stdout "$WORK/a/stdout"
same a.csv "$WORK/a/r.csv"
same a.stats.txt "$WORK/a/s.txt"

echo "=== b: frozen FIFO degraded around, fault block ==="
run b --procs=4 --buffer=4 --fault=fifo-freeze:1,at=0 --watchdog=degrade
same b.stdout "$WORK/b/stdout"

echo "=== c: three-frame pan, result CSV ==="
run c --frames=3 --pan=8 --result-csv=r.csv
same c.csv "$WORK/c/r.csv"

echo "=== d: multi-frame runs reject single-frame-only flags ==="
for flag in --watchdog=degrade --stats-file=s.txt; do
    "$SIM" --scene=quake --scale=0.125 --frames=2 --pan=8 "$flag" \
        >"$WORK/d.out" 2>"$WORK/d.err"
    code=$?
    [ "$code" -eq 1 ] || fail "$flag with --frames exited $code, wanted 1"
    grep -q "not supported in multi-frame runs" "$WORK/d.err" ||
        fail "$flag with --frames: no 'not supported' diagnostic"
done
"$SIM" --scene=quake --scale=0.125 --frames=2 --pan=8 --watchdog=fail \
    >"$WORK/d.out" 2>&1 || fail "--watchdog=fail with --frames rejected"

if [ "$failures" -ne 0 ]; then
    echo "FAIL: $failures output format check(s) failed"
    exit 1
fi
echo "PASS: output formats match"
exit 0

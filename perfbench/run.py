#!/usr/bin/env python3
"""texdist benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the simulator and the benchmark
driver from source into .bench_build/ (the first run builds; later
runs rebuild only what changed), runs one workload, checks its
outputs, and prints one JSON object as the last line of standard
output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json; with --trace 1 they are its per-layer metrics, taken
from a traced run. The full report (host fingerprint, scene
descriptors, simulated counts, every metric) is written to
.bench_build/reports/. The exit code is 0 only when every output
check passed.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
DRIVER_TIMEOUT_S = 165

WORKLOADS = ("figure-sweep", "pan-warm", "sweep-fabric")


def log(*args):
    print("perfbench:", *args, file=sys.stderr, flush=True)


def fail(msg, code=2):
    log(msg)
    sys.exit(code)


def build():
    """Configure once, then build the driver and the two binaries."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources under " + ROOT + "/src")
    if not shutil.which("cmake"):
        fail("cmake not found")
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    with open(build_log, "a") as out:
        if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", CMAKE_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=out, stderr=out).returncode:
                fail("configure failed; see " + build_log, 1)
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", CMAKE_DIR, "--target", "perfbench_all",
               "-j", jobs]
        if subprocess.run(cmd, stdout=out, stderr=out).returncode:
            fail("build failed; see " + build_log, 1)


def run_driver(args, report):
    cmd = [os.path.join(CMAKE_DIR, "perfbench"),
           "--workload=" + args.workload,
           "--seed=" + str(args.seed),
           "--seconds=" + str(args.seconds),
           "--trace=" + str(args.trace),
           "--golden=" + args.golden,
           "--bin=" + os.path.join(CMAKE_DIR, "texdist", "tools"),
           "--work=" + os.path.join(BUILD, "work", args.workload),
           "--report=" + report,
           "--scale=" + str(args.scale),
           "--jobs=" + str(args.jobs)]
    if args.record_golden:
        cmd.append("--record-golden")
    if os.path.exists(report):
        os.remove(report)
    proc = subprocess.Popen(cmd, stdout=sys.stderr, start_new_session=True)
    try:
        rc = proc.wait(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("driver timed out", 1)
    if rc != 0 or not os.path.isfile(report):
        fail("driver exited with %d" % rc, 1)
    with open(report) as f:
        return json.load(f)


def read_text(path):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return ""


def fingerprint(build_info):
    """Host and build identity; reports that differ here don't compare."""
    model = ""
    for line in read_text("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(base):
        for idx in sorted(os.listdir(base)):
            d = os.path.join(base, idx)
            level = read_text(os.path.join(d, "level"))
            kind = read_text(os.path.join(d, "type"))
            if level in ("2", "3") and kind in ("Unified", "Data"):
                caches["L" + level] = read_text(os.path.join(d, "size"))
    return {
        "cpu_model": model or platform.processor(),
        "nproc": len(os.sched_getaffinity(0)),
        "l2": caches.get("L2", ""),
        "l3": caches.get("L3", ""),
        "simd": build_info["simd"],
        "compiler": build_info["compiler"],
        "build_type": build_info["build_type"],
    }


def percentile(sorted_values, q):
    """Linear-interpolated percentile of an ascending list."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


# A failed unit misses every latency limit: it sorts above all others.
FAILED_UNIT_MS = 1e9


# Workloads whose passes repeat the same units of work, checked by the
# same golden digest every pass (pan-warm: the 32 frames of one pan
# period). Their time metrics come from each unit's best time over the
# run's passes. A shared host can run at two speeds (1.7x apart on the
# 4-vCPU VM of STEADINESS.md), switching within a few frames or
# holding for a whole run; when all units cost about the same, the p50
# of single frames flips between the two speeds from run to run, and
# the throughput follows the share of slow time. Noise only adds time,
# so the best of many repeats of deterministic work estimates its cost.
BEST_OF_PASSES = ("pan-warm",)


def timed_units(rep):
    """(ms, fragments, ok) of every untraced unit, in run order."""
    return [(t, f, ok) for t, ok, f, traced in
            zip(rep["unit_ms"], rep["unit_ok"], rep["unit_frags"],
                rep["unit_traced"]) if not traced]


def best_of_passes(units, pass_units):
    """One (ms, fragments, ok) per unit of a pass: its best time over
    the passes, and ok only if every repeat was."""
    best = []
    for i in range(pass_units):
        reps = units[i::pass_units]
        best.append((min(t for t, _, _ in reps), reps[0][1],
                     all(ok for _, _, ok in reps)))
    return best


def timing(units):
    """units_per_s, frags_per_s, unit_ms_p50 and unit_ms_p90 of units."""
    lat = sorted(t if ok else FAILED_UNIT_MS for t, _, ok in units)
    timed_s = sum(t for t, _, _ in units) / 1000.0
    return {
        "units_per_s": len(units) / timed_s,
        "frags_per_s": sum(f for _, f, _ in units) / timed_s,
        "unit_ms_p50": percentile(lat, 0.5),
        "unit_ms_p90": percentile(lat, 0.9),
    }


def end_to_end(rep):
    units = timed_units(rep)
    if rep["workload"] in BEST_OF_PASSES:
        units = best_of_passes(units, int(rep["pass_units"]))
    checks = rep["checks"]
    values = {"setup_s": statistics.median(rep["setup_s"])}
    values.update(timing(units))
    values["peak_rss_mb"] = rep["peak_rss_mb"]
    values["ok_frac"] = checks["passed"] / max(1, checks["attempted"])
    return values


def per_layer(rep):
    values = dict(rep["layers"])
    values.update({k: v for k, v in rep["sim"].items() if k != "frames"})
    plain = [t for t, tr in zip(rep["unit_ms"], rep["unit_traced"]) if not tr]
    traced = [t for t, tr in zip(rep["unit_ms"], rep["unit_traced"]) if tr]
    values["host.trace_overhead_frac"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0)
    return values


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--golden", default=os.path.join(HERE, "golden.json"),
                    help="golden digests (default: perfbench/golden.json)")
    ap.add_argument("--scale", type=float, default=0.25,
                    help="figure-sweep and pan-warm scene scale; the "
                    "benchmark runs at 0.25")
    ap.add_argument("--jobs", type=int, default=1,
                    help="pan-warm host threads; the benchmark runs at 1")
    ap.add_argument("--record-golden", action="store_true",
                    help="write the run's digests into --golden")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    build()
    reports = os.path.join(BUILD, "reports")
    os.makedirs(reports, exist_ok=True)
    stem = os.path.join(reports, "%s-seed%d-trace%d" % (
        args.workload, args.seed, args.trace))
    rep = run_driver(args, stem + ".raw.json")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = per_layer(rep) if args.trace else end_to_end(rep)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail("metrics not measured: " + ", ".join(missing), 1)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    checks = rep["checks"]
    correct = checks["attempted"] > 0 and checks["passed"] == checks["attempted"]
    failed = sum(1 for ok in rep["unit_ok"] if not ok)
    result = {"correct": correct, "attempted": len(rep["unit_ok"]),
              "failed": failed, "metrics": metrics}

    full = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "scale": args.scale, "jobs": args.jobs,
        "fingerprint": fingerprint(rep["build"]),
        "scenes": rep["scenes"], "sim": rep["sim"],
        "checks": checks, "units": len(rep["unit_ok"]),
        "pass_units": rep["pass_units"], "setup_runs_s": rep["setup_s"],
        "result": result,
    }
    if args.workload in BEST_OF_PASSES and not args.trace:
        # What every frame took, host speed included, beside the
        # best-of-passes figures the result reports.
        full["every_unit_timing"] = timing(timed_units(rep))
    with open(stem + ".json", "w") as f:
        json.dump(full, f, indent=1, sort_keys=True)
        f.write("\n")
    for name, m in metrics.items():
        log("%-40s %14.6g %s" % (name, m["value"], m["unit"]))
    if not correct:
        log("output checks failed: %s" % "; ".join(checks["failures"]))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

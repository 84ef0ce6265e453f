#!/usr/bin/env python3
"""Self-test of the benchmark's own checks. Run from the repository root:

    python3 perfbench/selftest.py

1. A planted wrong golden digest makes ok_frac drop below 1, the
   result read "correct": false, and the command exit nonzero.
2. Each workload's traced run reports the same simulated counts as
   an untraced run, and every per-layer metric of BENCHMARK.json.
3. steady.py flags, and refuses, a comparison of reports whose host
   fingerprints differ.
4. In a directory holding only BENCHMARK.json and perfbench/, the
   command exits nonzero without printing a result.

Exits 0 when all pass. Takes about three minutes.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build", "selftest")
REPORTS = os.path.join(ROOT, ".bench_build", "reports")

failures = []


def expect(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def bench(cwd, *args):
    cmd = ["python3", "perfbench/run.py"] + [str(a) for a in args]
    p = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return p.returncode, result


def report(workload, seed, trace):
    with open(os.path.join(REPORTS, "%s-seed%d-trace%d.json" % (
            workload, seed, trace))) as f:
        return json.load(f)


def planted_digest():
    with open(os.path.join(HERE, "golden.json")) as f:
        golden = json.load(f)
    key = "pan-warm/scale=0.25/pos=5"
    golden[key] = "0123456789abcdef"
    path = os.path.join(WORK, "planted.json")
    with open(path, "w") as f:
        json.dump(golden, f)
    rc, res = bench(ROOT, "--workload", "pan-warm", "--seed", 5,
                    "--seconds", 1, "--trace", 0, "--golden", path)
    expect(rc != 0, "planted digest: command exits nonzero (%d)" % rc)
    expect(res is not None and res["correct"] is False,
           "planted digest: result reads correct=false")
    ok_frac = res["metrics"]["ok_frac"]["value"] if res else 1.0
    expect(ok_frac < 1.0, "planted digest: ok_frac %.4f < 1" % ok_frac)
    expect(res is not None and res["failed"] > 0,
           "planted digest: failed units counted")


def traced_matches_untraced():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    layer_names = {m["name"] for m in spec["per_layer"]}
    for w in spec["workloads"]:
        name = w["name"]
        rc0, res0 = bench(ROOT, "--workload", name, "--seed", 7,
                          "--seconds", 1, "--trace", 0)
        rc1, res1 = bench(ROOT, "--workload", name, "--seed", 7,
                          "--seconds", 1, "--trace", 1)
        expect(rc0 == 0 and rc1 == 0 and res0["correct"] and res1["correct"],
               "%s: untraced and traced runs pass their checks" % name)
        if rc0 or rc1:
            continue
        sim0 = report(name, 7, 0)["sim"]
        sim1 = report(name, 7, 1)["sim"]
        expect(sim0 == sim1,
               "%s: traced simulated counts equal untraced" % name)
        expect(set(res1["metrics"]) == layer_names,
               "%s: traced run reports every per-layer metric" % name)
        for k, v in sim1.items():
            if k in res1["metrics"]:
                expect(res1["metrics"][k]["value"] == v,
                       "%s: %s in the result equals the report" % (name, k))


def mismatched_fingerprints_flagged():
    with open(os.path.join(REPORTS, "pan-warm-seed7-trace0.json")) as f:
        rep = json.load(f)
    dirs = []
    for name, model in (("a", None), ("b", None), ("c", "another CPU")):
        d = os.path.join(WORK, "compare-" + name)
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
        if model:
            rep = dict(rep, fingerprint=dict(rep["fingerprint"], cpu_model=model))
        with open(os.path.join(d, "pan-warm-seed7.json"), "w") as f:
            json.dump(rep, f)
        dirs.append(d)

    def compare(a, b):
        return subprocess.run(["python3", os.path.join(HERE, "steady.py"),
                               "compare", a, b], stdout=subprocess.PIPE,
                              text=True)
    same = compare(dirs[0], dirs[1])
    expect(same.returncode == 0 and "FLAG" not in same.stdout,
           "compare: same host compares")
    other = compare(dirs[0], dirs[2])
    expect(other.returncode == 3 and "FLAG" in other.stdout,
           "compare: different hosts are flagged and refused (%d)"
           % other.returncode)


def bare_directory_fails():
    bare = os.path.join(WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, res = bench(bare, "--workload", "pan-warm", "--seed", 1,
                    "--seconds", 1, "--trace", 0)
    expect(rc != 0 and res is None,
           "bare directory: exits %d without a result" % rc)
    shutil.rmtree(bare, ignore_errors=True)


def main():
    os.makedirs(WORK, exist_ok=True)
    planted_digest()
    traced_matches_untraced()
    mismatched_fingerprints_flagged()
    bare_directory_fails()
    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Steadiness and comparison of benchmark runs.

Run from the repository root.

    python3 perfbench/steady.py run --runs 10 --out DIR [--workloads a,b] [--seed0 N]
        Runs the benchmark (BENCHMARK.json's command, --trace 0) --runs
        times per workload, each with another seed, keeps every full
        report under DIR and writes DIR/summary.json and
        DIR/summary.md: per workload and end-to-end metric the median,
        the quartiles and the spread (Q3 - Q1) / median, against the
        metric's bound.

    python3 perfbench/steady.py compare BEFORE AFTER
        Compares two such directories: per workload and metric, the
        two medians, their ratio, and a verdict: worse than the bound,
        unresolved (a spread wider than the bound), better by more than
        BEFORE's spread, or within the bound. A gain claim needs more
        than this: interleaved pairs, as the choosing-metrics method
        asks. Reports
        whose host or build fingerprints differ are flagged and the
        comparison exits 3.

Extra arguments after "--" are passed to run.py (for example
"-- --scale 0.5" or "-- --jobs 2" for sizing studies).
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(out_dir):
    """Medians and spreads per workload x metric of a run directory."""
    s = spec()
    bounds = {m["name"]: m["bound"] for m in s["end_to_end"]}
    reports = []
    for path in sorted(glob.glob(os.path.join(out_dir, "*.json"))):
        if os.path.basename(path).startswith("summary"):
            continue
        with open(path) as f:
            reports.append(json.load(f))
    rows, prints = [], set()
    for w in s["workloads"]:
        mine = [r for r in reports if r["workload"] == w["name"]]
        if not mine:
            continue
        for r in mine:
            prints.add(json.dumps(r["fingerprint"], sort_keys=True))
        for name, bound in bounds.items():
            vals = [r["result"]["metrics"][name]["value"] for r in mine]
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else 0.0
            rows.append({"workload": w["name"], "metric": name,
                         "runs": len(vals), "median": med, "q1": q1,
                         "q3": q3, "spread": spread, "bound": bound,
                         "values": vals})
    return {"fingerprints": [json.loads(p) for p in sorted(prints)],
            "rows": rows}


def write_summary(out_dir, summary, extra):
    with open(os.path.join(out_dir, "summary.json"), "w") as f:
        json.dump(summary, f, indent=1, sort_keys=True)
        f.write("\n")
    lines = ["| workload | metric | runs | median | spread | bound | "
             "spread/bound |", "|---|---|---|---|---|---|---|"]
    for r in summary["rows"]:
        lines.append("| %s | %s | %d | %.4g | %.3f | %.2f | %.2f |" % (
            r["workload"], r["metric"], r["runs"], r["median"],
            r["spread"], r["bound"], r["spread"] / r["bound"]))
    header = "Run arguments: %s\n\nHost: %s\n\n" % (
        " ".join(extra) or "(defaults)",
        "; ".join(json.dumps(p, sort_keys=True)
                  for p in summary["fingerprints"]))
    with open(os.path.join(out_dir, "summary.md"), "w") as f:
        f.write(header + "\n".join(lines) + "\n")
    print(header + "\n".join(lines))


def cmd_run(args, extra):
    s = spec()
    names = [w["name"] for w in s["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    os.makedirs(args.out, exist_ok=True)
    for name in names:
        for k in range(args.runs):
            seed = args.seed0 + k
            cmd = s["command"] + ["--workload", name, "--seed", str(seed),
                                  "--seconds", str(args.seconds or s["run_seconds"]),
                                  "--trace", "0"] + extra
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            last = proc.stdout.strip().splitlines()[-1:] or [""]
            print("%s seed %d exit %d %s" % (name, seed, proc.returncode,
                                             last[0]), flush=True)
            if proc.returncode != 0:
                sys.exit("run failed: " + " ".join(cmd))
            report = os.path.join(ROOT, ".bench_build", "reports",
                                  "%s-seed%d-trace0.json" % (name, seed))
            with open(report) as f:
                full = json.load(f)
            with open(os.path.join(args.out, "%s-seed%d.json" % (name, seed)),
                      "w") as f:
                json.dump(full, f, indent=1, sort_keys=True)
    write_summary(args.out, summarize(args.out), extra)


def cmd_compare(args):
    a, b = summarize(args.before), summarize(args.after)
    if a["fingerprints"] != b["fingerprints"] or len(a["fingerprints"]) != 1:
        print("FLAG: host/build fingerprints differ or are mixed; "
              "the runs are not comparable")
        print("  before:", a["fingerprints"])
        print("  after: ", b["fingerprints"])
        return 3
    better = {m["name"]: m["better"] for m in spec()["end_to_end"]}
    after = {(r["workload"], r["metric"]): r for r in b["rows"]}
    worse_any = False
    print("| workload | metric | before | after | after/before | verdict |")
    print("|---|---|---|---|---|---|")
    for r in a["rows"]:
        o = after.get((r["workload"], r["metric"]))
        if not o:
            continue
        ratio = o["median"] / r["median"] if r["median"] else float("nan")
        worse = 1 - ratio if better[r["metric"]] == "higher" else ratio - 1
        if worse > r["bound"]:
            verdict = "worse than bound"
            worse_any = True
        elif max(r["spread"], o["spread"]) > r["bound"]:
            verdict = "unresolved (spread wider than bound)"
        elif -worse > r["spread"]:
            verdict = "better by more than the spread"
        else:
            verdict = "within bound"
        print("| %s | %s | %.4g | %.4g | %.3f | %s |" % (
            r["workload"], r["metric"], r["median"], o["median"], ratio,
            verdict))
    return 1 if worse_any else 0


def main():
    argv = sys.argv[1:]
    extra = []
    if "--" in argv:
        i = argv.index("--")
        argv, extra = argv[:i], argv[i + 1:]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--out", required=True)
    r.add_argument("--workloads", default="")
    r.add_argument("--seed0", type=int, default=1)
    r.add_argument("--seconds", type=int, default=0,
                   help="default: BENCHMARK.json's run_seconds")
    c = sub.add_parser("compare")
    c.add_argument("before")
    c.add_argument("after")
    args = ap.parse_args(argv)
    if args.cmd == "run":
        cmd_run(args, extra)
        return 0
    return cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

Runs every workload once per seed and reports, for each metric, the
median, the quartiles, min and max over the runs, and the spread: the
distance between the quartiles as a share of the median. Then, given two
saved sets of runs, says whether they agree within the bounds fixed in
BENCHMARK.json. Run from the repository root:

    python3 perfbench/steady.py run --seeds 1-10 --out set1.json
    python3 perfbench/steady.py run --seeds 11-20 --out set2.json
    python3 perfbench/steady.py compare set1.json set2.json

`run` takes --workloads a,b to run a subset and --trace 1 for the
per-layer metrics; every run lasts BENCHMARK.json's run_seconds. A spread
above a third of the metric's bound is marked `wide`, one above the bound
`FAIL`. `compare` takes two untraced sets of the same run length; it fails
a metric whose second median is worse than the first by more than its
bound, and a workload whose share of failed operations differs between
the sets.
"""

import argparse
import json
import statistics
import subprocess
import sys


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    if len(lines) > 1:
        res["report"] = json.loads(lines[-2])
    return res


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values),
            "spread": (q3 - q1) / med if med else float("inf")}


def cmd_run(args):
    bench = load_benchmark()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    seconds = bench["run_seconds"]
    seeds = parse_seeds(args.seeds)
    saved = {"seconds": seconds, "trace": args.trace, "runs": {}}
    ok = True
    for name in names:
        runs = []
        for seed in seeds:
            res = run_once(bench, name, seed, seconds, args.trace)
            runs.append({"seed": seed, **res})
            print(f"  {name} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}", file=sys.stderr)
        saved["runs"][name] = runs
        print(f"== {name}: {len(runs)} runs, seeds {args.seeds}, {seconds} s")
        print(f"  {'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} {'min':>12} {'max':>12} {'spread':>8}")
        for metric in sorted(runs[0]["metrics"]):
            values = [r["metrics"][metric]["value"] for r in runs]
            if len(values) < 2:
                continue
            s = summarize(values)
            bound = bounds.get(metric) if not args.trace else None
            mark = ""
            if bound is not None:
                if s["spread"] > bound:
                    mark, ok = "FAIL", False
                elif s["spread"] > bound / 3:
                    mark = "wide"
            print(f"  {metric:<28} {s['median']:>12.4f} {s['q1']:>12.4f} {s['q3']:>12.4f} "
                  f"{s['min']:>12.4f} {s['max']:>12.4f} {s['spread']:>8.4f} {mark}")
        if not all(r["correct"] for r in runs):
            print(f"  FAIL: a run of {name} reported correct=false")
            ok = False
    if args.out:
        with open(args.out, "w") as f:
            json.dump(saved, f, indent=1)
    return 0 if ok else 1


def cmd_compare(args):
    bench = load_benchmark()
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    sets = []
    for path in (args.first, args.second):
        with open(path) as f:
            sets.append(json.load(f))
    for key in ("seconds", "trace"):
        if sets[0][key] != sets[1][key]:
            raise SystemExit(f"the sets differ in {key}: {sets[0][key]} vs {sets[1][key]}")
    if sets[0]["trace"]:
        raise SystemExit("traced sets carry no end-to-end metrics to compare")
    first, second = sets[0]["runs"], sets[1]["runs"]
    ok = True
    for name in sorted(set(first) & set(second)):
        a, b = first[name], second[name]
        print(f"== {name}")
        share_a = sum(r["failed"] for r in a) / sum(r["attempted"] for r in a)
        share_b = sum(r["failed"] for r in b) / sum(r["attempted"] for r in b)
        if share_a != share_b:
            print(f"  FAIL: failed share {share_a} vs {share_b}")
            ok = False
        for metric, m in sorted(metrics.items()):
            ma = statistics.median(r["metrics"][metric]["value"] for r in a)
            mb = statistics.median(r["metrics"][metric]["value"] for r in b)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            verdict = "ok"
            if worse > m["bound"]:
                verdict, ok = "FAIL", False
            print(f"  {metric:<16} {ma:>12.4f} -> {mb:>12.4f}  worse by {worse:+.4f} "
                  f"(bound {m['bound']})  {verdict}")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--workloads", default="")
    r.add_argument("--trace", type=int, default=0, choices=[0, 1])
    r.add_argument("--out", default="")
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    args = p.parse_args()
    return cmd_run(args) if args.cmd == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())

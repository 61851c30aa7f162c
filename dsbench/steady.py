#!/usr/bin/env python3
"""Steadiness check for the dsbench benchmark.

Run from the root of a checkout:

    python3 dsbench/steady.py --runs 10 [--workloads a,b] [--first-seed N] --save set1.json
    python3 dsbench/steady.py --compare set1.json set2.json

The first form runs every workload of BENCHMARK.json (or the listed ones)
`--runs` times, each with another seed, and prints for each end-to-end
metric the median, the first and third quartiles
(`statistics.quantiles(values, n=4)`), the spread (q3 - q1) / median
against the metric's bound, and the share of failed operations. The
second form compares the medians of two saved sets, taken apart in time,
against the bounds.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(bench, workload, seed, trace=0):
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    started = time.time()
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    result["wall_s"] = time.time() - started
    return result


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values) if values else 0.0}


def collect(args, bench):
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    out = {}
    for name in names:
        runs = []
        for i in range(args.runs):
            r = run_once(bench, name, args.first_seed + i)
            runs.append(r)
            print(f"{name} seed {args.first_seed + i}: correct={r['correct']} "
                  f"failed={r['failed']}/{r['attempted']} wall={r['wall_s']:.1f}s", file=sys.stderr)
        metrics = {m["name"]: summarize([r["metrics"][m["name"]]["value"] for r in runs])
                   for m in bench["end_to_end"]}
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        out[name] = {"metrics": metrics, "failed_shares": shares,
                     "correct": all(r["correct"] for r in runs),
                     "wall_s": max(r["wall_s"] for r in runs)}
    return out


def report(summary, bench):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, w in summary.items():
        print(f"\n{name}: correct={w['correct']} failed shares={w['failed_shares']} "
              f"max wall={w['wall_s']:.1f}s")
        print(f"  {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for m, s in w["metrics"].items():
            flag = "" if m == "setup_s" or s["spread"] <= bounds[m] / 3 else "  <-- above bound/3"
            print(f"  {m:<14} {s['median']:>12.4f} {s['q1']:>12.4f} {s['q3']:>12.4f} "
                  f"{s['spread']:>8.3f} {bounds[m]:>6}{flag}")


def compare(a, b, bench):
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    print(f"{'workload':<16} {'metric':<14} {'median 1':>12} {'median 2':>12} {'worse by':>9} {'bound':>6}")
    for name in a:
        if name not in b:
            continue
        for m, spec in metrics.items():
            m1, m2 = a[name]["metrics"][m]["median"], b[name]["metrics"][m]["median"]
            worse = (m2 - m1) / m1 if spec["better"] == "lower" else (m1 - m2) / m1
            bad = worse > spec["bound"]
            ok &= not bad
            print(f"{name:<16} {m:<14} {m1:>12.4f} {m2:>12.4f} {worse:>+9.3f} {spec['bound']:>6}"
                  + ("  <-- beyond bound" if bad else ""))
        if a[name]["failed_shares"] != b[name]["failed_shares"]:
            ok = False
            print(f"{name}: failed shares differ: {a[name]['failed_shares']} vs {b[name]['failed_shares']}")
    return ok


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--save")
    p.add_argument("--compare", nargs=2)
    args = p.parse_args()
    bench = load_benchmark()
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        return 0 if compare(*sets, bench) else 1
    summary = collect(args, bench)
    report(summary, bench)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(summary, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Paired parent-vs-change comparison of the CHIME benchmark.

Runs perfbench/run.py in two checkouts, alternating which side runs first, for at least ten
pairs per workload (pair i uses seed SEED0 + i on both sides), then judges every end-to-end
metric of BENCHMARK.json on every workload:

  gain        the change wins >= 9/10 of the pairs (ties count for neither side) AND the
              medians differ, in the better direction, by more than the parent's IQR
  no-worse    the change's median is not worse than the parent's by more than the metric's
              bound (a share of the parent's median)
  WORSE       the change's median is worse by more than the bound
  unresolved  the parent's own spread (IQR / median) exceeds the bound, so "no worse" cannot be
              told from noise - unless every change run beats every parent run

host_kops, which every run prints but BENCHMARK.json does not bound, is judged the same way
for a gain and is otherwise "unbounded".

Usage (from anywhere):

    python3 perfbench/compare.py --parent ../chime-parent --change . --pairs 10
    python3 perfbench/compare.py --parent P --change C --workloads read-hot --save runs.json
    python3 perfbench/compare.py --load runs.json          # re-judge saved runs, no new runs

Both checkouts must hold the same BENCHMARK.json (a change that claims a gain may not edit
the benchmark); the parent's copy supplies the bounds. Exit code 1 when any metric is WORSE.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

MIN_PAIRS = 10
WIN_SHARE = 0.9
# Printed by every end-to-end run ("host_kops <value> kops/s ...") but not an end-to-end metric
# of BENCHMARK.json: its spread on a shared host can exceed any bound (NOTES.md). It is judged
# for a gain only; without a bound its other verdict is "unbounded".
REPORTED = [{"name": "host_kops", "unit": "kops/s", "better": "higher", "bound": None}]


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} failed ({proc.returncode}):\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result.get("correct", False):
        raise RuntimeError(f"{checkout}: {workload} seed {seed} reported incorrect outputs")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for metric in REPORTED:
        for line in lines:
            fields = line.split()
            if len(fields) >= 2 and fields[0] == metric["name"]:
                values[metric["name"]] = float(fields[1])
    return values


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def better(a, b, direction):
    """True when a is strictly better than b."""
    return a < b if direction == "lower" else a > b


def judge(metric, parent, change):
    """Verdict for one metric on one workload from paired runs (parent[i] vs change[i])."""
    direction, bound = metric["better"], metric["bound"]
    p1, pmed, p3 = quartiles(parent)
    c1, cmed, c3 = quartiles(change)
    pairs = len(parent)
    wins = sum(1 for p, c in zip(parent, change) if better(c, p, direction))
    gap = cmed - pmed
    iqr = p3 - p1
    gain = (pairs >= MIN_PAIRS and wins >= math.ceil(WIN_SHARE * pairs) and
            better(cmed, pmed, direction) and abs(gap) > iqr)
    # Signed relative change, positive = worse.
    worse_by = (gap if direction == "lower" else -gap) / abs(pmed) if pmed else 0.0
    spread = iqr / abs(pmed) if pmed else 0.0
    all_better = all(better(c, p, direction) for c in change for p in parent)
    if gain:
        verdict = "gain"
    elif bound is None:
        verdict = "unbounded"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "WORSE"
    else:
        verdict = "no-worse"
    return {"parent": (p1, pmed, p3), "change": (c1, cmed, c3), "wins": wins, "pairs": pairs,
            "worse_by": worse_by, "parent_spread": spread, "verdict": verdict}


def report(bench, runs):
    worse = False
    print(f"{'workload':12s} {'metric':18s} {'parent median [q1, q3]':>32s} "
          f"{'change median [q1, q3]':>32s} {'wins':>6s} {'worse_by':>9s} {'bound':>6s}  verdict")
    for workload, sides in runs.items():
        pairs = len(sides["parent"])
        if pairs < MIN_PAIRS:
            print(f"note: {workload} has {pairs} pairs (< {MIN_PAIRS}): no gain can be claimed")
        for metric in bench["end_to_end"] + REPORTED:
            name = metric["name"]
            if not all(name in r for r in sides["parent"] + sides["change"]):
                continue
            parent = [r[name] for r in sides["parent"]]
            change = [r[name] for r in sides["change"]]
            j = judge(metric, parent, change)
            worse |= j["verdict"] == "WORSE"
            fmt = lambda q: f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"
            bound = "-" if metric["bound"] is None else f"{metric['bound']:.3f}"
            print(f"{workload:12s} {name:18s} {fmt(j['parent']):>32s} {fmt(j['change']):>32s} "
                  f"{j['wins']:>3d}/{j['pairs']:<2d} {j['worse_by']:>+9.4f} "
                  f"{bound:>6s}  {j['verdict']}")
    return 1 if worse else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", help="checkout of the parent commit")
    ap.add_argument("--change", help="checkout of the change")
    ap.add_argument("--pairs", type=int, default=MIN_PAIRS)
    ap.add_argument("--workloads", help="comma-separated subset (default: all)")
    ap.add_argument("--seed0", type=int, default=1000, help="seed of the first pair")
    ap.add_argument("--save", help="write the raw runs to this JSON file")
    ap.add_argument("--load", help="judge runs saved by --save instead of running")
    args = ap.parse_args()

    if args.load:
        with open(args.load) as f:
            saved = json.load(f)
        return report(saved["benchmark"], saved["runs"])
    if not args.parent or not args.change:
        ap.error("--parent and --change are required unless --load is given")

    benches = []
    for checkout in (args.parent, args.change):
        with open(os.path.join(checkout, "BENCHMARK.json")) as f:
            benches.append(json.load(f))
    if benches[0] != benches[1]:
        print("warning: BENCHMARK.json differs between the checkouts; using the parent's",
              file=sys.stderr)
    bench = benches[0]
    seconds = bench["run_seconds"]  # the benchmark fixes the run length for both sides
    names = [w["name"] for w in bench["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names

    runs = {}
    for workload in workloads:
        sides = {"parent": [], "change": []}
        for i in range(args.pairs):
            seed = args.seed0 + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                sides[side].append(run_once(checkout, workload, seed, seconds))
            print(f"{workload}: pair {i + 1}/{args.pairs} done", file=sys.stderr)
        runs[workload] = sides
        if args.save:
            with open(args.save, "w") as f:
                json.dump({"benchmark": bench, "runs": runs}, f)
    return report(bench, runs)


if __name__ == "__main__":
    sys.exit(main())

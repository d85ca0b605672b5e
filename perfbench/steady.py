#!/usr/bin/env python3
"""Steadiness report for the PDDL host-cost benchmark.

Collect N runs per workload, each with another seed:

    python3 perfbench/steady.py collect --out DIR [--runs 10]
        [--seed-base 100] [--workloads array_grid,autotune] [--trace 0]

Reduce one set of runs, or compare two sets of the same code:

    python3 perfbench/steady.py report DIR [DIR2]

For every (workload, metric) the report gives the run count, the
median, the first and third quartiles (statistics.quantiles, n=4) and
the spread (q3 - q1) / median, and flags a spread wider than the
metric's bound in BENCHMARK.json. Given a second set it also gives the
second median's shift in the metric's worse direction, flagged past
the bound. Exit status 1 when anything is flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def catalog(bench, trace):
    """Metric name -> its BENCHMARK.json entry, for one run kind."""
    entries = bench["per_layer"] if trace else bench["end_to_end"]
    return {m["name"]: m for m in entries}


def collect(args):
    bench = load_benchmark()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    os.makedirs(args.out, exist_ok=True)
    failures = 0
    for workload in workloads:
        for i in range(args.runs):
            seed = args.seed_base + i
            command = [sys.executable, os.path.join(HERE, "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(bench["run_seconds"]),
                       "--trace", args.trace]
            done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            lines = done.stdout.strip().splitlines()
            last = lines[-1] if lines else ""
            path = os.path.join(args.out, "%s-%d.json" % (workload, seed))
            with open(path, "w") as f:
                f.write(last + "\n")
            ok = done.returncode == 0 and last.startswith("{")
            failures += 0 if ok else 1
            print("%s seed %d: exit %d %s" % (workload, seed,
                                             done.returncode, last[:160]),
                  flush=True)
    return 1 if failures else 0


def load_runs(directory):
    """workload -> metric -> [values], plus correctness counts."""
    runs = {}
    bad = 0
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        workload = name.rsplit("-", 1)[0]
        with open(os.path.join(directory, name)) as f:
            try:
                result = json.loads(f.read())
            except ValueError:
                bad += 1
                continue
        if not result.get("correct") or result.get("failed", 1) != 0:
            bad += 1
        for metric, entry in result["metrics"].items():
            runs.setdefault(workload, {}).setdefault(metric, []).append(
                entry["value"])
    return runs, bad


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def report(args):
    bench = load_benchmark()
    first, bad = load_runs(args.dirs[0])
    second, bad2 = (load_runs(args.dirs[1]) if len(args.dirs) > 1
                    else (None, 0))
    flagged = bad + bad2
    if flagged:
        print("runs that failed their correctness check: %d" % flagged)
    header = "%-16s %-20s %3s %14s %14s %14s %8s %6s" % (
        "workload", "metric", "n", "median", "q1", "q3", "spread",
        "bound")
    if second is not None:
        header += " %14s %8s" % ("median2", "shift")
    print(header)
    for workload in sorted(first):
        trace = "wall_s" not in first[workload]
        known = catalog(bench, trace)
        for metric, values in first[workload].items():
            entry = known.get(metric)
            if entry is None or len(values) < 2:
                continue
            bound = entry.get("bound")
            med, q1, q3, spread = summary(values)
            flag = ""
            if bound is not None and spread > bound:
                flag = " SPREAD>BOUND"
            line = "%-16s %-20s %3d %14.6g %14.6g %14.6g %8.4f %6s" % (
                workload, metric, len(values), med, q1, q3, spread,
                "-" if bound is None else "%.2f" % bound)
            if second is not None and metric in second.get(workload, {}):
                med2 = statistics.median(second[workload][metric])
                worse = ((med2 - med) / med if entry["better"] == "lower"
                         else (med - med2) / med) if med else 0.0
                line += " %14.6g %8.4f" % (med2, worse)
                if bound is not None and worse > bound:
                    flag += " SHIFT>BOUND"
            if flag:
                flagged += 1
            print(line + flag)
    return 1 if flagged else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--out", required=True)
    c.add_argument("--runs", type=int, default=10)
    c.add_argument("--seed-base", type=int, default=100)
    c.add_argument("--workloads", default="")
    c.add_argument("--trace", choices=["0", "1"], default="0")
    r = sub.add_parser("report")
    r.add_argument("dirs", nargs="+")
    args = parser.parse_args()
    return collect(args) if args.command == "collect" else report(args)


if __name__ == "__main__":
    sys.exit(main())

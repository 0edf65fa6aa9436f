#!/usr/bin/env python3
"""Steadiness check: runs each workload k times and reports the spread.

    python3 perfbench/steadiness.py [--runs 10] [--workloads a,b] \
        [--seconds S] [--first-seed 1] [--trace 0|1] [--json FILE] \
        [--compare EARLIER.json]

Run it from the repository root. Run i uses seed first_seed + i. For every
metric it prints the median, the quartiles (statistics.quantiles, n=4) and
the spread (Q3 - Q1) / median. With --compare it also prints the shift of
each median from the same metric's median in an earlier --json table,
signed so that a positive shift is a change for the worse. An end-to-end
metric is flagged when its spread, or its shift for the worse, exceeds its
bound in BENCHMARK.json. Exits 1 when any run fails or any metric is
flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seconds", type=int, default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", default="", help="write the table here too")
    parser.add_argument("--compare", default="", help="an earlier --json table")
    args = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower_is_better = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    earlier = {}
    if args.compare:
        with open(args.compare, encoding="utf-8") as f:
            earlier = json.load(f)["workloads"]
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]

    report = {"runs": args.runs, "seconds": seconds, "trace": args.trace,
              "first_seed": args.first_seed, "compared_to": args.compare or None,
              "workloads": {}}
    bad = False
    for workload in workloads:
        samples = {}
        units = {}
        for i in range(args.runs):
            result = run_once(workload, args.first_seed + i, seconds, args.trace)
            if result is None or not result["correct"]:
                print(f"{workload}: run {i} (seed {args.first_seed + i}) failed")
                bad = True
                continue
            for name, m in result["metrics"].items():
                samples.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print(f"\n{workload}  ({args.runs} runs x {seconds} s)")
        print(f"{'metric':42} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} "
              f"{'shift':>8}  bound")
        rows = {}
        for name, values in samples.items():
            if len(values) < 2:
                continue
            q1, med, q3, s = spread(values)
            bound = bounds.get(name)
            row = {"unit": units[name], "median": med, "q1": q1, "q3": q3,
                   "spread": s, "bound": bound, "values": values}
            before = earlier.get(workload, {}).get(name)
            shift = None
            if before is not None and before["median"]:
                shift = (med - before["median"]) / before["median"]
                if not lower_is_better.get(name, True):
                    shift = -shift
                row["shift"] = shift
            flag = bound is not None and (s > bound or (shift is not None and shift > bound))
            bad = bad or flag
            rows[name] = row
            print(f"{name:42} {med:14.6g} {q1:14.6g} {q3:14.6g} {s:8.2%} "
                  f"{'' if shift is None else format(shift, '8.2%'):>8}  "
                  f"{'' if bound is None else format(bound, '.0%')}"
                  f"{'  OVER BOUND' if flag else ''}")
        report["workloads"][workload] = rows
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

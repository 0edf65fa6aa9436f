#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload paper_sync|tcp_flood \
        --seed N --seconds S --trace 0|1

Run it from the repository root. The build goes to $CARGO_TARGET_DIR, or
.bench_build when that is unset; spans of traced runs go to <build>/out.
The last line of standard output is the run's JSON result. The exit code is
the benchmark's: 0 for a correct run, non-zero on any delivery violation, on
a failed build, or when the result does not match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def build(root, build_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=False)
        if done.returncode != 0:
            return None
    return os.path.join(build_dir, "perfbench")


def expected_metrics(root, trace):
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, expected):
    """Returns a reason the result line is malformed, or None."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys differ from correct/attempted/failed/metrics"
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        return "metric names or units differ from BENCHMARK.json"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(root, build_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print("perfbench: run timed out", file=sys.stderr)
            return 3
    lines = stdout.strip().splitlines()
    if not lines:
        print("perfbench: no result", file=sys.stderr)
        return 3
    problem = check_result(lines[-1], expected_metrics(root, args.trace == 1))
    if problem is not None:
        print("perfbench: " + problem, file=sys.stderr)
        return 3
    print("\n".join(lines))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

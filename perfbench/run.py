#!/usr/bin/env python3
"""Build the program from this checkout and run the binary-in -> report-out
benchmark.

    python3 perfbench/run.py [--workload cold_flow|design_sweep|serve_mix|all]
                             [--seed N] [--seconds S] [--trace 0|1]

One workload prints its metric table and, as the last line, one JSON object
with the keys correct, attempted, failed and metrics.  `--workload all` (the
default) runs the three workloads in turn and ends with one combined line
whose metric names carry the workload as a prefix.  In that line, attempted
and failed total the workloads BENCHMARK.json gates; every workload's own
counts are the metrics <workload>.attempted and <workload>.failed.  The exit
code is 0 only when every workload ran and every output check passed.
--seconds defaults to BENCHMARK.json's run_seconds.  README.md explains
workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["cold_flow", "design_sweep", "serve_mix"]
RUN_TIMEOUT_S = 170

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures once, then builds incrementally; returns the binary."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "b2h-perfbench",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(step))
    return os.path.join(out, "b2h-perfbench")


def run(binary, workload, args, capture):
    """Runs one workload; None when it did not finish in time."""
    # A relative run dir keeps the daemon's unix socket path short.
    run_dir = os.path.relpath(os.path.join(build_dir(), "run"), ROOT)
    os.makedirs(os.path.join(ROOT, run_dir), exist_ok=True)
    command = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--run-dir", run_dir]
    try:
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return None


def run_all(binary, args, gated):
    """Runs every workload and prints one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        done = run(binary, workload, args, capture=True)
        lines = done.stdout.rstrip("\n").split("\n") if done else [""]
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print("\n".join(lines), flush=True)
            print(f"perfbench: {workload} printed no result line",
                  file=sys.stderr)
            status = 1
            continue
        print("\n".join(lines[:-1]), flush=True)
        combined["correct"] = combined["correct"] and result["correct"]
        if workload in gated:
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
        for name in ("attempted", "failed"):
            combined["metrics"][f"{workload}.{name}"] = {
                "value": result[name], "unit": "count"}
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
        status = status or done.returncode
    print(json.dumps(combined))
    return status


def main():
    bench = spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = build()
    if args.workload != "all":
        done = run(binary, args.workload, args, capture=False)
        sys.exit(done.returncode if done else 1)
    gated = {workload["name"] for workload in bench["workloads"]}
    sys.exit(run_all(binary, args, gated))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Steadiness helper: repeat each workload over several seeds and print, for
every end-to-end metric, its median, quartiles and spread against the bound
BENCHMARK.json fixes for it.

    python3 perfbench/steady.py [--workloads cold_flow,design_sweep,serve_mix]
                                [--seeds 1-10] [--seconds S]
                                [--save FILE] [--compare FILE]

spread = (q3 - q1) / median, with the quartiles of statistics.quantiles(n=4).
A metric is "steady" below a third of its bound and "wide" above the bound.
--save writes the raw values; --compare checks this set's medians against a
saved set: a median worse than the saved one by more than the bound fails.
setup_s has no spread limit, but its medians are compared too.  Metrics a
workload prints that BENCHMARK.json does not list (serve_mix's per-class
timings) are shown with their spread and no verdict.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    last = done.stdout.rstrip("\n").split("\n")[-1]
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        print(f"  {workload} seed {seed}: NO RESULT (exit {done.returncode})\n"
              f"{done.stderr[-2000:]}")
        return {}
    if done.returncode != 0 or not result["correct"]:
        print(f"  {workload} seed {seed}: FAILED checks "
              f"({result['failed']} of {result['attempted']})")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--save")
    parser.add_argument("--compare")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    seeds = parse_seeds(args.seeds)

    values = {}
    for workload in workloads:
        values[workload] = {name: [] for name in metrics}
        for seed in seeds:
            for name, value in run_once(workload, seed, seconds).items():
                values[workload].setdefault(name, []).append(value)

    baseline = None
    if args.compare:
        with open(args.compare) as f:
            baseline = json.load(f)
    worst = "steady"
    for workload in workloads:
        print(f"\n{workload}: {len(seeds)} runs of {seconds} s")
        print(f"  {'metric':24} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}  verdict")
        extra = sorted(set(values[workload]) - set(metrics))
        for name in list(metrics) + extra:
            series = values[workload].get(name, [])
            if len(series) < 2:
                print(f"  {name:24} missing")
                worst = "wide"
                continue
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            if name not in metrics:
                print(f"  {name:24} {median:12.5g} {q1:12.5g} {q3:12.5g} "
                      f"{spread:8.4f} {'-':>6}  (not gated)")
                continue
            metric = metrics[name]
            bound = metric["bound"]
            if name == "setup_s":
                verdict = "(no spread limit)"
            elif spread < bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound"
                worst = "within bound" if worst == "steady" else worst
            else:
                verdict = "WIDE"
                worst = "wide"
            if baseline is not None:
                old = statistics.median(baseline[workload][name])
                worse = (median - old) / old if metric["better"] == "lower" \
                    else (old - median) / old
                verdict += f"; vs saved {worse:+.3f}"
                if worse > bound:
                    verdict += " WORSE"
                    worst = "wide"
            print(f"  {name:24} {median:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{spread:8.4f} {bound:6.3f}  {verdict}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f, indent=1)
    print(f"\noverall: {worst}")
    sys.exit(0 if worst != "wide" else 1)


if __name__ == "__main__":
    main()

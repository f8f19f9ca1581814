#!/usr/bin/env python3
"""Perf-trajectory gate for the bench job.

Diffs the current BENCH_*.json records (JSON Lines, schema 1 — see
bench/bench_json.hpp) against the previous successful main run's bench-json
artifact, fails on regressions beyond per-metric tolerances, and prints a
markdown trajectory table (stdout and, when available, the GitHub job
summary).

Usage:
  python3 ci/perf_trajectory.py --old PREV_DIR --new NEW_DIR [--summary FILE]

PREV_DIR may hold BENCH_*.json files directly (a single baseline run) or
one subdirectory per previous run (e.g. prev-bench/run-<id>/BENCH_*.json,
as the CI workflow downloads them).  With several runs the baseline for
each metric is the MEDIAN across the runs that recorded it — a rolling
window that a single noisy runner cannot drag around.

Three kinds of checks:

  * absolute gates: invariants of the current run alone (warm sweeps do
    zero work, the disk-warm report is bit-identical) — these fail even
    when no baseline artifact exists;
  * absolute minimum gates: floors the current run must clear on its own
    (the block-engine simulator speedup stays >= its release target, the
    explorer pool is never slower than one thread);
  * trajectory gates: metric-by-metric comparison against the baseline,
    with direction and tolerance chosen per metric family.  Deterministic
    quality metrics (speedups, convergence, hit rates) get tight gates;
    same-host measurement *ratios* (block_speedup) get a loose gate; raw
    host-time metrics (wall/ms/overhead, instr/sec) are tracked in the
    table but not gated, since successive shared CI runners differ too
    much even for a median baseline (see RULES).

A missing baseline directory or metric is reported but never fails the
gate (first run, renamed metric, new benchmark).
"""
import argparse
import glob
import json
import os
import statistics
import sys

# --- absolute gates: (metric, expected value) on the NEW run ----------------
ABSOLUTE_GATES = [
    ("warm_decompilations", 0.0),
    ("warm_partitions", 0.0),
    ("disk_warm_decompilations", 0.0),
    ("disk_warm_partitions", 0.0),
    ("disk_warm_report_identical", 1.0),
    # Serving invariants (tools/b2h_loadgen.cpp, BENCH_serve.json): the warm
    # subset of a mixed replay performs zero toolchain work, a burst of
    # identical requests computes its key exactly once (one partition; the
    # closure-run count serve_burst_executed is informational, since a
    # connection that trails a sub-millisecond computation runs a second,
    # cache-hit closure), concurrent reports are bit-identical to the
    # serial baseline, and the daemon exits cleanly with its socket removed.
    ("serve_warm_simulations", 0.0),
    ("serve_warm_decompilations", 0.0),
    ("serve_extra_partitions", 0.0),
    ("serve_burst_partitions", 1.0),
    ("serve_report_identical", 1.0),
    ("serve_shutdown_clean", 1.0),
    # The serve daemon's `metrics` endpoint returned a schema-stamped
    # registry snapshot consistent with the generated load
    # (tools/b2h_loadgen.cpp).
    ("serve_metrics_ok", 1.0),
    # The observability layer held its overhead budget on the simulator and
    # scheduler hot paths (bench/bench_obs.cpp self-gate; the raw overhead
    # percentages are host times and stay informational under RULES).
    ("obs_overhead_ok", 1.0),
    # Shared block cache invariant (bench/bench_simulator.cpp warm sweep):
    # re-constructing a Simulator for an already-measured binary must reuse
    # the process-wide pre-decode, never redo it.
    ("blockcache_warm_predecodes", 0.0),
    # The HTTP introspection plane replayed the framed request mix through
    # POST /v1/partition|/v1/explore and every report came back
    # byte-identical from the shared cache (tools/b2h_loadgen.cpp phase 5;
    # recorded only when the loadgen run passes --http-port, which CI does).
    ("serve_http_identical", 1.0),
]

# --- absolute minimum gates: (bench, metric, label, floor) on the NEW run ---
# block_speedup (ExecEngine::kBlock, the production engine, over the
# reference interpreter) must hold its 4x Release floor; the bench
# self-gates at the same value via B2H_SIM_SPEEDUP_GATE.
# grid_pool_scaling (serial / pool wall time of one-binary
# grid sweeps, bench_explore) must stay >= 1.0: the explorer pool is never
# slower than one thread, even when every point shares one CandidateSet.
# Its name avoids "speedup" on purpose: that rule's tight deterministic
# trajectory gate does not fit a host-time ratio.  Like the equality gates
# above, a missing record fails — renaming the metric must not silently
# disable the invariant.
ABSOLUTE_MIN_GATES = [
    ("simulator", "block_speedup", "suite_avg", 4.0),
    ("explore", "grid_pool_scaling", "", 1.0),
]

# --- trajectory gate rules, first match wins --------------------------------
# (substring, direction, relative tolerance, gated)
#   direction: "higher" = bigger is better, "lower" = smaller is better
#
# Host-time families (wall, time-to-kernel, overhead ratios) are tracked in
# the table but NOT gated: successive GitHub-hosted runners span different
# CPU generations, and the repo's own measurements show the identical
# detector-overhead reading 5-8% on one host and ~18% on another — a
# single-run baseline would flake on no-change PRs.  Deterministic model
# outputs (speedups, convergence, hit rates) are bit-stable, so any drift
# beyond rounding is a real code change and gets a tight gate.
RULES = [
    ("wall", "lower", None, False),             # host time: informational
    ("time_to_first_kernel", "lower", None, False),
    ("overhead", "lower", None, False),         # ratio of two host times
    ("gap", None, None, False),                 # informational either way
    ("instr_per_sec", "higher", None, False),   # raw host throughput
    # Daemon latencies/throughput are host times on shared runners, and the
    # remaining serve counters (coalesced totals, cache-tier split) depend
    # on scheduling interleavings: all informational.  The deterministic
    # serving invariants are ABSOLUTE_GATES above.
    ("serve_", None, None, False),
    # Shared-block-cache counters (hits/misses/bytes/hit_rate): process-shape
    # dependent totals tracked informationally — the deterministic zero-work
    # invariant is the blockcache_warm_predecodes ABSOLUTE_GATE above.  Must
    # precede the generic "hit_rate" rule (first match wins).
    ("blockcache", None, None, False),
    # Same-host measurement ratio (block engine vs the reference
    # interpreter, measured seconds apart on one runner): stable across CPU
    # generations, so it IS gated, with headroom for scheduler noise on
    # shared runners.  Must precede the generic "speedup" rule (first match
    # wins).
    ("block_speedup", "higher", 0.25, True),
    # Proposals the annealing walks made over bench_explore's cold grid
    # sweeps: a deterministic work count, not a host time.  The walk stops
    # once its best equals the best any subset scores, so a rise means the
    # exact stop stopped firing.
    ("annealing_proposals", "lower", 0.02, True),
    # CFG rebuilds (registry counter decomp.cfg_recomputes) the same sweeps'
    # decompilations made: a deterministic work count.  A rise means a pass
    # rebuilds the CFG more often for the same programs.
    ("cfg_recomputes", "lower", 0.02, True),
    ("speedup", "higher", 0.02, True),          # deterministic model outputs
    ("convergence", "higher", 0.02, True),
    ("hit_rate", "higher", 0.02, True),
    ("energy", None, None, False),
]


def rule_for(metric):
    for substring, direction, tolerance, gated in RULES:
        if substring in metric:
            return direction, tolerance, gated
    return None, None, False


def load_records(directory):
    records = {}
    for path in sorted(glob.glob(os.path.join(directory, "BENCH_*.json"))):
        if path.endswith("BENCH_partition_time.json"):
            continue  # google-benchmark format, not our JSON-lines schema
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if rec.get("schema") != 1:
                    continue
                key = (rec.get("bench", ""), rec.get("metric", ""),
                       rec.get("label", ""))
                records[key] = float(rec.get("value", 0.0))
    return records


def load_baseline(directory):
    """Baseline records from PREV_DIR: BENCH_*.json directly (one run)
    and/or one run per subdirectory.  Returns ({key: median-value}, runs)."""
    if not os.path.isdir(directory):
        return {}, 0
    runs = []
    direct = load_records(directory)
    if direct:
        runs.append(direct)
    for entry in sorted(os.listdir(directory)):
        sub = os.path.join(directory, entry)
        if os.path.isdir(sub):
            records = load_records(sub)
            if records:
                runs.append(records)
    if not runs:
        return {}, 0
    merged = {}
    all_keys = set()
    for records in runs:
        all_keys.update(records)
    for key in all_keys:
        merged[key] = statistics.median(
            records[key] for records in runs if key in records)
    return merged, len(runs)


def fmt(value):
    return f"{value:.4g}"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--old", required=True,
                        help="previous run's bench-json directory")
    parser.add_argument("--new", required=True,
                        help="this run's bench output directory")
    parser.add_argument("--summary", default=os.environ.get(
        "GITHUB_STEP_SUMMARY", ""), help="markdown summary file to append to")
    args = parser.parse_args()

    new = load_records(args.new)
    if not new:
        print(f"ERROR: no schema-1 BENCH_*.json records under {args.new}")
        return 1
    old, old_runs = load_baseline(args.old)

    failures = []
    rows = []

    # Absolute gates first: they hold with or without a baseline.  A gated
    # metric that vanishes from the bench output is itself a failure —
    # otherwise renaming/dropping the record would silently disable the
    # zero-work invariant this gate exists to enforce.
    for metric, expected in ABSOLUTE_GATES:
        matched = False
        for (bench, name, label), value in sorted(new.items()):
            if name != metric:
                continue
            matched = True
            ok = value == expected
            rows.append((bench, name, label, "—", fmt(value), "—",
                         "ok" if ok else "**FAIL**"))
            if not ok:
                failures.append(
                    f"{bench}/{name}[{label}] = {fmt(value)}, "
                    f"expected {fmt(expected)}")
        if not matched:
            rows.append(("?", metric, "", "—", "missing", "—", "**FAIL**"))
            failures.append(
                f"gated metric '{metric}' is absent from the new bench "
                "records — the invariant is no longer being measured")

    for gate_bench, gate_metric, gate_label, floor in ABSOLUTE_MIN_GATES:
        key = (gate_bench, gate_metric, gate_label)
        if key not in new:
            rows.append((gate_bench, gate_metric, gate_label, "—", "missing",
                         "—", "**FAIL**"))
            failures.append(
                f"gated metric '{gate_metric}[{gate_label}]' is absent from "
                "the new bench records — the floor is no longer being "
                "measured")
            continue
        ok = new[key] >= floor
        rows.append((gate_bench, gate_metric, gate_label,
                     f">={fmt(floor)}", fmt(new[key]), "—",
                     "ok" if ok else "**FAIL**"))
        if not ok:
            failures.append(
                f"{gate_bench}/{gate_metric}[{gate_label}] = "
                f"{fmt(new[key])} is below the {fmt(floor)} floor")

    if not old:
        note = (f"no baseline bench-json under '{args.old}' — "
                "trajectory comparison skipped (first run?)")
        print(note)
    else:
        print(f"baseline: median of {old_runs} previous run(s)")
        for key in sorted(new):
            bench, metric, label = key
            if any(metric == gate for gate, _ in ABSOLUTE_GATES):
                continue  # already covered above
            direction, tolerance, gated = rule_for(metric)
            if key not in old:
                rows.append((bench, metric, label, "—", fmt(new[key]), "new",
                             "info"))
                continue
            prev, now = old[key], new[key]
            delta = (now - prev) / abs(prev) if prev != 0 else (
                0.0 if now == 0 else float("inf"))
            status = "info"
            if gated and direction is not None:
                regressed = (delta < -tolerance if direction == "higher"
                             else delta > tolerance)
                status = "**FAIL**" if regressed else "ok"
                if regressed:
                    failures.append(
                        f"{bench}/{metric}[{label}]: {fmt(prev)} -> "
                        f"{fmt(now)} ({delta:+.1%}, tolerance "
                        f"{tolerance:.0%}, {direction} is better)")
            rows.append((bench, metric, label, fmt(prev), fmt(now),
                         f"{delta:+.1%}", status))

    # Markdown trajectory table: gated/changed rows first, capped for
    # readability; the row cap is reported so truncation is never silent.
    interesting = [r for r in rows if r[6] != "info" or r[5] == "new"]
    cap = 120
    shown = interesting[:cap]
    lines = ["## Perf trajectory", "",
             "| bench | metric | label | previous | current | Δ | status |",
             "|---|---|---|---|---|---|---|"]
    for bench, metric, label, prev, now, delta, status in shown:
        lines.append(
            f"| {bench} | {metric} | {label} | {prev} | {now} | {delta} "
            f"| {status} |")
    if len(interesting) > cap:
        lines.append("")
        lines.append(f"({len(interesting) - cap} more rows not shown)")
    if not old:
        lines.append("")
        lines.append("_No baseline artifact — trajectory comparison "
                     "skipped._")
    else:
        lines.append("")
        lines.append(f"_Baseline: median of {old_runs} previous successful "
                     "main run(s)._")
    if failures:
        lines.append("")
        lines.append("### Regressions")
        for failure in failures:
            lines.append(f"- {failure}")
    report = "\n".join(lines)
    print(report)
    if args.summary:
        with open(args.summary, "a", encoding="utf-8") as handle:
            handle.write(report + "\n")

    if failures:
        print(f"\nFAIL: {len(failures)} perf regression(s)")
        return 1
    print(f"\nOK: {len(new)} metrics checked, "
          f"{len(old)} baseline metrics, no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())

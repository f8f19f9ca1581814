#!/usr/bin/env python3
"""Validate a Chrome trace-event JSON file produced by --trace-out.

Usage:
  python3 ci/validate_trace.py TRACE.json [--require-categories a,b,c]
                                          [--require-spans x,y,z]

Checks (non-zero exit on the first failure):

  * the file parses as JSON and has the {"traceEvents": [...]} shape the
    obs::Tracer exporter emits (Perfetto/chrome://tracing loadable);
  * the ring dropped nothing (otherData.dropped == 0) unless
    --allow-dropped is passed — a CI sweep's ring must hold every span;
  * every event is a complete ("X") span with the required fields, a
    non-negative ts/dur, and a span_id arg;
  * events are sorted by ts (the exporter's contract) and the earliest
    span sits at ts == 0 (times are relative to the first span);
  * span ids are unique;
  * every required category (default: the end-to-end flow set decomp,
    partition, explore, cache) appears at least once — a traced cold
    sweep that misses one of these lost a whole subsystem's spans;
  * every span name passed to --require-spans (default: none) appears at
    least once — a layer whose span is missing cannot be attributed.

A parent_id pointing at a span that is not in the file is reported but not
fatal: the ring may legitimately have dropped an old parent on very long
sessions.
"""
import argparse
import json
import sys

REQUIRED_EVENT_FIELDS = ("name", "cat", "ph", "ts", "dur", "pid", "tid",
                         "args")
DEFAULT_CATEGORIES = "decomp,partition,explore,cache"


def fail(message):
    print(f"validate_trace: FAIL: {message}")
    return 1


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("trace", help="Chrome trace-event JSON file")
    parser.add_argument("--require-categories", default=DEFAULT_CATEGORIES,
                        help="comma-separated categories that must appear "
                             f"(default: {DEFAULT_CATEGORIES}; '' disables)")
    parser.add_argument("--require-spans", default="",
                        help="comma-separated span names that must appear "
                             "(default: none)")
    parser.add_argument("--allow-dropped", action="store_true",
                        help="tolerate otherData.dropped > 0 (long sessions "
                             "legitimately wrap the ring)")
    args = parser.parse_args()

    try:
        with open(args.trace, encoding="utf-8") as handle:
            trace = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        return fail(f"cannot load {args.trace}: {error}")

    if not isinstance(trace, dict) or not isinstance(
            trace.get("traceEvents"), list):
        return fail("top level must be an object with a traceEvents list")
    events = trace["traceEvents"]
    if not events:
        return fail("trace contains no events")

    # The exporter stamps ring losses into otherData.dropped.  On the CI
    # traced sweep the ring must be sized to hold everything: a drop means
    # the trace silently lost spans, which defeats the category check
    # below.  --allow-dropped opts out for long-session captures.
    other_data = trace.get("otherData", {})
    dropped = other_data.get("dropped", 0) if isinstance(
        other_data, dict) else 0
    if dropped and not args.allow_dropped:
        return fail(f"{dropped} span(s) were dropped by the ring "
                    "(size the ring up, or pass --allow-dropped)")

    seen_ids = set()
    categories = {}
    names = set()
    last_ts = None
    for index, event in enumerate(events):
        where = f"event #{index}"
        if not isinstance(event, dict):
            return fail(f"{where} is not an object")
        for field in REQUIRED_EVENT_FIELDS:
            if field not in event:
                return fail(f"{where} is missing '{field}'")
        if event["ph"] != "X":
            return fail(f"{where} has phase '{event['ph']}', expected "
                        "complete spans ('X')")
        ts, dur = event["ts"], event["dur"]
        if not isinstance(ts, (int, float)) or ts < 0:
            return fail(f"{where} has invalid ts {ts!r}")
        if not isinstance(dur, (int, float)) or dur < 0:
            return fail(f"{where} has invalid dur {dur!r}")
        if last_ts is not None and ts < last_ts:
            return fail(f"{where} breaks monotonic start order "
                        f"({ts} after {last_ts})")
        last_ts = ts
        span_id = event["args"].get("span_id")
        if not isinstance(span_id, int) or span_id <= 0:
            return fail(f"{where} has invalid span_id {span_id!r}")
        if span_id in seen_ids:
            return fail(f"{where} duplicates span_id {span_id}")
        seen_ids.add(span_id)
        categories[event["cat"]] = categories.get(event["cat"], 0) + 1
        names.add(event["name"])
    if events[0]["ts"] != 0:
        return fail(f"earliest span starts at ts={events[0]['ts']}, "
                    "expected 0 (relative timestamps)")

    dangling = sum(
        1 for event in events
        if isinstance(event["args"].get("parent_id"), int)
        and event["args"]["parent_id"] not in seen_ids)
    if dangling:
        print(f"validate_trace: note: {dangling} span(s) reference a parent "
              "outside the file (ring drop on a long session)")

    required = [c for c in args.require_categories.split(",") if c]
    missing = [c for c in required if c not in categories]
    if missing:
        return fail(f"required categories missing: {', '.join(missing)} "
                    f"(present: {', '.join(sorted(categories))})")

    required_spans = [n for n in args.require_spans.split(",") if n]
    missing_spans = [n for n in required_spans if n not in names]
    if missing_spans:
        return fail(f"required spans missing: {', '.join(missing_spans)}")

    summary = ", ".join(f"{name}={count}"
                        for name, count in sorted(categories.items()))
    print(f"validate_trace: OK: {len(events)} spans ({summary})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

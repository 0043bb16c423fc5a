#!/usr/bin/env python3
"""Validate a Chrome trace-event JSON exported by acrobat/trace.

Usage: check_trace.py <trace.json> [--require trigger,batch,shed]

Structural checks (DESIGN.md §9):
  - the file parses and has a traceEvents array with at least one named track
  - complete-event ("X") spans on each (pid, tid) track nest properly:
    sorted by start time, no span partially overlaps an enclosing one
  - every "batch" span is contained in a "trigger" span — a batch executed
    outside a trigger would mean the instrumentation (or the engine) lost
    the trigger boundary
  - each --require token names an event kind that must appear at least
    once; tokens prefix-match ("fiber" accepts fiber_spawn, fiber_block, …)

Exemplar "slow_request" spans live on sibling tracks (tid >= 1000) and are
[admit, completion] intervals of concurrent requests, so they legitimately
overlap and are exempt from the nesting check.

Exit 0 when clean, 1 with a report otherwise. CI runs this on the trace
that fleet_frontier exports under ACROBAT_TRACE_JSON.
"""
import argparse
import json
import sys
from collections import defaultdict

# Timestamps are microseconds printed with ns resolution (%.3f); allow one
# ulp of that rounding when comparing span boundaries.
EPS = 0.0015


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("trace")
    ap.add_argument("--require", default="",
                    help="comma-separated event-name prefixes that must appear")
    args = ap.parse_args()

    try:
        with open(args.trace) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"check_trace: cannot load {args.trace}: {e}")

    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        sys.exit(f"check_trace: {args.trace} has no traceEvents")

    errors = []
    tracks = defaultdict(list)   # (pid, tid) -> [span dict]
    names_seen = set()
    track_names = 0

    for i, e in enumerate(events):
        ph = e.get("ph")
        if ph == "M":
            if e.get("name") == "thread_name":
                track_names += 1
            continue
        if ph == "C":
            val = e.get("args", {}).get("value")
            if not isinstance(val, (int, float)):
                errors.append(f"event {i}: counter {e.get('name')!r} "
                              f"has non-numeric value {val!r}")
            continue
        name = e.get("name", "")
        names_seen.add(name)
        if ph == "X":
            ts, dur = e.get("ts"), e.get("dur")
            if not isinstance(ts, (int, float)) or not isinstance(dur, (int, float)):
                errors.append(f"event {i}: span {name!r} missing ts/dur")
                continue
            if dur < 0:
                errors.append(f"event {i}: span {name!r} has negative dur {dur}")
                continue
            key = (e.get("pid", 0), e.get("tid", 0))
            tracks[key].append({"ts": ts, "end": ts + dur, "name": name, "i": i})
        elif ph == "i":
            if not isinstance(e.get("ts"), (int, float)):
                errors.append(f"event {i}: instant {name!r} missing ts")
        else:
            errors.append(f"event {i}: unknown phase {ph!r}")

    if track_names == 0:
        errors.append("no thread_name metadata events (no named tracks)")

    # Proper nesting per track; batch spans must sit inside a trigger span.
    for (pid, tid), spans in sorted(tracks.items()):
        if tid >= 1000:
            continue  # exemplar tracks: overlapping request intervals
        spans.sort(key=lambda s: (s["ts"], -s["end"]))
        stack = []
        for s in spans:
            while stack and stack[-1]["end"] <= s["ts"] + EPS:
                stack.pop()
            if stack and s["end"] > stack[-1]["end"] + EPS:
                errors.append(
                    f"track pid={pid} tid={tid}: span {s['name']!r} "
                    f"[{s['ts']:.3f}, {s['end']:.3f}] overlaps enclosing "
                    f"{stack[-1]['name']!r} ending {stack[-1]['end']:.3f} "
                    f"(event {s['i']})")
            if s["name"] == "batch" and not any(
                    t["name"] == "trigger" for t in stack):
                errors.append(
                    f"track pid={pid} tid={tid}: batch span at {s['ts']:.3f} "
                    f"not inside a trigger span (event {s['i']})")
            stack.append(s)

    for token in filter(None, (t.strip() for t in args.require.split(","))):
        if not any(n.startswith(token) for n in names_seen):
            errors.append(f"required event {token!r} never appears "
                          f"(saw: {', '.join(sorted(names_seen))})")

    n_spans = sum(len(s) for s in tracks.values())
    if errors:
        for msg in errors:
            print(f"check_trace: {msg}", file=sys.stderr)
        sys.exit(1)
    print(f"check_trace: OK — {len(events)} events, {n_spans} spans over "
          f"{len(tracks)} span tracks, {track_names} named tracks")


if __name__ == "__main__":
    main()

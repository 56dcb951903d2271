#!/usr/bin/env python3
"""Validate a `repro ... trace` Chrome trace artifact.

The artifact (results/trace/trace-<scale>.json) is a Chrome trace-event
JSON array, one event per line, recorded under vliw-trace's logical
clock. This checker fails when:

* the file is not a JSON array of event objects, or is empty;
* logical timestamps are not strictly monotone over the whole recording
  (the logical clock is a process-wide sequence number: event n must
  carry ts > event n-1, whatever track it is on);
* span begin/end events ("ph": "B"/"E") are unbalanced on any track, or
  an "E" closes a span whose name does not match the innermost open "B"
  (spans nest strictly; the Span drop guard guarantees this);
* any instrumented stage recorded zero completed spans — a silent
  de-instrumentation of the pipeline would otherwise pass CI.

Usage: check_trace.py TRACE.json
"""

import json
import sys

# Every instrumented stage must appear at least once in the repro trace:
# the prepare pipeline (profiling included), both scheduler backends, the cache fill path,
# the unroll-selection driver and the simulator.
REQUIRED_SPANS = [
    "prepare.profile",
    "prepare.ddg",
    "prepare.pins",
    "prepare.latency",
    "prepare.mii",
    "prepare.order",
    "backend.swing",
    "backend.bnb",
    "cache.fill",
    "prepare_loop",
    "sim.loop",
]

# Point events and counters the instrumented pass must have emitted.
REQUIRED_INSTANTS = ["cache.miss", "cache.hit", "sim.window", "bnb.solve"]
REQUIRED_COUNTERS = ["batch.queue_depth"]


def main():
    if len(sys.argv) != 2:
        print(__doc__)
        return 2
    path = sys.argv[1]
    with open(path) as f:
        events = json.load(f)
    if not isinstance(events, list) or not events:
        print(f"FAIL: {path} is not a non-empty JSON array")
        return 1
    print(f"{path}: {len(events)} events")

    failed = False
    last_ts = 0
    stacks = {}  # tid -> [name, ...]
    span_counts = {}
    instant_counts = {}
    counter_names = set()
    for i, ev in enumerate(events):
        name, ph, ts, tid = ev["name"], ev["ph"], ev["ts"], ev["tid"]
        if ts <= last_ts:
            print(f"FAIL: event {i} ({name}): ts {ts} not above predecessor {last_ts}")
            failed = True
        last_ts = ts
        if ph == "B":
            stacks.setdefault(tid, []).append(name)
        elif ph == "E":
            stack = stacks.setdefault(tid, [])
            if not stack:
                print(f"FAIL: event {i} ({name}): span end with no open span on tid {tid}")
                failed = True
            elif stack[-1] != name:
                print(
                    f"FAIL: event {i}: span end '{name}' does not match "
                    f"innermost open span '{stack[-1]}' on tid {tid}"
                )
                failed = True
            else:
                stack.pop()
                span_counts[name] = span_counts.get(name, 0) + 1
        elif ph == "i":
            instant_counts[name] = instant_counts.get(name, 0) + 1
        elif ph == "C":
            counter_names.add(name)
        else:
            print(f"FAIL: event {i} ({name}): unknown phase {ph!r}")
            failed = True

    for tid, stack in sorted(stacks.items()):
        if stack:
            print(f"FAIL: tid {tid} ends with unclosed spans: {stack}")
            failed = True

    for name in REQUIRED_SPANS:
        n = span_counts.get(name, 0)
        print(f"span {name}: {n}")
        if n == 0:
            print(f"FAIL: instrumented stage '{name}' recorded no spans")
            failed = True
    for name in REQUIRED_INSTANTS:
        n = instant_counts.get(name, 0)
        print(f"instant {name}: {n}")
        if n == 0:
            print(f"FAIL: instant '{name}' never recorded")
            failed = True
    for name in REQUIRED_COUNTERS:
        present = name in counter_names
        print(f"counter {name}: {'present' if present else 'MISSING'}")
        if not present:
            print(f"FAIL: counter '{name}' never sampled")
            failed = True

    if failed:
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

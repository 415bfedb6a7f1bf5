#!/usr/bin/env python3
"""Summarize a --trace Chrome-trace JSON as a virtual-time breakdown.

The bench harness's --trace=<path> flag dumps the obs::TraceLog as
Chrome trace_event JSON (load it in Perfetto / chrome://tracing for the
interactive view). This tool prints the terminal companion: a per-track,
per-phase table of virtual milliseconds, so a CI log answers "where did
the virtual time go — scan vs re-order vs sweep reads vs per-shard
device work?" without opening a UI.

Span names follow "<component>.<phase>" ("store.scan",
"dispatch.commit", "io.drain"); per-shard lanes are tracks named
"io/shard<k>", where a ShardedBlockDevice records one "io.drain" span for
each shard's part of every call (ShardedBlockDevice::set_trace).
Attribute args (level, shards, reqs, stall) are aggregated where
present. Nested spans overlap by construction (a store.scan contains its
io.drain), so rows are per-(track, name) and do not sum to wall totals;
the table orders by total virtual ms.

Usage:
  tools/trace_summary.py trace.json
  tools/trace_summary.py trace.json --top 25
"""

import argparse
import collections
import json
import sys


def load_events(path):
    with open(path) as fh:
        doc = json.load(fh)
    return doc.get("traceEvents", [])


def track_names(events):
    """tid -> thread_name from the metadata records."""
    names = {}
    for ev in events:
        if ev.get("ph") == "M" and ev.get("name") == "thread_name":
            names[ev.get("tid", 0)] = ev.get("args", {}).get("name", "?")
    return names


class Row:
    __slots__ = ("count", "virtual_ms", "wall_ms", "levels", "max_arg")

    def __init__(self):
        self.count = 0
        self.virtual_ms = 0.0
        self.wall_ms = 0.0
        self.levels = collections.Counter()
        self.max_arg = {}


def summarize(events, names):
    """(track, span name) -> Row over all complete ('X') events."""
    rows = collections.defaultdict(Row)
    for ev in events:
        if ev.get("ph") != "X":
            continue
        track = names.get(ev.get("tid", 0), str(ev.get("tid", 0)))
        row = rows[(track, ev.get("name", "?"))]
        row.count += 1
        row.virtual_ms += ev.get("dur", 0) / 1000.0  # us -> virtual ms
        args = ev.get("args", {})
        row.wall_ms += args.get("wall_us", 0) / 1000.0
        if "level" in args:
            row.levels[args["level"]] += 1
        for key in ("reqs", "n", "records", "passes", "stall", "shards"):
            if key in args:
                row.max_arg[key] = max(row.max_arg.get(key, 0), args[key])
    return rows


def span_table(rows, top):
    out = []
    ordered = sorted(rows.items(), key=lambda kv: -kv[1].virtual_ms)
    header = (f"{'track':<14} {'span':<22} {'count':>7} "
              f"{'virtual_ms':>12} {'wall_ms':>10}  attributes")
    out.append(header)
    out.append("-" * len(header))
    for (track, name), row in ordered[:top]:
        attrs = []
        if row.levels:
            per_level = ",".join(
                f"L{lvl}:{cnt}" for lvl, cnt in sorted(row.levels.items()))
            attrs.append(f"levels[{per_level}]")
        for key, value in sorted(row.max_arg.items()):
            attrs.append(f"max_{key}={value}")
        out.append(f"{track:<14} {name:<22} {row.count:>7} "
                   f"{row.virtual_ms:>12.3f} {row.wall_ms:>10.3f}  "
                   f"{' '.join(attrs)}")
    return "\n".join(out)


def shard_table(rows):
    """Per-shard device/drain utilization from the io/shard<k> tracks."""
    shards = collections.defaultdict(lambda: [0, 0.0])
    for (track, _name), row in rows.items():
        if "/shard" not in track:
            continue
        entry = shards[track]
        entry[0] += row.count
        entry[1] += row.virtual_ms
    if not shards:
        return ""
    out = ["", f"{'shard track':<18} {'drains':>8} {'virtual_ms':>12}"]
    out.append("-" * 40)
    for track in sorted(shards):
        count, ms = shards[track]
        out.append(f"{track:<18} {count:>8} {ms:>12.3f}")
    return "\n".join(out)


def request_stats(events):
    """Async dispatch.request intervals -> count and virtual latency."""
    begins, latencies = {}, []
    for ev in events:
        if ev.get("ph") == "b":
            begins[ev.get("id")] = ev.get("ts", 0)
        elif ev.get("ph") == "e":
            t0 = begins.pop(ev.get("id"), None)
            if t0 is not None:
                latencies.append((ev.get("ts", 0) - t0) / 1000.0)
    if not latencies:
        return ""
    latencies.sort()

    def pct(q):
        idx = min(len(latencies) - 1, int(q / 100.0 * len(latencies)))
        return latencies[idx]

    return ("\nrequests: {n}  virtual latency ms  "
            "p50={p50:.3f}  p90={p90:.3f}  p99={p99:.3f}  max={mx:.3f}"
            .format(n=len(latencies), p50=pct(50), p90=pct(90),
                    p99=pct(99), mx=latencies[-1]))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="Chrome-trace JSON from --trace=")
    parser.add_argument("--top", type=int, default=20,
                        help="max span rows to print")
    args = parser.parse_args()

    events = load_events(args.trace)
    if not events:
        print(f"{args.trace}: no traceEvents", file=sys.stderr)
        return 1
    names = track_names(events)
    rows = summarize(events, names)

    counters = sum(1 for ev in events if ev.get("ph") == "C")
    print(f"{args.trace}: {len(events)} events, "
          f"{len(names)} tracks, {counters} counter samples")
    print()
    print(span_table(rows, args.top))
    shard = shard_table(rows)
    if shard:
        print(shard)
    req = request_stats(events)
    if req:
        print(req)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Self-time breakdown of one traced serving phase.

Reads the dump `perfbench --trace 1 --dump PATH` writes:

    W  <t0_ms> <t1_ms>                          serving window
    S  <name> <track> <start_ms> <end_ms>       one span
    B  <device> <start_ms> <end_ms> <busy_ms>   one run of device calls

All times are host wall-clock milliseconds on one axis: the benchmark binds
the trace log's clock to the host clock, so every span carries its wall
start and end. Spans of the dispatcher's I/O thread (the single storage
issuer) are properly nested, so each one's parent is the innermost span
that contains it, and its exclusive time is its duration minus its direct
children and the device bursts that start directly inside it.

The rows are exclusive wall time on that thread; `other` is the rest of
the serving window (generator hand-off, idle gaps, commit linger), so the
rows sum to the serving wall time by construction. The check is that no
row is negative and that the spans nest: a violation means the
attribution is broken, and the script fails.

    python3 perfbench/selftime.py DUMP
"""

import sys
from collections import defaultdict

# Tracks whose spans run on the dispatcher's I/O thread. The per-shard
# scheduler tracks ("io/shardK") and the remote client ("remote") run on
# shard threads, in parallel with it.
THREAD_TRACKS = {"dispatcher", "agent", "store", "io"}

ROWS = ["dispatch", "agent", "dev.steg", "store.group", "store.scan",
        "store.reorder", "io.drain", "dev.cache", "other"]

EPS_MS = 1e-6
# Slack for the row checks: the dump rounds every time to 1 ns.
TOLERANCE_MS = 1e-3


def row_of(name):
    if name.startswith("dispatch."):
        return "dispatch"
    if name.startswith("agent."):
        return "agent"
    if name in ("store.read_group", "store.write_group"):
        return "store.group"
    if name == "store.scan":
        return "store.scan"
    if name.startswith("store."):  # flush, reorder, reorder_step
        return "store.reorder"
    if name.startswith("io."):
        return "io.drain"
    return name


def load(path):
    window = None
    spans = []    # (start, end, name, track)
    bursts = []   # (start, busy, device)
    with open(path) as f:
        for line in f:
            parts = line.rstrip("\n").split("\t")
            if parts[0] == "W":
                window = (float(parts[1]), float(parts[2]))
            elif parts[0] == "S":
                spans.append((float(parts[3]), float(parts[4]), parts[1],
                              parts[2]))
            elif parts[0] == "B":
                bursts.append((float(parts[2]), float(parts[4]), parts[1]))
    if window is None:
        raise ValueError(f"{path}: no serving window")
    return window, spans, bursts


def breakdown(path):
    """Returns (rows, metrics, errors) for one dump; rows maps each row to
    its exclusive wall ms."""
    (t0, t1), spans, bursts = load(path)
    wall = t1 - t0

    def clip(start, end):
        return max(start, t0), min(end, t1)

    # One sweep over thread spans and bursts ordered by start; at equal
    # starts the longer span comes first (it is the parent), bursts last.
    items = []
    for start, end, name, track in spans:
        start, end = clip(start, end)
        if track in THREAD_TRACKS and end > start:
            items.append((start, 0, -end, name))
    for start, busy, device in bursts:
        if t0 <= start < t1:
            items.append((start, 1, 0.0, device, busy))
    items.sort(key=lambda it: (it[0], it[1], it[2]))

    rows = defaultdict(float)
    nesting_errors = 0
    stack = []  # open spans: [end, row, self_ms]
    for item in items:
        start = item[0]
        while stack and stack[-1][0] <= start + EPS_MS:
            _, row, self_ms = stack.pop()
            rows[row] += self_ms
        if item[1] == 1:  # burst: device time inside the innermost span
            busy = item[4]
            rows[item[3]] += busy
            if stack:
                stack[-1][2] -= busy
            continue
        end = -item[2]
        if stack:
            if end > stack[-1][0] + EPS_MS:
                nesting_errors += 1
            stack[-1][2] -= end - start
        stack.append([end, row_of(item[3]), end - start])
    for _, row, self_ms in stack:
        rows[row] += self_ms
    rows["other"] = wall - sum(rows.values())
    for row in ROWS:
        rows[row] += 0.0

    errors = [f"row {row} is negative ({ms:.3f} ms)"
              for row, ms in rows.items() if ms < -TOLERANCE_MS]
    if nesting_errors:
        errors.append(f"{nesting_errors} spans overlap their parent")

    def total(pred):
        out = 0.0
        for start, end, name, track in spans:
            start, end = clip(start, end)
            if end > start and pred(name, track):
                out += end - start
        return out

    metrics = {f"{row}.self_ms": ms for row, ms in rows.items()}
    metrics["serving.wall_ms"] = wall
    metrics["dispatch.busy_frac"] = (
        total(lambda n, t: n in ("dispatch.commit", "dispatch.pump",
                                 "dispatch.repair")) / wall if wall else 0.0)
    metrics["dispatch.pump_ms"] = total(lambda n, t: n == "dispatch.pump")
    # Leaf spans on the shard thread that drives the remote mirror.
    metrics["remote.rpc.self_ms"] = total(lambda n, t: t == "remote")
    return dict(rows), metrics, errors


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows, metrics, errors = breakdown(argv[1])
    wall = metrics["serving.wall_ms"]
    for row, ms in rows.items():
        share = 100.0 * ms / wall if wall else 0.0
        print(f"{row:14s} {ms:12.3f} ms {share:6.2f} %")
    print(f"{'sum':14s} {sum(rows.values()):12.3f} ms "
          f"(serving wall {wall:.3f} ms)")
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

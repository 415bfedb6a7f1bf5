#!/usr/bin/env python3
"""Diff bench counter JSON against a baseline run.

Every bench binary writes per-benchmark counters with --json=<path>; the
scheduled bench.yml job archives them. This tool compares the current
directory of JSON files against the previous scheduled run's artifact
and flags regressions in the lower-is-better metrics:

  * any counter *_ms     — the virtual-disk-ms behind each figure point
  * overhead_factor      — Table 4's mean device I/Os per request

and in the higher-is-better throughput metrics of the dispatcher
sweeps:

  * any counter *_per_vsec — requests/updates per virtual second
  * speedup_vs_serial      — dispatched vs per-request serving

Deamortization counters are gated direction-aware like the throughput
metrics (only a worsening fails): max_stall_ms (longest serving stall
attributable to re-order work) is lower-is-better, and the dispatch
sweeps' p99_latency_ms joins the gate — its stamps are virtual-clock
and, under saturation, dominated by the deterministic re-order
schedule, unlike the OS-scheduling-sensitive p50. p90_latency_ms and
stall_p99_ms (the dispatch sweep's stall-distribution tail) are gated
the same way, so a latency-distribution regression fails even when the
mean survives. The derived speedup_vs_blocking_reorder /
p99_improvement_vs_blocking ratios are archived but exempt: their
constituents are gated individually, and an improvement confined to the
blocking twin must not fail the diff. queue_depth_p99 is archived but
exempt (group arrival interleaving shifts it at the margin).

Only virtual-clock counters are compared — the benchmark's own
real_time is host wall-clock and noisy across CI runners. The workloads
are seeded and measured on the virtual disk clock, so these numbers are
deterministic for identical code: any delta is a real behavior change,
which keeps a tight threshold meaningful. The dispatcher sweeps run
real threads; their virtual-clock *totals* depend only weakly on
arrival interleaving (group fill is deterministic under saturation), so
the throughput metrics stay gated — but p50 percentiles and
mean_batch_fill shift with OS scheduling at the group boundaries, so
they are recorded in the artifacts yet exempt from the pass/fail
threshold.

The crypto counters are split by determinism. crypto_mb and
crypto_batches (the serving phase's decrypt traffic and how many kernel
batches carried it) are pure functions of the seeded workload, so they
are gated lower-is-better: more bytes decrypted or more, smaller,
batches for the same requests is a real batching regression.
accel_speedup (bench_crypto's scalar-vs-accelerated bytes/cycle ratio)
is gated higher-is-better — both sides are measured on the same host in
the same process, so the ratio is stable where the raw cycle counts are
not. crypto_wall_ms and bytes_per_cycle are archived but exempt: they
are host wall-clock/TSC measurements, which vary across CI runners.

The degraded-mode and remote sweeps (Fig10bDegraded, Fig10bRemote)
additionally carry hard zero-gates: counters in ZERO_GATED
(failed_requests — requests the fault-tolerance stack failed to serve —
io_retry_exhausted, and the mirror's quorum_stale_reads and
write_quorum_failures) fail the diff whenever the *current* run reports
a nonzero value, baseline or not. Its throughput joins the direction-aware *_per_vsec gate like
every other sweep.

A baseline counter file or benchmark that the current run no longer
produces (a deleted or renamed bench) drops out of the comparison; it is
listed with a ::notice:: annotation so the loss is visible, but it never
fails the diff.

Exit status 1 when any metric is worse than --max-regression (relative).
Emits GitHub workflow annotations (::error / ::notice) so regressions
surface on the PR without digging through logs.
"""

import argparse
import json
import math
import pathlib
import sys


#: Counters where a *drop* is the regression.
HIGHER_IS_BETTER = ("speedup_vs_serial", "accel_speedup")

#: Deterministic lower-is-better counters that match neither the *_ms
#: nor the overhead_factor pattern: the seeded serving phase's crypto
#: traffic (bytes decrypted, kernel batches that carried them).
LOWER_IS_BETTER = ("crypto_mb", "crypto_batches")

#: Archived, never gated: scheduling-dependent fill and queue depth,
#: the derived blocking-vs-deamortized ratios — their constituents
#: (blocking_*_ms, *_per_vsec, p90/p99_latency_ms, max_stall_ms,
#: stall_p99_ms) are each tracked on their own, and gating the ratio too
#: would fail CI when only the blocking twin improves — and the host
#: wall-clock crypto measurements (crypto_wall_ms, bytes_per_cycle),
#: which vary across runners; their cross-runner-stable ratio
#: accel_speedup carries the gate instead.
EXEMPT = ("mean_batch_fill", "speedup_vs_blocking_reorder",
          "p99_improvement_vs_blocking", "queue_depth_p99",
          "crypto_wall_ms", "bytes_per_cycle")

#: Hard zero-gates: a nonzero *current* value fails the diff outright,
#: with or without a baseline. These are correctness counters — a served
#: request that failed, a retry budget that ran dry, a mirror read that
#: served a copy its replica had missed a write to (data loss), or a
#: write no quorum acknowledged — not performance, so no relative
#: threshold applies.
ZERO_GATED = ("failed_requests", "io_retry_exhausted",
              "quorum_stale_reads", "write_quorum_failures")


def is_higher_better(key):
    return key.endswith("_per_vsec") or key in HIGHER_IS_BETTER


def is_tracked(key):
    if key in EXEMPT:
        return False
    if key.endswith("_latency_ms"):
        # Dispatch tail percentiles are virtual-clock and
        # re-order-schedule dominated: gated (lower is better). p50
        # stays scheduling-sensitive noise.
        return (key.endswith("p99_latency_ms") or
                key.endswith("p90_latency_ms"))
    return (key == "overhead_factor" or key.endswith("_ms") or
            key in LOWER_IS_BETTER or is_higher_better(key))


def load_metrics(path):
    """benchmark name -> {metric -> value} for one JSON counter file."""
    with open(path) as fh:
        doc = json.load(fh)
    out = {}
    for record in doc.get("benchmarks", []):
        metrics = {}
        for key, value in record.get("counters", {}).items():
            if is_tracked(key):
                if isinstance(value, (int, float)) and math.isfinite(value):
                    metrics[key] = float(value)
        out[record.get("name", "?")] = metrics
    return out


def zero_gate_violations(path):
    """ZERO_GATED counters with nonzero values in one counter file."""
    with open(path) as fh:
        doc = json.load(fh)
    violations = []
    for record in doc.get("benchmarks", []):
        for key in ZERO_GATED:
            value = record.get("counters", {}).get(key)
            if isinstance(value, (int, float)) and value > 0:
                violations.append(f"{path.name} :: "
                                  f"{record.get('name', '?')} :: "
                                  f"{key}: {value:.6g} (must be 0)")
    return violations


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="directory of baseline *.json counter files")
    parser.add_argument("--current", required=True,
                        help="directory of current *.json counter files")
    parser.add_argument("--max-regression", type=float, default=0.10,
                        help="relative worsening that fails the diff")
    parser.add_argument("--min-abs", type=float, default=1e-6,
                        help="baseline values below this are not compared")
    args = parser.parse_args()

    baseline_dir = pathlib.Path(args.baseline)
    current_dir = pathlib.Path(args.current)
    regressions, improvements, skipped, fresh, dropped = [], [], [], [], []

    zero_failures = []
    for current_file in sorted(current_dir.glob("*.json")):
        # Correctness counters gate on the current run alone — a new
        # benchmark with failed requests must not pass just because no
        # baseline exists yet.
        zero_failures.extend(zero_gate_violations(current_file))
        baseline_file = baseline_dir / current_file.name
        if not baseline_file.exists():
            fresh.append(f"{current_file.name}: new counter file "
                         f"(no baseline)")
            continue
        base = load_metrics(baseline_file)
        cur = load_metrics(current_file)
        for name in sorted(set(base) - set(cur)):
            dropped.append(f"{current_file.name} :: {name}: benchmark no "
                           f"longer produced")
        for name, metrics in sorted(cur.items()):
            if name not in base:
                fresh.append(f"{current_file.name} :: {name}: new benchmark")
                continue
            for metric, value in sorted(metrics.items()):
                ref = base[name].get(metric)
                if ref is None:
                    # A tracked counter with no baseline value: cannot be
                    # gated this run, but the artifact this run archives
                    # becomes the next scheduled run's baseline, so it
                    # enters the gate there. Surface it instead of
                    # silently skipping so a renamed counter cannot fall
                    # out of the diff unnoticed.
                    fresh.append(f"{current_file.name} :: {name} :: "
                                 f"{metric}: new counter "
                                 f"(current {value:.6g})")
                    continue
                if ref < args.min_abs:
                    skipped.append(f"{current_file.name} :: {name} :: "
                                   f"{metric}: baseline below --min-abs")
                    continue
                # Orient so that positive `rel` is always "worse".
                rel = (value - ref) / ref
                if is_higher_better(metric):
                    rel = -rel
                line = (f"{current_file.name} :: {name} :: {metric}: "
                        f"{ref:.6g} -> {value:.6g} "
                        f"({abs(rel):.1%} {'worse' if rel > 0 else 'better'})")
                if rel > args.max_regression:
                    regressions.append(line)
                elif rel < -args.max_regression:
                    improvements.append(line)

    for baseline_file in sorted(baseline_dir.glob("*.json")):
        if not (current_dir / baseline_file.name).exists():
            dropped.append(f"{baseline_file.name}: counter file no longer "
                           f"produced")

    for line in skipped:
        print(f"skip      {line}")
    for line in dropped:
        print(f"dropped   {line}")
        print(f"::notice::bench baseline not produced by this run "
              f"(dropped from the diff, not gated): {line}")
    for line in fresh:
        print(f"fresh     {line}")
        print(f"::notice::bench counter has no baseline yet (gating "
              f"starts next scheduled run): {line}")
    for line in improvements:
        print(f"improved  {line}")
        print(f"::notice::bench improved: {line}")
    for line in regressions:
        print(f"REGRESSED {line}")
        print(f"::error::bench regression >"
              f"{args.max_regression:.0%}: {line}")
    for line in zero_failures:
        print(f"FAILED    {line}")
        print(f"::error::bench correctness gate: {line}")

    if regressions or zero_failures:
        if regressions:
            print(f"{len(regressions)} metric(s) regressed beyond "
                  f"{args.max_regression:.0%}")
        if zero_failures:
            print(f"{len(zero_failures)} correctness counter(s) nonzero")
        return 1
    print("no bench regressions beyond threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())

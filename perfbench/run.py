#!/usr/bin/env python3
"""Host-time serving benchmark of the StegHide system (see README.md).

    python3 perfbench/run.py --workload hot_read --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Builds the perfbench binary and the repository libraries it links into
.bench_build at the repository root, runs one workload, checks every read
against the reference model, and prints the metrics BENCHMARK.json names:
the end-to-end ones with --trace 0, the per-layer ones with --trace 1. The
last line of standard output is the JSON result.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
import selftime  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
# Upper bound on one perfbench invocation; runs take well under a minute.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the repository sources (src/) are not next to perfbench/")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j",
                  str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-8000:])
            fail("build failed: " + " ".join(cmd))


def run_binary(workload, seed, seconds, dump):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if dump else "0"]
    if dump:
        cmd += ["--dump", dump]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{workload} exited with code {done.returncode}")
    return json.loads(lines[-1])


def measure(workload, seed, seconds, trace):
    """Runs one workload; returns (raw perfbench result, metrics, correct)."""
    dump = (os.path.join(BUILD, f"spans-{os.getpid()}.tsv") if trace
            else None)
    try:
        raw = run_binary(workload, seed, seconds, dump)
        metrics = dict(raw["metrics"])
        correct = bool(raw["correct"])
        if trace:
            _, extra, errors = selftime.breakdown(dump)
            metrics.update(extra)
            for error in errors:
                print(f"perfbench: self-time: {error}", file=sys.stderr)
            if errors or metrics["obs.dropped_events"] != 0:
                correct = False
    finally:
        if dump and os.path.exists(dump):
            os.remove(dump)
    return raw, metrics, correct


def selftest():
    """Checks the benchmark itself: a pure, seeded request stream, a
    reference check that catches corrupted payloads, and self-time rows
    that sum to the traced wall time."""
    done = subprocess.run([BINARY, "--selftest", "--seed", "7"],
                          stdout=subprocess.PIPE, text=True, timeout=60)
    print(done.stdout.strip())
    ok = done.returncode == 0
    dump = os.path.join(BUILD, f"selftest-{os.getpid()}.tsv")
    try:
        raw = run_binary("hot_read", 7, 1, dump)
        rows, metrics, errors = selftime.breakdown(dump)
    finally:
        if os.path.exists(dump):
            os.remove(dump)
    wall = metrics["serving.wall_ms"]
    total = sum(rows.values())
    print(f"self-time rows sum to {total:.3f} ms of {wall:.3f} ms traced "
          f"wall; errors: {errors or 'none'}")
    ok = ok and not errors and abs(total - wall) <= 1e-6 * wall
    ok = ok and raw["correct"] and raw["metrics"]["obs.dropped_events"] == 0
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()
    if args.selftest:
        return selftest()
    if not args.workload:
        fail("--workload is required")

    raw, metrics, correct = measure(args.workload, args.seed, args.seconds,
                                    args.trace == 1)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        fail("perfbench did not report " + ", ".join(missing))
    if raw.get("error"):
        print(f"perfbench: first failure: {raw['error']}", file=sys.stderr)
    for name, value in sorted(metrics.items()):
        print(f"{name:36s} {value:16.6f}")
    result = {
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds and runs the layer-attributed ttg-smalltask benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload chain --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which compiles the
library from src/) into .bench_build/; later calls only rebuild what
changed. The C++ program runs the workload and prints a JSON report; this
script checks its metric names against BENCHMARK.json, prints every
metric with its unit and sample count, the host fingerprint and the
failure fraction, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
and writes the span file .bench_build/traces/<workload>-seed<n>.json.
The exit code is non-zero when the build fails, an output is wrong, the
traced split check fails, or the report does not match BENCHMARK.json.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "ttg_perfbench")
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "ttg_perfbench", "-j", jobs],
        stdout=sys.stderr, check=True)


def declared_metrics():
    """BENCHMARK.json's metrics: {"end_to_end": {name: unit}, ...}."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def check_names(kind, printed, declared):
    """Problems with `printed` ({name: unit}) against BENCHMARK.json."""
    problems = []
    for name, unit in printed.items():
        if not NAME_RE.fullmatch(name):
            problems.append("bad metric name %r" % name)
        if name not in declared[kind]:
            problems.append("%s not in BENCHMARK.json %s" % (name, kind))
        elif declared[kind][name] != unit:
            problems.append("%s: unit %s, BENCHMARK.json says %s"
                            % (name, unit, declared[kind][name]))
    for name in declared[kind]:
        if name not in printed:
            problems.append("%s (%s) not printed" % (name, kind))
    return problems


def selftest():
    """The program's arithmetic self-test plus the catalog/JSON agreement."""
    code = subprocess.run([BINARY, "--selftest"]).returncode
    listed = subprocess.run([BINARY, "--list-metrics"], check=True,
                            capture_output=True, text=True).stdout
    catalog = {"end_to_end": {}, "per_layer": {}}
    for line in listed.splitlines():
        kind, name, unit = line.split()
        catalog[kind][name] = unit
    declared = declared_metrics()
    problems = []
    for kind in catalog:
        problems += check_names(kind, catalog[kind], declared)
    for p in problems:
        log("selftest FAILED:", p)
    print("metric catalog:", "ok" if not problems else "FAILED")
    return 1 if code != 0 or problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("perfbench: build failed:", e)
        return 1
    if args.selftest:
        return selftest()
    if not args.workload:
        ap.error("--workload is required")

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--spans", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds * 3 + 60)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out" % args.workload)
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("perfbench: no report from ttg_perfbench (exit %d)" % proc.returncode)
        return 1

    kind = "per_layer" if args.trace else "end_to_end"
    metrics = report["metrics"]
    problems = check_names(
        kind, {n: m["unit"] for n, m in metrics.items()}, declared_metrics())
    for p in problems:
        log("perfbench:", p)

    host = report["host"]
    print("host: cpu=%s nproc=%d memory_domains=%d compiler=%s build=%s"
          % (host["cpu"], host["nproc"], host["memory_domains"],
             host["compiler"], host["build_type"]))
    print("run: workload=%s seed=%d seconds=%g trace=%d segments=%d"
          % (args.workload, args.seed, args.seconds, args.trace,
             report["segments"]))
    for name, m in metrics.items():
        print("%-34s %16.6g %-6s samples=%d"
              % (name, m["value"], m["unit"], m["samples"]))
    if not args.trace:
        print("p99 (ms, not bounded): best segment %g, pooled %g (%d "
              "samples beyond)" % (report["best_segment_p99_ms"],
                                   report["pooled_p99_ms"],
                                   report["pooled_p99_beyond"]))
        print("per-segment latency_ns_per_task: " + " ".join(
            "%.0f" % v for v in report["segment_latency_ns_per_task"]))
    print("failed_frac = %g (%d of %d operations failed)"
          % (report["failed_frac"], report["failed"], report["attempted"]))
    if args.trace:
        print("split check:", report["split"],
              "ok" if report["split_ok"] else "FAILED")
    for e in report["errors"]:
        print("error:", e)

    correct = bool(report["correct"]) and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {n: {"value": m["value"], "unit": m["unit"]}
                    for n, m in metrics.items()},
    }))
    if proc.returncode != 0:
        return proc.returncode
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

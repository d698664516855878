#!/usr/bin/env python3
"""End-to-end simulate -> analyze benchmark for dynaddr.

Run from the repository root:

    python3 perfbench/run.py --workload ladder-34 --seed 2015 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Each run builds perfbench/ (the repository's src/ libraries plus the
perfbench binary) into .bench_build/, sets the workload up several times
(setup_s is the median), then measures for --seconds and prints one JSON
line last: end-to-end metrics with --trace 0, per-layer metrics with
--trace 1. README.md in this directory explains workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
BINARY = CMAKE_DIR / "perfbench"
WORKLOADS = ("ladder-34", "ladder-334", "year-outage", "reanalyze-paper")
# A --trace 0 run sets up at least SETUP_REPEATS times and for at least
# SETUP_MIN_S seconds; setup_s is the median. A --trace 1 run only needs
# the reference, so it sets up once.
SETUP_REPEATS = 3
SETUP_MIN_S = 6
# A run's setup and measurement share this budget; the build has its own.
RUN_BUDGET_S = 170
BUILD_TIMEOUT_S = 850
# Compilers and the benchmark keep their temporary files in the checkout.
ENV = dict(os.environ, TMPDIR=str(BUILD / "tmp"))


class BenchError(Exception):
    pass


deadline = time.monotonic() + RUN_BUDGET_S  # restarted after the build


def run_step(command, timeout=None, **kwargs):
    """Runs one child process to completion (killed and reaped on timeout)."""
    if timeout is None:
        timeout = max(1.0, deadline - time.monotonic())
    try:
        return subprocess.run(command, timeout=timeout, env=ENV, **kwargs)
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"timed out: {' '.join(map(str, command))}") from error


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    if not (CMAKE_DIR / "CMakeCache.txt").exists():
        done = run_step(["cmake", "-S", str(HERE), "-B", str(CMAKE_DIR),
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                        stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            shutil.rmtree(CMAKE_DIR, ignore_errors=True)
            raise BenchError("cmake configure failed")
    done = run_step(["cmake", "--build", str(CMAKE_DIR), "--target", "perfbench",
                     "-j", jobs], stdout=sys.stderr, stderr=sys.stderr,
                    timeout=BUILD_TIMEOUT_S)
    if done.returncode != 0:
        raise BenchError("build failed")


def declared_metrics():
    """{"end_to_end": {name: unit}, "per_layer": {name: unit}} from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def binary_metrics():
    """What the perfbench binary can print, as declared_metrics() shapes it."""
    done = run_step([str(BINARY), "metrics"], capture_output=True, text=True)
    if done.returncode != 0:
        raise BenchError("perfbench metrics failed")
    listed = {"end_to_end": {"setup_s": "s"}, "per_layer": {}}
    for line in done.stdout.splitlines():
        kind, name, unit = line.split()
        listed[kind][name] = unit
    return listed


def setup(workload, seed, work, repeats, min_seconds):
    """Runs `perfbench setup` at least `repeats` times and `min_seconds`
    seconds; returns the median wall time."""
    command = [str(BINARY), "setup", "--workload", workload, "--dir", str(work)]
    if seed is not None:
        command += ["--seed", str(seed)]
    times = []
    while len(times) < repeats or sum(times) < min_seconds:
        start = time.perf_counter()
        done = run_step(command, stdout=sys.stderr, stderr=sys.stderr)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise BenchError(f"setup of {workload} failed")
    return statistics.median(times)


def measure(args, work):
    command = [str(BINARY), "measure", "--workload", args.workload, "--dir", str(work),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.seed is not None:
        command += ["--seed", str(args.seed)]
    done = run_step(command, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"measure of {args.workload} failed")
    for line in lines[:-1]:
        print(line)
    try:
        return json.loads(lines[-1])
    except ValueError as error:
        raise BenchError(f"measure of {args.workload} printed no result") from error


def check_names(result, trace):
    """Every printed metric is declared in BENCHMARK.json, with its unit."""
    expected = declared_metrics()["per_layer" if trace else "end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != expected:
        missing = sorted(set(expected) - set(printed))
        extra = sorted(set(printed) - set(expected))
        units = sorted(n for n in set(printed) & set(expected) if printed[n] != expected[n])
        raise BenchError(f"metrics differ from BENCHMARK.json: missing {missing}, "
                         f"undeclared {extra}, unit mismatch {units}")


def selftest(work):
    done = run_step([str(BINARY), "selftest", "--dir", str(work)], timeout=300)
    if done.returncode != 0:
        raise BenchError("perfbench selftest failed")
    if binary_metrics() != declared_metrics():
        raise BenchError("the metrics perfbench prints differ from BENCHMARK.json")
    print("ok   every metric perfbench prints is named in BENCHMARK.json with its unit")


def main():
    global deadline
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="scenario seed (default: the preset's own)")
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    work = BUILD / "work" / f"{args.workload or 'selftest'}-{args.seed}-{os.getpid()}"
    try:
        build()
        deadline = time.monotonic() + RUN_BUDGET_S
        work.mkdir(parents=True, exist_ok=True)
        if args.selftest:
            selftest(work)
            return 0
        repeats, min_seconds = (1, 0) if args.trace else (SETUP_REPEATS, SETUP_MIN_S)
        setup_s = setup(args.workload, args.seed, work, repeats, min_seconds)
        result = measure(args, work)
        if not args.trace:
            result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
        check_names(result, args.trace)
        if args.trace and (work / "trace.json").exists():
            shutil.copyfile(work / "trace.json", BUILD / f"trace-{args.workload}.json")
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

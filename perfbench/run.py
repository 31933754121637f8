#!/usr/bin/env python3
"""Builds and runs the exiot repository benchmark.

    python3 perfbench/run.py --workload feed|replay --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --test      # harness self-tests

Run from anywhere inside a checkout. The program is built from source with
CMake into .bench_build/ at the checkout root (first run: a few minutes),
then one workload runs. Its output is passed through; the last stdout line
is the result object, and the line before it the run's environment record
(host steal jiffies, process CPU seconds, nproc). Each run is also appended
to .bench_build/runs.jsonl and a traced run leaves its spans in
.bench_build/traces/. A run whose metrics do not match BENCHMARK.json, or
that fails to build or run, exits non-zero without printing a result.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
RUN_TIMEOUT_S = 170
# Compilers and the benchmark put temporary files under TMPDIR; keep them
# inside the checkout.
ENV = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(target):
    """Configures (once) and builds `target`; returns its path or None."""
    os.makedirs(ENV["TMPDIR"], exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    build_log = os.path.join(BUILD, "build.log")
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", CMAKE_DIR, "--target", target,
                      "-j", jobs])
        with open(build_log, "w") as out:
            for step in steps:
                if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                                  env=ENV).returncode != 0:
                    with open(build_log) as failed:
                        sys.stderr.write(failed.read()[-4000:])
                    log(f"build failed (see {build_log})")
                    # A failed configure must not be mistaken for a done one.
                    shutil.rmtree(CMAKE_DIR, ignore_errors=True)
                    return None
    return os.path.join(CMAKE_DIR, target)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    """The reason `line` is not a valid result object, or None."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys differ"
    units = {name: m.get("unit") for name, m in result["metrics"].items()}
    if units != expected_metrics(trace):
        return "metrics differ from BENCHMARK.json"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "nothing attempted"
    return None


def run_workload(args):
    binary = build("perfbench")
    if binary is None:
        return 1
    work = os.path.join(BUILD, f"work-{os.getpid()}")
    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work, "--trace-dir", traces]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=ENV)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        log(f"{args.workload} exited with status {proc.returncode}")
        return 1
    problem = check_result(lines[-1], args.trace)
    if problem is not None:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        log(f"{args.workload}: {problem}")
        return 1
    try:
        env = json.loads(lines[-2]).get("env") if len(lines) >= 2 else None
    except (ValueError, AttributeError):
        env = None
    with open(os.path.join(BUILD, "runs.jsonl"), "a") as runs:
        runs.write(json.dumps({
            "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "env": env,
            "result": json.loads(lines[-1])}) + "\n")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return 0


def run_tests():
    binary = build("perfbench_test")
    if binary is None:
        return 1
    return subprocess.run([binary], env=ENV).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=["feed", "replay"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the harness self-tests")
    args = parser.parse_args()
    if args.test:
        return run_tests()
    if args.workload is None:
        parser.error("--workload is required")
    if not 1 <= args.seconds <= 600 or args.seed < 0:
        parser.error("--seconds must be 1..600 and --seed non-negative")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""COLD end-to-end synthesis benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the COLD libraries and the benchmark
program from source into .bench_build/cmake (the first run configures and
compiles; later runs only check that the build is current), then runs one
workload in its own process and passes its output through. The last line of
standard output is the result object; build logs go to standard error.

Workloads: paper-n30, hubs-n80, city-n2000, ensemble-n30 (see
perfbench/design.json). --trace 1 runs the traced pipeline instead and
writes a Chrome trace-event file under .bench_build/traces/.

Exit code 0 means every output check passed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "cmake")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 175


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; returns the exit code."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False).returncode
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: {' '.join(cmd)}: {e}")
        return 1


def build():
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        log("perfbench: COLD sources (src/) not found next to perfbench/; "
            "run from the root of a full checkout")
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if run_quiet(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], 300) != 0:
            return False
    return run_quiet(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                      "-j", "4"], 850) == 0


def expected_metrics(trace):
    """The metric names BENCHMARK.json promises for this mode."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def check_result(stdout, trace):
    """Empty when the last line is a result object with exactly the
    promised metrics, otherwise what is wrong."""
    lines = stdout.strip().splitlines()
    if not lines:
        return "no output"
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return "last line is not JSON"
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return "result keys differ from correct/attempted/failed/metrics"
    mismatch = set(expected_metrics(trace)) ^ set(result["metrics"])
    if mismatch:
        return ("metrics differ from BENCHMARK.json: " +
                ", ".join(sorted(mismatch)))
    return ""


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=27)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not build():
        log("perfbench: build failed")
        return 2
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        # subprocess.run kills and reaps the child if the timeout expires.
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
        return 3
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode
    problem = check_result(proc.stdout, args.trace)
    if problem:
        log("perfbench: " + problem)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())

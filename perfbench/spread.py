#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--seconds 25]
                                [--workload NAME ...] [--out FILE]

Runs perfbench/run.py once per seed (seeds first-seed .. first-seed+runs-1)
on each workload, then prints, per workload and metric, the median of the
runs and their spread: the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median. The spread is
compared with the metric's bound from BENCHMARK.json, and the range of the
runs' CPU-burn probe readings is shown so a change of host speed during the
runs can be told apart from the program's own spread. Run from the root of
a checkout. --out saves every run's result object as JSON lines.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_benchmark():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


BURN_RE = re.compile(r"host\.burn_ms: start 1t ([0-9.]+) 4t ([0-9.]+), "
                     r"end 1t ([0-9.]+) 4t ([0-9.]+)")


def run_once(workload, seed, seconds):
    """Returns the run's result object and its four burn-probe readings."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    burn = BURN_RE.search(proc.stdout)
    return json.loads(lines[-1]), [float(x) for x in burn.groups()] if burn else []


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out", default="")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = open(args.out, "a") if args.out else None
    worst = {}
    for w in workloads:
        values = {}
        burns = []
        for i in range(args.runs):
            seed = args.first_seed + i
            result, burn = run_once(w, seed, args.seconds)
            burns += burn[0::2]  # the 1-thread readings, start and end
            if out:
                out.write(json.dumps({"workload": w, "seed": seed,
                                      "burn_ms": burn, "result": result})
                          + "\n")
                out.flush()
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{w} ({args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1})")
        if burns:
            # A host whose speed shifts during the runs shows up here first.
            print(f"  host.burn_ms    1 thread: min {min(burns):.3g}  "
                  f"max {max(burns):.3g}")
        for name, vs in values.items():
            s = spread(vs)
            bound = bounds.get(name, float("nan"))
            worst[name] = max(worst.get(name, 0.0), s)
            flag = "" if s < bound / 3 else ("  above bound/3" if s < bound
                                              else "  ABOVE BOUND")
            print(f"  {name:16s} median {statistics.median(vs):.6g}  "
                  f"spread {s:.4f}  bound {bound}{flag}")
        sys.stdout.flush()
    print("worst spread per metric: " +
          ", ".join(f"{k} {v:.4f}" for k, v in worst.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())

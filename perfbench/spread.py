#!/usr/bin/env python3
"""Runs the benchmark once per seed and prints each metric's run-to-run spread.

    python3 perfbench/spread.py --workload wire_clients --seeds 1-10 --seconds 30

Run it from the root of a checkout.  For every metric it prints the median of
the runs and (q3 - q1) / median, the quartiles as statistics.quantiles(n=4)
gives them: the spread that a later change's runs are held against.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    values = {}
    units = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(proc.stdout)
            sys.exit(f"seed {seed}: incorrect result")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: " + " ".join(f"{name}={metric['value']:.6g}"
                                           for name, metric in result["metrics"].items()),
              flush=True)

    print(f"{args.workload}: {len(args.seeds)} runs of {args.seconds} s")
    for name, runs in values.items():
        median = statistics.median(runs)
        q1, _, q3 = statistics.quantiles(runs, n=4) if len(runs) > 1 else (median, 0, median)
        spread = (q3 - q1) / abs(median) if median else 0.0
        print(f"  {name:34s} median {median:14.6g} {units[name]:9s} spread {100 * spread:6.2f}%"
              f"  [{min(runs):.6g} .. {max(runs):.6g}]")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload ui_session --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all
    python3 perfbench/run.py --selftest

Run it from the root of a checkout.  It builds the C++ benchmark and the
program's libraries from the checkout's sources into .bench_build/, runs one
workload (or each in turn), and prints a report whose last line is the result
as one JSON object (for "all", one object keyed by workload).  With --trace 1
it also holds the result to the per-layer expectations in
perfbench/reference.json: a layer that should read zero on this workload
must, and a layer that should move on it must not.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no program sources (src/CMakeLists.txt) next to the benchmark")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD)], stdout=sys.stderr,
                       check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", target, "-j", jobs],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return BUILD / target


def check_layers(reference, workload, result):
    """Holds a traced result to the reference table's zero/nonzero columns."""
    problems = []
    for layer in reference["per_layer"]:
        metric = result["metrics"].get(layer["name"])
        if metric is None:
            problems.append(f"{layer['name']} missing")
        elif workload in layer["reads_zero_on"] and metric["value"] != 0:
            problems.append(f"{layer['name']} reads {metric['value']}, expected 0")
        elif workload in layer["on"] and metric["value"] == 0:
            problems.append(f"{layer['name']} reads 0 on a workload it should move on")
    return problems


def run_workload(binary, reference, workload, args):
    """Runs one workload; prints its report and returns its result, or None."""
    traces = BUILD / "traces"
    traces.mkdir(exist_ok=True)
    command = [str(binary), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out", str(traces / f"{workload}.spans.tsv")]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        return None
    print("\n".join(lines[:-1]))
    result = json.loads(lines[-1])
    if args.trace:
        problems = check_layers(reference, workload, result)
        for problem in problems:
            print(f"  layer check: {problem}")
        if problems:
            result["correct"] = False
    return result


def main():
    reference = json.loads((HERE / "reference.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(reference["workloads"]) + ["all"])
    parser.add_argument("--seed", type=int, default=reference["seeds"]["default"])
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        binary = build("perfbench_selftest")
        return subprocess.run([str(binary)], timeout=RUN_TIMEOUT_S).returncode
    if args.workload is None:
        parser.error("--workload is required")

    binary = build("perfbench")
    workloads = list(reference["workloads"]) if args.workload == "all" else [args.workload]
    results = {}
    for workload in workloads:
        result = run_workload(binary, reference, workload, args)
        if result is None:
            return 1
        results[workload] = result
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as error:
        sys.exit(f"perfbench: {error}")

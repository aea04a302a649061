#!/usr/bin/env python3
"""Traffic-regression gate for the benches.

Compares the per-operation X request counts that bench binaries record from
the protocol trace (the "req_*" keys in BENCH_*.json) against checked-in
baselines under bench/baselines/.  Request counts are deterministic -- unlike
timings -- so any growth is a real change in server traffic, and growth
beyond the threshold fails the build (Section 3.3's efficiency claims,
enforced).  Baseline keys named "exact_*" must match exactly, in either
direction.  The scaling ceilings below cap how much slower an operation may
get in a larger session.

Usage: check_bench_regression.py <results-dir> [--threshold 0.10]
"""

import argparse
import json
import pathlib
import sys

# baseline file -> the BENCH_*.json it gates.
BASELINES = {
    "table2_requests.json": "BENCH_table2_operations.json",
    # Wire-transport frame/request counts summed over the default client
    # sweep, once per WireServer backend (threads / reactor).  Any growth
    # means each operation started costing more frames or round trips on the
    # wire; the two backends' keys must also stay equal to each other -- the
    # reactor changes how frames move, never what reaches the server.
    "wire_throughput.json": "BENCH_wire.json",
    # Soak & chaos invariants: every gated key has a zero baseline, and the
    # was-zero rule above makes any non-zero value a hard failure -- one
    # invariant breach, unrecovered kill or queue overflow fails the build.
    "soak_invariants.json": "BENCH_soak.json",
    # Reconnect storm at the default 24 clients x 3 bounces: recovery counts
    # are pure arithmetic of the fleet shape (failed / unresumed / mismatch
    # keys are zero baselines; any occurrence is a hard failure), and the
    # replayed-request total is growth-checked so journal replay cannot
    # silently start re-asserting more traffic per session.
    "reconnect_storm.json": "BENCH_reconnect.json",
    # Bytecode-VM acceptance workloads: the req_tcl_* keys are command counts
    # for fixed scripts, and the exact_tcl_* keys pin the compiled path
    # itself -- the inline commands, generic invokes and text-engine
    # expressions in the hot loop's bytecode, and the compiled run's evals
    # and compiled evals, both pinned to the same count so every eval must
    # have run on the VM.  These replace wall-clock speedup floors, which
    # host noise pushed below their minimum on unchanged code; the benches
    # still print the speedups.
    "parser_throughput.json": "BENCH_parser_throughput.json",
    "bind_dispatch.json": "BENCH_bind_dispatch.json",
    # Editor workload over the B-tree text widget: the req_text_* keys are
    # exact lines-laid-out counts per phase for the seeded default sweep.
    # req_text_offscreen_edit_layouts has a zero baseline -- one line laid
    # out for an off-screen edit means redisplay work became proportional
    # to buffer size -- and MAX_SCALING_RATIOS below caps how much slower a
    # single edit may get between the 1k-line and 1M-line buffers.
    "text_editor.json": "BENCH_text.json",
}


def check(baseline_path, results_path, threshold):
    baseline = json.loads(baseline_path.read_text())
    results = json.loads(results_path.read_text())
    failures = []
    for key, expected in sorted(baseline.items()):
        actual = results.get(key)
        if actual is None:
            failures.append(f"{key}: missing from {results_path.name} "
                            f"(baseline {expected})")
            continue
        if key.startswith("exact_"):
            marker = "ok" if actual == expected else "FAIL"
            print(f"  {marker:4} {key}: {expected} -> {actual} (exact)")
            if actual != expected:
                failures.append(f"{key}: {expected} -> {actual} (must match exactly)")
            continue
        if expected == 0:
            if actual != 0:
                failures.append(f"{key}: {expected} -> {actual} (was zero)")
            continue
        growth = (actual - expected) / expected
        marker = "FAIL" if growth > threshold else "ok"
        print(f"  {marker:4} {key}: {expected} -> {actual} ({growth:+.1%})")
        if growth > threshold:
            failures.append(f"{key}: {expected} -> {actual} ({growth:+.1%} "
                            f"> {threshold:.0%} allowed)")
    # Only integer req_* keys are counters; floats like req_per_sec are
    # timings and never belong in a baseline.
    new_keys = sorted(k for k in results
                      if k.startswith("req_") and k not in baseline
                      and isinstance(results[k], int))
    for key in new_keys:
        print(f"  note {key}: {results[key]} (not in baseline; add it there)")
    failures += check_pipeline_ratios(results)
    failures += check_compiled_path(results)
    return failures


# The buffered request pipeline must keep paying off: for every operation
# that reports both buffered and synchronous round-trip counts, buffering
# has to save at least this factor.
MIN_ROUND_TRIP_RATIO = 5


def check_pipeline_ratios(results):
    failures = []
    for key in sorted(results):
        if not key.endswith("_sync_round_trips"):
            continue
        buffered_key = key.replace("_sync_round_trips", "_round_trips")
        sync = results[key]
        buffered = results.get(buffered_key)
        if buffered is None:
            failures.append(f"{buffered_key}: missing (have {key})")
            continue
        if sync < MIN_ROUND_TRIP_RATIO * max(buffered, 1):
            failures.append(
                f"{buffered_key}: buffering saves only {sync}/{max(buffered, 1)} "
                f"round trips (< {MIN_ROUND_TRIP_RATIO}x)")
        else:
            ratio = sync / max(buffered, 1)
            print(f"  ok   {buffered_key}: {sync} sync -> {buffered} buffered "
                  f"round trips ({ratio:.0f}x saved)")
    return failures


# Scaling ceilings: BENCH file -> [(ratio key, maximum)].  Each ratio
# compares the same operation at two workload sizes; the data structure
# behind it holds its promise only while the ratio stays far from linear.
MAX_SCALING_RATIOS = {
    # The text widget's B-tree: one edit in a 1M-line buffer against one in a
    # 1k-line buffer (1000x the lines).  Generous enough for machine noise,
    # three orders of magnitude under the linear failure mode.
    "BENCH_text.json": [("edit_scaling_1M_vs_1k", 8.0)],
    # bench/scaling_sweep: one operation's cost next to 10k existing windows
    # or widgets over its cost next to 100, the median of interleaved
    # repeats.  A flat cost reads about 1x and a linear one 50x or more.  The
    # ceiling is 2x unless the entry gives a measured reason for more, and
    # no ceiling exceeds 5x.
    "BENCH_scaling.json": [
        # A create+destroy walks the server's window map about six times
        # (lookups, insert, erase), 7 -> 14 levels deep, and the 10k
        # session's window records no longer fit in cache: a probe of
        # create+destroy alone read 0.43 / 0.46 / 0.54 / 1.38 us at 100 / 1k /
        # 10k / 100k windows, and 21 sweep runs read 1.49-1.79x.  A per-op
        # scan of the session reads ~200x.
        ("scaling_direct_create_destroy", 3.0),
        ("scaling_direct_reparent", 2.0),
        ("scaling_direct_configure", 2.0),
        ("scaling_direct_map_unmap", 2.0),
        ("scaling_direct_raise", 2.0),
        ("scaling_direct_property", 2.0),
        ("scaling_direct_get_property", 2.0),
        ("scaling_wire_create_destroy", 2.0),
        ("scaling_wire_reparent", 2.0),
        ("scaling_wire_configure", 2.0),
        ("scaling_wire_map_unmap", 2.0),
        ("scaling_wire_raise", 2.0),
        ("scaling_wire_property", 2.0),
        ("scaling_wire_get_property", 2.0),
        ("scaling_tk_frame_destroy", 2.0),
        ("scaling_tk_configure", 2.0),
        ("scaling_tk_winfo_children", 2.0),
        ("scaling_tk_create_per_widget", 2.0),
    ],
}


def check_compiled_path(results):
    failures = []
    # The wall-clock speedup is reported for the record, never gated.
    speedup = results.get("speedup_compiled_vs_cached")
    if speedup is not None:
        print(f"  info speedup_compiled_vs_cached: {speedup:.2f}x (reported, not gated)")
    # cmdcount parity: both exec modes run the same script, so their command
    # counters must be identical, not merely close.
    interp_cmds = results.get("req_tcl_interp_commands")
    compiled_cmds = results.get("req_tcl_compiled_commands")
    if interp_cmds is not None and compiled_cmds is not None \
            and interp_cmds != compiled_cmds:
        failures.append(f"req_tcl_compiled_commands: {compiled_cmds} != "
                        f"req_tcl_interp_commands {interp_cmds} (cmdcount parity)")
    return failures


def check_scaling(results_name, results):
    failures = []
    for key, maximum in MAX_SCALING_RATIOS[results_name]:
        value = results.get(key)
        if value is None:
            failures.append(f"{key}: missing from {results_name}")
        elif value > maximum:
            failures.append(f"{key}: {value:.2f}x > allowed {maximum:.1f}x "
                            f"(per-operation cost grows with the session)")
        else:
            print(f"  ok   {key}: {value:.2f}x (ceiling {maximum:.1f}x)")
    return failures


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("results_dir", type=pathlib.Path,
                        help="directory holding BENCH_*.json (scripts/run_benches.sh output)")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="allowed fractional growth per counter (default 0.10)")
    args = parser.parse_args()

    baseline_dir = pathlib.Path(__file__).resolve().parent.parent / "bench" / "baselines"
    failures = []
    checked = 0
    for baseline_name, results_name in BASELINES.items():
        baseline_path = baseline_dir / baseline_name
        results_path = args.results_dir / results_name
        if not baseline_path.exists():
            print(f"warning: no baseline {baseline_path}, skipping")
            continue
        if not results_path.exists():
            failures.append(f"{results_name}: not produced (expected in {args.results_dir})")
            continue
        print(f"{results_name} vs baselines/{baseline_name}:")
        failures += check(baseline_path, results_path, args.threshold)
        checked += 1
    for results_name in MAX_SCALING_RATIOS:
        results_path = args.results_dir / results_name
        if not results_path.exists():
            failures.append(f"{results_name}: not produced (expected in {args.results_dir})")
            continue
        print(f"{results_name} scaling ceilings:")
        failures += check_scaling(results_name, json.loads(results_path.read_text()))

    if failures:
        print("\nTraffic regressions:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"\n{checked} baseline file(s) checked, no traffic regressions.")
    return 0


if __name__ == "__main__":
    sys.exit(main())

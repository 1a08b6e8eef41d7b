#!/usr/bin/env python3
"""Steadiness check for the benchmark: runs each workload N times, one run
at a time, and reports how far each end-to-end metric spreads.

    python3 perfbench/steady.py                 # 10 seeds on every workload
    python3 perfbench/steady.py -n 5 -w rand50_sweep --seconds 30
    python3 perfbench/steady.py --check-counts  # per-layer counts repeat?

Run from the repository root. For each workload and metric it prints the
median, the quartiles (statistics.quantiles(values, n=4)), min and max,
the spread (q3 - q1) / median and that spread as a share of the metric's
bound in BENCHMARK.json. Seeds are first_seed, first_seed + 1, ... .

--check-counts instead runs the traced run (--trace 1) twice with the same
seed per workload and checks that every per-layer metric whose unit is
`count` reads exactly the same both times.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.exit("run failed: %s" % " ".join(cmd))
    result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    if not result["correct"]:
        sys.exit("run reported incorrect output: %s" % " ".join(cmd))
    return result


def spread_table(bench, workloads, n, first_seed, seconds):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for w in workloads:
        values = {name: [] for name in bounds}
        for i in range(n):
            result = run_once(w, first_seed + i, seconds, 0)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print("  %s seed=%d %s" % (w, first_seed + i, " ".join(
                "%s=%.6g" % (k, v[-1]) for k, v in values.items())),
                flush=True)
        print("%s (%d runs, failed/attempted %d/%d in the last)" % (
            w, n, result["failed"], result["attempted"]))
        print("  %-12s %11s %11s %11s %11s %11s %7s %6s %6s" % (
            "metric", "median", "q1", "q3", "min", "max", "spread", "bound",
            "share"))
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            share = spread / bounds[name]
            if name != "setup_s":
                worst = max(worst, share)
            print("  %-12s %11.5g %11.5g %11.5g %11.5g %11.5g %7.4f %6.3f %6.2f"
                  % (name, med, q1, q3, min(vals), max(vals), spread,
                     bounds[name], share), flush=True)
    print("largest spread/bound share (setup_s excluded): %.2f" % worst)


def check_counts(bench, workloads, seed, seconds):
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    ok = True
    for w in workloads:
        a = run_once(w, seed, seconds, 1)["metrics"]
        b = run_once(w, seed, seconds, 1)["metrics"]
        missing = sorted(set(units) - set(a))
        differ = [k for k, u in units.items()
                  if u == "count" and k in a and a[k]["value"] != b[k]["value"]]
        ok = ok and not missing and not differ
        print("%s: %d per-layer metrics, missing %s, counts differing %s" % (
            w, len(a), missing or "none", differ or "none"))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-n", type=int, default=10, help="runs per workload")
    parser.add_argument("-w", "--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seconds", type=int,
                        help="run length (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--check-counts", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    if args.check_counts:
        return 0 if check_counts(bench, workloads, args.first_seed,
                                 seconds) else 1
    spread_table(bench, workloads, args.n, args.first_seed, seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds and runs the steady benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload isp_sweep --seed 1 --seconds 30 --trace 0

Run from the repository root. The first run configures and builds
perfbench/ (the library sources plus hbh_perfbench) in Release mode under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs
only rebuild what changed. Build output goes to stderr, so the last line of
stdout is hbh_perfbench's JSON result. An exclusive lock on the build
directory keeps two benchmark processes from ever running at once. Exits
non-zero, printing no result, when the build or the run fails.
"""
import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(root, "perfbench"))


def build(out):
    """Configures (once) and builds hbh_perfbench; True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "hbh_perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["isp_sweep", "rand50_sweep", "dataplane_isp"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "run.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not build(out):
            print("perfbench: build failed", file=sys.stderr)
            return 1
        cmd = [os.path.join(out, "hbh_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            cmd += ["--trace-out", os.path.join(
                out, "spans_%s_%d.json" % (args.workload, args.seed))]
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
                  file=sys.stderr)
            return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        print("perfbench: hbh_perfbench failed (exit %d)" % proc.returncode,
              file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())

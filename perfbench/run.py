#!/usr/bin/env python3
"""Runs one workload of the repo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the repo's libraries, the
`tuned` daemon and the benchmark runner from source (CMake, the repo's
default build type) into $CARGO_TARGET_DIR or .bench_build/, then runs
the runner. The last line of stdout is the run's JSON result; build
output goes to stderr. Exits non-zero without a result when the build
or the run fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("sweep_paper", "serve_tune", "serve_hit")
BUILD_JOBS = "3"


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures and builds the runner and `tuned`; returns (runner,
    tuned) paths. Configuring an up-to-date tree again takes about a
    second and keeps an older tree's target list current."""
    src = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(build_dir(), "perfbench")
    subprocess.run(["cmake", "-G", "Unix Makefiles", "-S", src, "-B", out],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", BUILD_JOBS, "--target",
                    "perfbench_runner", "tuned"], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return (os.path.join(out, "perfbench_runner"),
            os.path.join(out, "repro", "tools", "tuned"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("paper", "tiny"), default="paper")
    args = ap.parse_args()

    try:
        runner, tuned = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    workdir = os.path.join(build_dir(), "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        proc = subprocess.run(
            [runner, "run", "--workload", args.workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace), "--scale", args.scale, "--tuned", tuned,
             "--workdir", workdir],
            timeout=170)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Self-tests of the repo benchmark's own code.

    python3 perfbench/selftest.py

Builds the runner, runs its unit self-test (same seed -> byte-identical
inputs, another seed -> other inputs; every checker accepts a correct
answer and rejects a perturbed texec, a non-minimal best_tile answer and
a hit whose payload differs), then runs every workload at tiny scale,
untraced and traced, and demands 0 failed operations and correct=true.
"""
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def main():
    runner, _ = run.build()
    failures = subprocess.run([runner, "selftest"]).returncode != 0
    for workload in run.WORKLOADS:
        for trace in ("0", "1"):
            out = subprocess.run(
                [sys.executable, os.path.join(os.path.dirname(__file__), "run.py"),
                 "--workload", workload, "--seed", "3", "--seconds", "2",
                 "--trace", trace, "--scale", "tiny"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            lines = out.stdout.strip().splitlines()
            r = json.loads(lines[-1]) if out.returncode == 0 and lines else None
            ok = (r is not None and r["correct"] and r["failed"] == 0 and
                  r["attempted"] > 0)
            print(f"{'ok   ' if ok else 'FAIL '} tiny {workload} trace={trace}: "
                  + (f"attempted={r['attempted']} failed={r['failed']} "
                     f"correct={r['correct']}" if r else f"exit {out.returncode}"))
            failures |= not ok
    print("selftest.py: " + ("FAILED" if failures else "all passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

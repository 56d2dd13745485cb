#!/usr/bin/env python3
"""Steadiness check of the repo benchmark.

    python3 perfbench/steadiness.py [--runs N] [--workloads a,b] [--first-seed K]

Runs every workload in two alternating sets of N runs each (set A,
set B, set A, ... each run with its own seed), exactly as BENCHMARK.json's
command runs it, and prints per end-to-end metric: each set's median and
quartiles, the spread of all 2N runs (distance between the first and
third quartile as a share of the median, as statistics.quantiles(n=4)
gives them) and how much worse set B's median is than set A's. Both are
compared with the metric's bound, `setup_s` included; the script exits
non-zero when a spread or a drift exceeds its bound or a run is not
correct. The bounds in BENCHMARK.json are set from this output.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, check=True, timeout=900).stdout
    return json.loads(out.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=5, help="runs per set")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--first-seed", type=int, default=1000)
    args = ap.parse_args()

    spec = json.load(open("BENCHMARK.json"))
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    metrics = spec["end_to_end"]
    results = {w: {"A": [], "B": []} for w in workloads}
    seed = args.first_seed
    for i in range(args.runs):
        for s in ("A", "B"):
            for w in workloads:
                t0 = time.monotonic()
                r = run_once(spec, w, seed)
                took = time.monotonic() - t0
                results[w][s].append(r)
                print(f"[{s}{i}] {w} seed={seed} took={took:.1f}s "
                      f"attempted={r['attempted']} "
                      f"failed={r['failed']} correct={r['correct']} " +
                      " ".join(f"{k}={v['value']:.5g}"
                               for k, v in r["metrics"].items()),
                      file=sys.stderr, flush=True)
                seed += 1

    ok = True
    for w in workloads:
        print(f"\n== {w}")
        print(f"{'metric':<14} {'set A median [q1, q3]':<34} "
              f"{'set B median [q1, q3]':<34} {'spread':>7} {'B worse':>8} "
              f"{'bound':>6}")
        shares = set()
        for s in ("A", "B"):
            for r in results[w][s]:
                ok &= r["correct"]
                shares.add((r["failed"], r["attempted"]) if r["failed"] else 0)
        for m in metrics:
            name = m["name"]
            cells = []
            meds = {}
            for s in ("A", "B"):
                vals = [r["metrics"][name]["value"] for r in results[w][s]]
                q1, q2, q3 = quartiles(vals)
                meds[s] = statistics.median(vals)
                cells.append(f"{meds[s]:.5g} [{q1:.5g}, {q3:.5g}]")
            both = [r["metrics"][name]["value"]
                    for s in ("A", "B") for r in results[w][s]]
            q1, _, q3 = quartiles(both)
            spread = (q3 - q1) / statistics.median(both)
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (meds["B"] - meds["A"]) / meds["A"]
            flag = ""
            if spread > m["bound"]:
                flag += " SPREAD>bound"
                ok = False
            elif spread > m["bound"] / 3:
                flag += " spread>bound/3"
            if worse > m["bound"]:
                flag += " DRIFT>bound"
                ok = False
            print(f"{name:<14} {cells[0]:<34} {cells[1]:<34} "
                  f"{spread:>7.3f} {worse:>+8.3f} {m['bound']:>6}{flag}")
        print(f"failed shares: {sorted(shares, key=str)}")
        ok &= len(shares) == 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

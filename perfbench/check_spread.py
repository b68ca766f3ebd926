#!/usr/bin/env python3
"""Measure the run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/check_spread.py [--workloads echo64,rpc10k,zuc512]
        [--runs 10] [--first-seed 1] [--seconds <run_seconds>]

Run from the repository root. Runs the benchmark once per seed
(first-seed, first-seed+1, ...) on each workload, one run at a time,
and prints, per metric, the median and the spread: the distance
between the first and third quartiles (statistics.quantiles, n=4) as
a share of the median, next to the bound BENCHMARK.json fixes.
Exits non-zero when a run fails or a spread exceeds its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if out.returncode != 0 or not result or not result["correct"]:
        print(f"{workload} seed {seed}: run failed "
              f"(exit {out.returncode})")
        return None
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for i in range(args.runs):
            result = run_once(workload, args.first_seed + i, args.seconds)
            if result is None:
                ok = False
                continue
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload}: {args.runs} runs, {args.seconds} s each")
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            q = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q[2] - q[0]) / med
            flag = ""
            if spread > m["bound"]:
                flag = "  OVER BOUND"
                ok = False
            elif spread > m["bound"] / 3:
                flag = "  over a third of the bound"
            print(f"  {m['name']:18s} median {med:<14.6g} spread "
                  f"{spread:.4f} bound {m['bound']}{flag}")
            print("      " + " ".join(f"{x:.6g}" for x in v))
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

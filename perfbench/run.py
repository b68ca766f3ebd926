#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <echo64|rpc10k|zuc512|all> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
`fld_perfbench` (Release) from ../src into .bench_build/perfbench;
later runs rebuild incrementally. Build output goes to stderr, the
benchmark's report to stdout; its last line is one JSON object.
`all` runs each workload in a process of its own (peak RSS is per
process) and merges their results, prefixing each metric with its
workload's name. The exit status is non-zero on any correctness or
determinism failure, or when the build fails.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "fld_perfbench")
WORKLOADS = ["echo64", "rpc10k", "zuc512"]


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"] + gen
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", BUILD, "--target", "fld_perfbench",
           "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def run_all(args):
    """Run every workload in turn, one process each; merge results."""
    i = args.index("--workload") + 1
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        args[i] = workload
        out = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                             text=True)
        lines = out.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = None
        if out.returncode != 0 or result is None:
            status = out.returncode or 1
        if result is None:
            merged["correct"] = False
            continue
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][workload + "." + name] = metric
    print(json.dumps(merged))
    return status


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 3
    sys.stdout.flush()
    args = sys.argv[1:]
    if args.count("--workload") == 1 and \
            args[args.index("--workload") + 1:][:1] == ["all"]:
        return run_all(args)
    return subprocess.run([BINARY] + args).returncode


if __name__ == "__main__":
    sys.exit(main())

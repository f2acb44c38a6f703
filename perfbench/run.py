#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload scan|contend|hot_rw --seed N \
        --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
runtime libraries from src/ plus dosas_perf into .bench_build/perfbench
(CMake, Release); later calls only re-check the build. All build output
goes to stderr, so the last line of stdout is dosas_perf's JSON result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The exit code is nonzero when the build fails, dosas_perf fails, or any
output was wrong.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("scan", "contend", "hot_rw")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no DOSAS sources under {ROOT / 'src'}; run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(BUILD), "--target", "dosas_perf", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return BUILD / "dosas_perf"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", str(BUILD / f"trace-{args.workload}-{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        fail(f"dosas_perf exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0 or result is None or not result.get("correct"):
        fail(f"dosas_perf exited {proc.returncode}"
             + ("" if result is None else f" with {result.get('failed')} wrong outputs"))


if __name__ == "__main__":
    main()

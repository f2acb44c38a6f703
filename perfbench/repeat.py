#!/usr/bin/env python3
"""Run each benchmark workload N times and report the spread per metric.

    python3 perfbench/repeat.py [--workloads scan,contend,hot_rw] [--runs 10]
        [--seed0 1] [--seconds S] [--trace 0|1] [--save FILE] [--compare FILE]

Run from the repository root. Run i of a workload uses seed seed0 + i. For
every metric it prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) / median, and
flags an end-to-end metric whose spread exceeds its bound in BENCHMARK.json
(setup_s is reported but not flagged: its bound applies only to median
drift). --save writes the raw values as JSON; --compare FILE checks that
each median here is not worse than FILE's by more than the metric's bound.
Exit code: 0 when nothing is flagged, 1 otherwise.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: run failed (exit {proc.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} wrong outputs")
    return {k: v["value"] for k, v in result["metrics"].items()}, \
        {k: v["unit"] for k, v in result["metrics"].items()}


def worse_by(metric, old, new):
    """Relative amount by which `new` is worse than `old` (negative = better)."""
    if old == 0:
        return 0.0
    delta = (new - old) / abs(old)
    return -delta if metric.get("better") == "higher" else delta


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save")
    ap.add_argument("--compare")
    args = ap.parse_args()

    previous = json.loads(Path(args.compare).read_text()) if args.compare else {}
    saved = {}
    flagged = []
    for workload in args.workloads.split(","):
        values, units = {}, {}
        for i in range(args.runs):
            metrics, units = run_once(workload, args.seed0 + i, args.seconds, args.trace)
            for name, v in metrics.items():
                values.setdefault(name, []).append(v)
            print(f"  {workload} seed {args.seed0 + i}: done", file=sys.stderr)
        saved[workload] = values
        print(f"\n{workload}: {args.runs} runs, seeds {args.seed0}..{args.seed0 + args.runs - 1}")
        print(f"  {'metric':40} {'unit':>7} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}  flag")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / abs(med) if med else 0.0
            metric = e2e.get(name, {})
            bound = metric.get("bound")
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound:
                flag = "SPREAD > BOUND"
            elif bound is not None and spread > bound / 3:
                flag = "spread > bound/3"
            old = previous.get(workload, {}).get(name)
            if bound is not None and old:
                drift = worse_by(metric, statistics.median(old), med)
                if drift > bound:
                    flag += f" MEDIAN WORSE BY {drift:.3f}"
                else:
                    flag += f" drift {drift:+.3f}"
            if "BOUND" in flag or "WORSE" in flag:
                flagged.append(f"{workload}/{name}")
            print(f"  {name:40} {units.get(name, ''):>7} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {'' if bound is None else bound:>6}  {flag}")
    if args.save:
        Path(args.save).write_text(json.dumps(saved, indent=1))
    if flagged:
        print("\nflagged: " + ", ".join(flagged))
        sys.exit(1)


if __name__ == "__main__":
    main()

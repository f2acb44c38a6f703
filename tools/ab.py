#!/usr/bin/env python3
"""A/B the repository benchmark: alternating parent/change pairs in one command.

    python3 tools/ab.py --parent REV --change REV|PATH [--workloads scan,contend,hot_rw]
        [--pairs 10] [--seed0 1] [--seconds S]

Run from anywhere inside the repository. Each side is exported once into a
temporary directory outside the repository: a git revision with `git archive`,
a PATH (for instance the working tree) by copying the files git tracks or
would track there, uncommitted edits included. Each side is then built and
run by its own perfbench/run.py. Pair i of a workload runs both sides with
seed seed0 + i; the parent runs first in even pairs and second in odd ones,
so slow drift of the host hits both sides alike.

For every workload and every end-to-end metric in BENCHMARK.json it prints
each side's median and quartiles (statistics.quantiles(values, n=4)), the
change's relative delta, the change's wins out of the pairs (ties count for
neither side), whether the median gain exceeds the parent's Q3 - Q1, and
WORSE where the change's median is worse than the parent's by more than the
metric's bound. It also prints failed/attempted operations per side.
The temporary directory is removed at the end.

Exit code: 1 when a run fails or reports a wrong output, 2 when a metric is
flagged WORSE, 0 otherwise.
"""
import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args, cwd=ROOT, binary=False):
    out = subprocess.run(["git", *args], cwd=cwd, stdout=subprocess.PIPE, check=True)
    return out.stdout if binary else out.stdout.decode().strip()


def export(side, dest):
    """Materialise `side` (a revision or a directory) at `dest`; return a label."""
    dest.mkdir(parents=True)
    path = Path(side)
    if path.is_dir():
        files = git("ls-files", "-z", "--cached", "--others", "--exclude-standard",
                    cwd=path, binary=True).split(b"\0")
        for name in filter(None, (f.decode() for f in files)):
            src = path / name
            if src.is_file():  # deleted-but-tracked files are skipped
                (dest / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(src, dest / name)
        return f"{path.resolve()} (working tree)"
    rev = git("rev-parse", "--verify", side + "^{commit}")
    data = git("archive", "--format=tar", rev, binary=True)
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest)
    return f"{side} = {rev[:12]}"


def run_side(tree, workload, seed, seconds):
    """One perfbench run of the side checked out at `tree`: (metrics, correct, attempted, failed)."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=3 * seconds + 900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise SystemExit(f"ab: {tree.name} {workload} seed {seed} produced no result "
                         f"(exit {proc.returncode})\n{tail}")
    metrics = {k: v["value"] for k, v in result.get("metrics", {}).items()}
    correct = bool(result.get("correct")) and proc.returncode == 0
    return metrics, correct, int(result.get("attempted", 0)), int(result.get("failed", 0))


def quartiles(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def fmt(v):
    return f"{v:.4g}" if abs(v) < 1e5 else f"{v:.0f}"


def report(workload, runs, e2e, pairs, seed0, seconds):
    """Print one workload's table; return the names of flagged metrics."""
    print(f"\n{workload}: {pairs} pairs, seeds {seed0}..{seed0 + pairs - 1}, {seconds:g} s per run")
    print(f"  {'metric':16} {'unit':>5}  {'parent median [Q1-Q3]':>30}  "
          f"{'change median [Q1-Q3]':>30}  {'delta':>7} {'wins':>6}  gain>IQR  flag")
    flagged = []
    for m in e2e:
        name, higher = m["name"], m.get("better") == "higher"
        p = [r["metrics"].get(name) for r in runs["parent"]]
        c = [r["metrics"].get(name) for r in runs["change"]]
        if any(v is None for v in p + c):
            print(f"  {name:16} missing from some runs")
            continue
        pm, pq1, pq3 = quartiles(p)
        cm, cq1, cq3 = quartiles(c)
        wins = sum(1 for a, b in zip(p, c) if (b > a if higher else b < a))
        delta = (cm - pm) / abs(pm) if pm else 0.0
        worse = -delta if higher else delta
        gain = (cm - pm) if higher else (pm - cm)
        flag = "WORSE" if worse > m["bound"] else ""
        if flag:
            flagged.append(f"{workload}.{name}")
        print(f"  {name:16} {m['unit']:>5}  {fmt(pm):>10} [{fmt(pq1):>8}-{fmt(pq3):<8}]  "
              f"{fmt(cm):>10} [{fmt(cq1):>8}-{fmt(cq3):<8}]  {delta:+7.1%} {wins:>3}/{pairs:<2}  "
              f"{'yes' if gain > pq3 - pq1 else 'no':8}  {flag}")
    for side in ("parent", "change"):
        failed = sum(r["failed"] for r in runs[side])
        attempted = sum(r["attempted"] for r in runs[side])
        print(f"  failed/attempted {side}: {failed}/{attempted}")
    return flagged


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision of the baseline")
    ap.add_argument("--change", required=True, help="git revision or directory to compare")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    workloads = [w for w in args.workloads.split(",") if w]

    work = Path(tempfile.mkdtemp(prefix="dosas-ab-"))
    trees = {"parent": work / "parent", "change": work / "change"}
    bad_output, flagged = [], []
    try:
        for side, spec in (("parent", args.parent), ("change", args.change)):
            print(f"{side}: {export(spec, trees[side])}", flush=True)
            print(f"  building {side} ...", file=sys.stderr, flush=True)
            run_side(trees[side], workloads[0], args.seed0, 0.5)  # builds; result discarded

        for workload in workloads:
            runs = {"parent": [], "change": []}
            for i in range(args.pairs):
                seed = args.seed0 + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    metrics, correct, attempted, failed = run_side(
                        trees[side], workload, seed, args.seconds)
                    if not correct:
                        bad_output.append(f"{side} {workload} seed {seed}: {failed} wrong outputs")
                    runs[side].append({"seed": seed, "metrics": metrics,
                                       "attempted": attempted, "failed": failed})
                print(f"  {workload} pair {i + 1}/{args.pairs} (seed {seed}) done",
                      file=sys.stderr, flush=True)
            flagged += report(workload, runs, bench["end_to_end"], args.pairs, args.seed0,
                              args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in bad_output:
        print(f"WRONG OUTPUT: {line}")
    if flagged:
        print("worse than bound: " + ", ".join(flagged))
    sys.exit(1 if bad_output else 2 if flagged else 0)


if __name__ == "__main__":
    main()

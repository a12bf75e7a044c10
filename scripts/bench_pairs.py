#!/usr/bin/env python3
"""Paired benchmark runs of two source trees, parent and change.

Runs ``perfbench/run.py --workload W --seed S --seconds T`` in each tree,
pair after pair, for each named workload (``all``: every workload of
``BENCHMARK.json``).  Pair i uses seed first_seed + i for both sides and
every workload, and the side that runs first alternates, so drift on the
machine falls on both.  Prints one table per workload: per end-to-end metric
of ``BENCHMARK.json``, each side's median and quartiles, how many pairs the
change won (by the metric's ``better`` direction; ties count for neither
side), and whether that is a gain: wins in at least nine tenths of the pairs
and medians further apart than the parent's interquartile range.  The
metric's ``bound``, read as a fraction of
the parent's median, flags the rest: ``worse`` when the change's median is
worse than the parent's by more than the bound, ``unresolved`` when the
parent's interquartile range alone is wider than the bound, unless the
metric is worse or every change run beats every parent run.  A run that
exits nonzero or does not report ``"correct": true`` stops the script with
exit status 1.

A tree is any directory holding a source checkout, such as a ``git
worktree`` or ``git archive`` export of the parent commit.

Usage: python3 scripts/bench_pairs.py PARENT_TREE CHANGE_TREE --workload W [W ...] --pairs N [--seconds S] [--first-seed S0]
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive of the extremes."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(parent: list[dict], change: list[dict], end_to_end: list[dict]) -> list[dict]:
    """One row per end-to-end metric over paired runs.

    parent[i] and change[i] map metric names to values for pair i; each
    entry of end_to_end names a metric, its ``better`` direction and,
    optionally, its relative ``bound`` (none: never worse or unresolved).
    """
    rows = []
    for metric in end_to_end:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        old = [run[name] for run in parent]
        new = [run[name] for run in change]
        wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
        losses = sum(sign * (b - a) < 0 for a, b in zip(old, new))
        p1, pm, p3 = quartiles(old)
        c1, cm, c3 = quartiles(new)
        allowed = metric.get("bound", math.inf) * abs(pm)
        worse = sign * (pm - cm) > allowed
        beats_every_run = min(sign * b for b in new) > max(sign * a for a in old)
        rows.append({
            "name": name,
            "unit": metric["unit"],
            "parent": (p1, pm, p3),
            "change": (c1, cm, c3),
            "wins": wins,
            "losses": losses,
            "gain": 10 * wins >= 9 * len(old) and sign * (cm - pm) > p3 - p1,
            "worse": worse,
            "unresolved": p3 - p1 > allowed and not worse and not beats_every_run,
        })
    return rows


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The metrics of one perfbench run in tree; exits 1 unless it is correct."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else {}
    if not result.get("correct"):
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"error: {tree} seed {seed}: run exited {done.returncode} without a correct result")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", nargs="+", required=True, help="workload names, or all")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    for tree in (args.parent, args.change):
        if not (tree / "perfbench" / "run.py").is_file():
            parser.error(f"{tree} holds no perfbench/run.py")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in benchmark["workloads"]]
    workloads = known if args.workload == ["all"] else args.workload
    for name in workloads:
        if name not in known:
            parser.error(f"unknown workload {name!r}; BENCHMARK.json has {', '.join(known)} or all")
    runs = {name: {"parent": [], "change": []} for name in workloads}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for name in workloads:
            for side in order:
                runs[name][side].append(run_once(getattr(args, side), name, seed, args.seconds))
            print(f"pair {i + 1}/{args.pairs} (seed {seed}, {order[0]} first) {name}: wall_s "
                  f"{runs[name]['parent'][-1]['wall_s']:.4g} -> {runs[name]['change'][-1]['wall_s']:.4g}",
                  flush=True)
    last = args.first_seed + args.pairs - 1
    for name in workloads:
        print(f"{name}: {args.pairs} pairs, seeds {args.first_seed}-{last}, --seconds {args.seconds}")
        print(f"  {'metric':14s} {'parent median [q1, q3]':>30s} {'change median [q1, q3]':>30s}  wins/losses")
        for row in summarize(runs[name]["parent"], runs[name]["change"], benchmark["end_to_end"]):
            (p1, pm, p3), (c1, cm, c3) = row["parent"], row["change"]
            print(f"  {row['name']:14s} {pm:10.4g} [{p1:.4g}, {p3:.4g}] {row['unit']:>4s}"
                  f" {cm:10.4g} [{c1:.4g}, {c3:.4g}] {row['unit']:>4s}"
                  f"  {row['wins']}/{row['losses']}"
                  + "".join(f"  {flag}" for flag in ("gain", "worse", "unresolved") if row[flag]))


if __name__ == "__main__":
    main()

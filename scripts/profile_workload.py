#!/usr/bin/env python3
"""Profile one pass of a benchmark workload under cProfile.

Builds the task list of ``perfbench.workloads.build(workload, seed)``, runs
every task once under the profiler and prints the top rows by cumulative
time.  ``--prefix KEY`` keeps only the tasks whose key starts with KEY
(``--prefix lce/`` on crit-monomial profiles the least critical exponents).
cProfile charges every Python call, so use it to find candidates and
measure any gain with ``perfbench/run.py``.  The cli-readme workload runs
child processes, which cProfile does not see, so it is not offered.

Usage: PYTHONPATH=src python3 scripts/profile_workload.py <workload> <seed> [rows] [--prefix KEY]
"""

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import workloads  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=[w for w in workloads.WORKLOADS if w != "cli-readme"])
    parser.add_argument("seed", type=int)
    parser.add_argument("rows", type=int, nargs="?", default=30)
    parser.add_argument("--prefix", default="", help="profile only the tasks whose key starts with it")
    args = parser.parse_args()
    tasks = workloads.build(args.workload, args.seed).tasks
    tasks = [t for t in tasks if t.key.startswith(args.prefix)]
    if not tasks:
        parser.error(f"no {args.workload} task key starts with {args.prefix!r}")
    profile = cProfile.Profile()
    for task in tasks:
        profile.runcall(task.fn)
    keys = f" with keys starting {args.prefix!r}" if args.prefix else ""
    print(f"{args.workload}, seed {args.seed}: {len(tasks)} tasks{keys}, one pass")
    pstats.Stats(profile, stream=sys.stdout).sort_stats("cumulative").print_stats(args.rows)


if __name__ == "__main__":
    main()

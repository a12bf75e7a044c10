#!/usr/bin/env python3
"""Profile one pass of a benchmark workload.

Builds the task list of ``perfbench.workloads.build(workload, seed)`` and
runs every task once.  ``--prefix KEY`` keeps only the tasks whose key
starts with KEY (``--prefix lce/`` on crit-monomial profiles the least
critical exponents).

Library workloads run under cProfile, and the top rows by cumulative time
are printed.  cProfile charges every Python call, so use it to find
candidates and measure any gain with ``perfbench/run.py``.

cli-readme tasks are CLI invocations, each run as a child process under
``python -X importtime`` (``--prefix cli/power/`` keeps the ten ``power``
calls).  The start-up profile is printed: per imported module, how many
children loaded it and the median self and cumulative import milliseconds
over those children, largest cumulative first.  Run it with
``PYTHONDONTWRITEBYTECODE=1`` on a tree without ``__pycache__``, as the
benchmark runs, to include the compile time.

Usage: PYTHONPATH=src python3 scripts/profile_workload.py <workload> <seed> [rows] [--prefix KEY]
"""

import argparse
import cProfile
import os
import pstats
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402

# "import time: <self us> | <cumulative us> | <indent><module>"
_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)")


def import_profile(tasks) -> dict[str, list[tuple[int, int]]]:
    """{module: [(self us, cumulative us) per child that imported it]}."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    seen: dict[str, list[tuple[int, int]]] = {}
    for task in tasks:
        argv = [sys.executable, "-X", "importtime", "-m", "frobpow.cli", *task.fn.argv]
        done = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=ROOT)
        if done.returncode != 0:
            sys.exit(f"{task.key}: exit {done.returncode}\n{done.stderr}")
        for match in map(_IMPORT_LINE.match, done.stderr.splitlines()):
            if match:
                seen.setdefault(match[4], []).append((int(match[1]), int(match[2])))
    return seen


def print_import_profile(seen, children: int, rows: int):
    table = [
        (statistics.median(s for s, _ in v) / 1000, statistics.median(c for _, c in v) / 1000, len(v), name)
        for name, v in seen.items()
    ]
    table.sort(key=lambda row: -row[1])
    print(f"{'self_ms':>9} {'cum_ms':>9} {'loaded':>9}  module")
    for self_ms, cum_ms, count, name in table[:rows]:
        print(f"{self_ms:9.2f} {cum_ms:9.2f} {f'{count}/{children}':>9}  {name}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=workloads.WORKLOADS)
    parser.add_argument("seed", type=int)
    parser.add_argument("rows", type=int, nargs="?", default=30)
    parser.add_argument("--prefix", default="", help="profile only the tasks whose key starts with it")
    args = parser.parse_args()
    tasks = workloads.build(args.workload, args.seed).tasks
    tasks = [t for t in tasks if t.key.startswith(args.prefix)]
    if not tasks:
        parser.error(f"no {args.workload} task key starts with {args.prefix!r}")
    keys = f" with keys starting {args.prefix!r}" if args.prefix else ""
    print(f"{args.workload}, seed {args.seed}: {len(tasks)} tasks{keys}, one pass")
    if args.workload == "cli-readme":
        print_import_profile(import_profile(tasks), len(tasks), args.rows)
        return
    profile = cProfile.Profile()
    for task in tasks:
        profile.runcall(task.fn)
    pstats.Stats(profile, stream=sys.stdout).sort_stats("cumulative").print_stats(args.rows)


if __name__ == "__main__":
    main()

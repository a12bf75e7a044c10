"""frobpow benchmark: one workload, timed, answer-checked, metrics as JSON.

    python3 perfbench/run.py --workload crit-monomial --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload in turn

Run from the root of a source checkout.  The library is imported from the
checkout's ``src/`` tree, never from an installed copy, and CLI tasks run as
child processes with ``PYTHONPATH`` pointing at the same tree.

One process runs one task at a time.  Set-up (import plus building the
inputs) happens before the first timed task.  Passes over the task list
repeat until at least ``--seconds`` have elapsed; every pass gets freshly
built inputs, and a task's latency is its median over all the times it ran
(cheap tasks run several times per pass).  Each task runs under the
workload's time budget (SIGALRM, no extra threads); a task that raises or
runs out of budget is counted as failed and charged the whole budget.  Every answer is digested
and compared with the pinned digest for its input; a mismatch, or a failed
independent check, prints the problem and exits 1 without a result line.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced pass and reports the per-layer metrics.  The last
line of standard output is the JSON result.  Per-task digests of every run
are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 7

END_TO_END = {
    "wall_s": "s",
    "task_p50_ms": "ms",
    "task_p90_ms": "ms",
    "solved_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BudgetExceeded(BaseException):
    """Raised by SIGALRM inside a task.  A BaseException, so library code that
    catches Exception cannot swallow it."""


def _on_alarm(signum, frame):
    raise BudgetExceeded()


@dataclass
class TaskRun:
    key: str
    seconds: float  # as measured
    error: str | None  # exception class name, or None for an answer
    value: Any = None


@dataclass
class Pass:
    runs: list[TaskRun]
    counters: dict[str, float] = field(default_factory=dict)

    def charged(self, budget: float) -> list[tuple[str, float]]:
        """(task, latency) per run, each failure charged the whole budget."""
        return [(r.key, budget if r.error else r.seconds) for r in self.runs]


# -- running tasks --------------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_library_task(task, budget: float) -> TaskRun:
    value, error = None, None
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, budget)
        try:
            value = task.fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except BudgetExceeded:
        error = "BudgetExceeded"
    except Exception as exc:  # a failed task is counted, not fatal
        error = type(exc).__name__
    return TaskRun(task.key, time.perf_counter() - start, error, value)


def run_cli_task(task, budget: float, trace_file: Path | None, counters: dict) -> TaskRun:
    """One CLI invocation as a child process; its stdout is the answer."""
    if trace_file is None:
        argv = [sys.executable, "-m", "frobpow.cli", *task.fn.argv]
    else:
        argv = [sys.executable, str(HERE / "cli_child.py"), str(trace_file), *task.fn.argv]
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=budget, env=child_env())
    except subprocess.TimeoutExpired:
        return TaskRun(task.key, time.perf_counter() - start, "BudgetExceeded")
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return TaskRun(task.key, seconds, f"ExitCode{proc.returncode}")
    if trace_file is not None:
        child = json.loads(trace_file.read_text())
        # perf_counter is CLOCK_MONOTONIC, shared by parent and child
        startup = child["imported_at"] - start
        spans.merge(counters, child["counters"])
        spans.merge(counters, {
            "cli.invocations": 1,
            "cli.startup_total_s": startup,
            "trace.task_s": seconds,
            "trace.attributed_s": startup,
        })
    try:
        payload = json.loads(proc.stdout)
    except json.JSONDecodeError:
        payload = proc.stdout  # not JSON: its digest cannot match the pinned one
    return TaskRun(task.key, seconds, None, payload)


def run_pass(workload, budget: float, tracer=None) -> Pass:
    from workloads import CliCall

    counters: dict[str, float] = {}
    runs = []
    for index, task in enumerate(workload.tasks):
        if isinstance(task.fn, CliCall):
            trace_file = OUT / "cli-trace.json" if tracer is not None else None
            runs.append(run_cli_task(task, budget, trace_file, counters))
            continue
        if tracer is not None:
            tracer.task = index
        run = run_library_task(task, budget)
        runs.append(run)
        if tracer is not None:
            tracer.task = -1
            counters["trace.task_s"] = counters.get("trace.task_s", 0) + run.seconds
    if tracer is not None:
        spans.merge(counters, tracer.counters())
        tracer.clear()
    return Pass(runs, counters)


# -- answers --------------------------------------------------------------------------


def verify(workload, result: Pass, pinned: dict[str, str], run_checks: bool) -> tuple[dict[str, str], list[str]]:
    """Digest every answer; compare with the pinned digests; run the
    independent checks.  Returns (recorded digests, problems)."""
    import jsonschema
    from frobpow.cli import OUTPUT_SCHEMA
    from workloads import answer_key, digest

    tasks = {t.key: t for t in workload.tasks}
    recorded, problems, values = {}, [], {}
    for run in result.runs:
        if run.error:
            continue
        task = tasks[run.key]
        if isinstance(run.value, dict):
            try:
                jsonschema.validate(run.value, OUTPUT_SCHEMA)
            except jsonschema.ValidationError as exc:
                problems.append(f"{run.key}: output violates OUTPUT_SCHEMA: {exc.message}")
                continue
        key = answer_key(run.key)
        recorded[key] = digest(task.answer(run.value))
        want = pinned.get(key)
        if want is not None and want != recorded[key]:
            problems.append(f"{run.key}: answer digest {recorded[key]} != pinned {want}")
        values[run.key] = run.value
    if run_checks:
        for check in workload.checks:
            problems += check(values)
    return recorded, problems


# -- metrics --------------------------------------------------------------------------


def setup_seconds(name: str, seed: int) -> float:
    """Median set-up time over fresh processes: import plus building inputs."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def setup_probe(name: str, seed: int, start: float) -> None:
    """Print the seconds since ``start`` (taken before frobpow was imported)
    once the workload's inputs are built."""
    if name == "cli-readme":
        import frobpow.cli  # noqa: F401  (its answers are checked against the schema)
    import workloads

    workloads.build(name, seed)
    print(time.perf_counter() - start)


def end_to_end(passes: list[Pass], budget: float, setup_s: float, peak_rss_mb: float) -> dict[str, float]:
    """Each task's latency is its median over all its runs; a task that
    failed in any run counts as unsolved."""
    per_task: dict[str, list[float]] = {}
    unsolved = set()
    for p in passes:
        for key, seconds in p.charged(budget):
            per_task.setdefault(key, []).append(seconds)
        unsolved.update(r.key for r in p.runs if r.error)
    latencies = sorted(statistics.median(v) for v in per_task.values())
    return {
        "wall_s": sum(latencies),
        "task_p50_ms": 1000 * statistics.median(latencies),
        "task_p90_ms": 1000 * statistics.quantiles(latencies, n=10)[-1],
        "solved_frac": 1 - len(unsolved) / len(per_task),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }


def peak_rss_mb(name: str) -> float:
    who = resource.RUSAGE_CHILDREN if name == "cli-readme" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


# -- main -----------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=5)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def use_source_tree() -> None:
    """Import frobpow from this checkout's src/ and nowhere else."""
    if not (SRC / "frobpow" / "__init__.py").is_file():
        raise SystemExit(f"error: no frobpow source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    import frobpow

    if Path(frobpow.__file__).resolve().parent != (SRC / "frobpow").resolve():
        raise SystemExit(f"error: frobpow imported from {frobpow.__file__}, not {SRC}")


def load_manifest() -> dict:
    return json.loads((HERE / "manifest.json").read_text())


def load_pinned(name: str) -> dict[str, str]:
    return json.loads((HERE / "digests.json").read_text()).get(name, {})


def run_all(args, names) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    worst = 0
    for name in names:
        print(f"== {name}", flush=True)
        worst = max(worst, subprocess.run([
            sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]).returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    setup_started = time.perf_counter()
    use_source_tree()
    manifest = load_manifest()
    if args.workload == "all":
        return run_all(args, list(manifest["workloads"]))
    if args.workload not in manifest["workloads"]:
        raise SystemExit(f"error: unknown workload {args.workload!r}")
    if args.setup_probe:
        setup_probe(args.workload, args.seed, setup_started)
        return 0

    import workloads

    spec = manifest["workloads"][args.workload]
    budget = spec["budget_s"]
    pinned = load_pinned(args.workload)
    signal.signal(signal.SIGALRM, _on_alarm)
    OUT.mkdir(exist_ok=True)

    workload = workloads.build(args.workload, args.seed)
    if len({t.key for t in workload.tasks}) != spec["tasks"]:
        raise SystemExit(f"error: task count differs from the manifest's {spec['tasks']}")

    started = time.perf_counter()
    passes = [run_pass(workload, budget)]
    rss = peak_rss_mb(args.workload)
    recorded, problems = verify(workload, passes[0], pinned, run_checks=True)
    while not (problems or args.trace) and time.perf_counter() - started < args.seconds:
        workload = workloads.build(args.workload, args.seed)
        passes.append(run_pass(workload, budget))
        problems += verify(workload, passes[-1], pinned, run_checks=False)[1]

    traced = None
    if args.trace and not problems:
        tracer = spans.Tracer()
        tracer.install(extra_modules=(workloads,))
        try:
            workload = workloads.build(args.workload, args.seed)
            tracer.clear()
            traced = run_pass(workload, budget, tracer)
        finally:
            tracer.uninstall()
        problems += verify(workload, traced, pinned, run_checks=False)[1]

    failures = {r.key: r.error for r in passes[0].runs if r.error}
    (OUT / f"{args.workload}-seed{args.seed}.json").write_text(
        json.dumps({"digests": recorded, "failures": failures}, indent=1, sort_keys=True) + "\n"
    )
    if problems:
        for problem in problems:
            print(f"wrong answer: {problem}", file=sys.stderr)
        return 1

    known = spec["known_failures"]
    for key, error in sorted(failures.items()):
        note = "known" if known.get(key) == error else "NEW"
        print(f"failed ({note}): {key}: {error}")

    attempted = sum(len(p.runs) for p in passes)
    failed = sum(1 for p in passes for r in p.runs if r.error)
    print(f"workload {args.workload} seed {args.seed}: {spec['tasks']} tasks, {attempted} timed calls "
          f"in {len(passes)} passes; budget {budget} s per task")
    if traced is None:
        metrics = end_to_end(passes, budget, setup_seconds(args.workload, args.seed), rss)
        units = END_TO_END
    else:
        wall = [sum(r.seconds for r in p.runs) for p in (passes[0], traced)]
        metrics = spans.layer_metrics(traced.counters, wall[1], wall[0])
        units = spans.LAYER_METRICS
        attempted += len(traced.runs)
        failed += sum(1 for r in traced.runs if r.error)
    for name, value in metrics.items():
        print(f"  {name:36s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

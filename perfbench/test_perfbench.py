"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/test_perfbench.py

They show that a wrong answer fails the run, that the time budget turns a
slow call into a counted failure, that tracing leaves the untraced pass
unwrapped, and that the metric names match BENCHMARK.json.
"""

import json
import random
import signal
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import frobpow  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def alarm():
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    yield
    signal.signal(signal.SIGALRM, previous)


def small_workload(seed, keys=("mu/p3/m^2/q9", "mu/p2/x^2,y^3/q4", "lce/p3/m^5/e5")):
    """A few cheap crit-monomial tasks, with the real checks and pinned digests."""
    full = workloads.build_crit_monomial(seed)
    tasks = [t for t in full.tasks if t.key in keys]
    assert len(tasks) == len(keys)
    return workloads.Workload("crit-monomial", tasks, full.checks)


@pytest.fixture
def tiny_run(monkeypatch):
    """run.main on a three-task crit-monomial workload."""
    manifest = run.load_manifest()
    manifest["workloads"]["crit-monomial"]["tasks"] = 3
    monkeypatch.setattr(run, "load_manifest", lambda: manifest)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(workloads, "build", lambda name, seed: small_workload(seed))

    def go(*extra):
        return run.main(["--workload", "crit-monomial", "--seed", "1", "--seconds", "0", *extra])

    return go


def result_line(text):
    lines = [line for line in text.splitlines() if line.startswith("{")]
    return json.loads(lines[-1]) if lines else None


def test_correct_answers_pass(tiny_run, capsys):
    assert tiny_run() == 0
    result = result_line(capsys.readouterr().out)
    assert result["correct"] and result["attempted"] == 3 and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_perturbed_answer_fails_the_run(tiny_run, monkeypatch, capsys):
    original = small_workload

    def perturbed(name, seed):
        wl = original(seed)
        task = next(t for t in wl.tasks if t.key == "mu/p3/m^2/q9")
        fn = task.fn
        task.fn = lambda: fn() + 1
        return wl

    monkeypatch.setattr(workloads, "build", perturbed)
    assert tiny_run() == 1
    captured = capsys.readouterr()
    assert result_line(captured.out) is None
    assert "mu/p3/m^2/q9: answer digest" in captured.err


def test_independent_check_catches_an_unpinned_wrong_answer():
    wl = small_workload(1)
    values = {t.key: t.fn() for t in wl.tasks}
    assert workloads.check_crit_reproduces_mu(values) == []
    values["mu/p3/m^5/q9"] = values["lce/p3/m^5/e5"].mu_list[1] + 1
    assert workloads.check_crit_reproduces_mu(values)


def test_budget_turns_a_slow_call_into_a_counted_failure(alarm):
    R = workloads.ring(5)
    a = workloads.ideal(R, *workloads.GENERAL_IDEALS["a2"])
    task = workloads.Task("mu/p5/a2/q625", lambda: frobpow.mu(a, workloads.maximal(R), 625), workloads.answer_of)
    quick = workloads.Task("mu/p5/a2/q5", lambda: frobpow.mu(a, workloads.maximal(R), 5), workloads.answer_of)
    slow, fast = run.run_library_task(task, 0.2), run.run_library_task(quick, 0.2)
    assert slow.error == "BudgetExceeded" and slow.seconds < 2
    assert fast.error is None and fast.value == 4
    one_pass = run.Pass([slow, fast])
    assert one_pass.charged(0.2) == [("mu/p5/a2/q625", 0.2), ("mu/p5/a2/q5", fast.seconds)]
    metrics = run.end_to_end([one_pass], 0.2, setup_s=0.1, peak_rss_mb=1.0)
    assert metrics["solved_frac"] == 0.5
    assert metrics["wall_s"] == 0.2 + fast.seconds


def _bindings():
    """Every attribute of every frobpow module and public class, by identity."""
    out = {}
    for name, module in sys.modules.items():
        if name == "frobpow" or name.startswith("frobpow.") or module is workloads:
            for attr, value in vars(module).items():
                out[(name, attr)] = value
                if isinstance(value, type) and value.__module__.startswith("frobpow"):
                    for cattr, cvalue in vars(value).items():
                        out[(name, attr, cattr)] = cvalue
    return out


def test_tracer_wraps_every_alias_and_restores_them():
    before = _bindings()
    tracer = spans.Tracer()
    tracer.install(extra_modules=(workloads,))
    try:
        assert frobpow.thresholds.mu is not before[("frobpow.thresholds", "mu")]
        assert frobpow.mu is frobpow.thresholds.mu is workloads.mu
        R = workloads.ring(3)
        tracer.task = 0
        frobpow.mu(workloads.named_ideal(R, "m^2"), workloads.maximal(R), 9)
        counters = tracer.counters()
    finally:
        tracer.uninstall()
    assert counters["thresholds.mu_calls"] == 1
    assert counters["thresholds.mu_probes"] >= 1
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)


def test_traced_run_leaves_the_untraced_pass_unwrapped(tiny_run, monkeypatch, capsys):
    seen = []
    original = small_workload

    def observed(name, seed):
        wl = original(seed)
        task = wl.tasks[0]
        fn = task.fn

        def call():
            seen.append(hasattr(frobpow.thresholds.mu, "__wrapped__"))
            return fn()

        task.fn = call
        return wl

    monkeypatch.setattr(workloads, "build", observed)
    assert tiny_run("--trace", "1") == 0
    result = result_line(capsys.readouterr().out)
    assert seen == [False, True]
    assert not hasattr(frobpow.thresholds.mu, "__wrapped__")
    assert set(result["metrics"]) == set(spans.LAYER_METRICS)
    assert result["metrics"]["thresholds.mu_calls"]["value"] >= 1


def test_metric_names_match_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spans.LAYER_METRICS
    manifest = run.load_manifest()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert list(manifest["workloads"]) == list(workloads.WORKLOADS)
    assert list(manifest["per_layer"]) == list(spans.LAYER_METRICS)
    for name in workloads.WORKLOADS:
        assert len({t.key for t in workloads.build(name, 7).tasks}) == manifest["workloads"][name]["tasks"]


def test_scaling_maps_general_answers_back():
    rng = random.Random(3)
    R = workloads.ring(5)
    plain = workloads.Scaling(R, rng)
    plain.c = plain.inv = (1, 1)
    scaled = workloads.Scaling(R, rng)
    assert scaled.c != (1, 1)
    t = Fraction(3, 2)
    gens = workloads.GENERAL_IDEALS["a2"]
    want = plain.answer(frobpow.rational_power(plain.ideal(*gens), t))
    assert scaled.answer(frobpow.rational_power(scaled.ideal(*gens), t)) == want
    assert scaled.ideal(*gens) != plain.ideal(*gens)

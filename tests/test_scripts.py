"""Smoke tests for the experiment scripts under scripts/."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# Output of `scripts/closure_comparison.py 3 4`; the script asserts that the
# two ideals' Newton test ideals agree at every t it prints.
CLOSURE_COMPARISON_3_4 = """\
p = 3, grid resolution 1/81
  <x,y>^5   (integral closure):
    [0, 1/3)  ->  1
    [1/3, 16/27)  ->  x, y
    [16/27, 7/9)  ->  x^2, x*y, y^2
    [7/9, 1)  ->  x^3, x^2*y, x*y^2, y^3
  <x^5,y^5>:
    [0, 1/3)  ->  1
    [1/3, 5/9)  ->  x, y
    [5/9, 2/3)  ->  x^2, x*y, y^2
    [2/3, 7/9)  ->  x^3, y^3, x*y
    [7/9, 1)  ->  x^3, x^2*y, x*y^2, y^3
  shared Newton test ideals:
    t >= 0: 1
    t >= 2/5: x, y
    t >= 3/5: x^2, x*y, y^2
    t >= 4/5: x^3, x^2*y, x*y^2, y^3
"""

# Output of `scripts/lce_survey.py 5`.
LCE_SURVEY_5 = """\
<x,y>^5
  p =  2:  lce =       3/8  (certified)
  p =  3:  lce =       1/3  (certified)
  p =  5:  lce =       2/5  (certified)
  p =  7:  lce =   137/343  (certified)
  p = 11:  lce =       2/5  (certified)
  fpt (all p): 2/5
<x,y>^7
  p =  2:  lce =       1/4  (certified)
  p =  3:  lce =     23/81  (certified)
  p =  5:  lce =      7/25  (certified)
  p =  7:  lce =       2/7  (certified)
  p = 11:  lce =      3/11  (certified)
  fpt (all p): 2/7
<x^2, y^3>
  p =  2:  lce =       1/2  (certified)
  p =  3:  lce =       2/3  (certified)
  p =  5:  lce =       4/5  (certified)
  p =  7:  lce =       5/6  (certified)
  p = 11:  lce =      9/11  (certified)
  fpt (all p): 5/6
<x^5, y^5>
  p =  2:  lce =       1/4  (certified)
  p =  3:  lce =       1/3  (certified)
  p =  5:  lce =       1/5  (certified)
  p =  7:  lce =     19/49  (certified)
  p = 11:  lce =       2/5  (certified)
  fpt (all p): 2/5
"""


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_closure_comparison_output_is_unchanged():
    assert run_script("closure_comparison.py", "3", "4") == CLOSURE_COMPARISON_3_4


def test_lce_survey_output_is_unchanged():
    assert run_script("lce_survey.py", "5") == LCE_SURVEY_5


def test_profile_workload_prints_a_profile():
    out = run_script("profile_workload.py", "crit-monomial", "1", "5")
    lines = out.splitlines()
    assert lines[0].startswith("crit-monomial, seed 1: ") and lines[0].endswith(" tasks, one pass")
    assert "Ordered by: cumulative time" in out
    assert "frobpow" in out


def test_profile_workload_keeps_the_tasks_of_one_prefix():
    out = run_script("profile_workload.py", "crit-monomial", "1", "40", "--prefix", "lce/")
    # crit-monomial has one lce task per characteristic 2, 3, 5, 7, 11
    assert out.splitlines()[0] == "crit-monomial, seed 1: 5 tasks with keys starting 'lce/', one pass"
    assert "(lce)" in out and "(crit_reconstruct)" not in out


def test_profile_workload_prints_the_start_up_profile_of_cli_commands():
    out = run_script("profile_workload.py", "cli-readme", "1", "60", "--prefix", "cli/power/")
    lines = out.splitlines()
    assert lines[0] == "cli-readme, seed 1: 10 tasks with keys starting 'cli/power/', one pass"
    assert lines[1].split() == ["self_ms", "cum_ms", "loaded", "module"]
    rows = {line.split()[-1]: line.split() for line in lines[2:]}
    assert rows["frobpow.ideal"][2] == "10/10"
    assert float(rows["frobpow.ideal"][1]) >= float(rows["frobpow.ideal"][0]) > 0
    # power runs no threshold, generic or Groebner layer
    assert "frobpow.frobpower" in rows and not {"frobpow.thresholds", "frobpow.groebner"} & set(rows)


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_summary_counts_wins_and_gains():
    bench_pairs = load_script("bench_pairs")
    end_to_end = [
        {"name": "wall_s", "unit": "s", "better": "lower"},
        {"name": "solved_frac", "unit": "ratio", "better": "higher"},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower"},
    ]
    parent_wall = [0.08, 0.10, 0.07, 0.09, 0.11, 0.08, 0.09, 0.10, 0.07, 0.12]
    change_wall = [0.05, 0.05, 0.04, 0.05, 0.06, 0.05, 0.05, 0.05, 0.08, 0.05]
    parent = [{"wall_s": w, "solved_frac": 1.0, "peak_rss_mb": 24 + i}
              for i, w in enumerate(parent_wall)]
    change = [{"wall_s": w, "solved_frac": 1.0, "peak_rss_mb": 29}
              for w in change_wall]
    wall, solved, rss = bench_pairs.summarize(parent, change, end_to_end)
    # 9 of 10 pairs won, and the medians 0.09 and 0.05 differ by more than
    # the parent's interquartile range 0.08-0.10
    assert (wall["wins"], wall["losses"], wall["gain"]) == (9, 1, True)
    assert wall["parent"] == pytest.approx((0.08, 0.09, 0.1))
    assert wall["change"][1] == pytest.approx(0.05)
    # ties count for neither side
    assert (solved["wins"], solved["losses"], solved["gain"]) == (0, 0, False)
    # lower is better: the change wins where the parent read above 29
    assert (rss["wins"], rss["losses"], rss["gain"]) == (4, 5, False)


def test_bench_pairs_gain_needs_the_medians_apart_by_the_parent_spread():
    bench_pairs = load_script("bench_pairs")
    end_to_end = [{"name": "wall_s", "unit": "s", "better": "lower"}]
    parent = [{"wall_s": w} for w in (1.0, 2.0, 3.0, 4.0)]
    change = [{"wall_s": w - 0.1} for w in (1.0, 2.0, 3.0, 4.0)]
    (row,) = bench_pairs.summarize(parent, change, end_to_end)
    assert (row["wins"], row["gain"]) == (4, False)
    (row,) = bench_pairs.summarize(parent[:1], change[:1], end_to_end)
    assert row["parent"] == (1.0, 1.0, 1.0) and row["gain"]


def test_bench_pairs_flags_a_regression_past_the_relative_bound():
    bench_pairs = load_script("bench_pairs")
    end_to_end = [
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
        {"name": "solved_frac", "unit": "ratio", "better": "higher", "bound": 0.0002},
    ]
    parent = [{"peak_rss_mb": 24.30, "solved_frac": 1.0}] * 6
    # +0.1 MB on 24.30 is 0.4%, inside a bound of 10% of the parent's median
    change = [{"peak_rss_mb": 24.40, "solved_frac": 1.0}] * 6
    rss, solved = bench_pairs.summarize(parent, change, end_to_end)
    assert (rss["losses"], rss["worse"], rss["unresolved"]) == (6, False, False)
    assert not solved["worse"]
    change = [{"peak_rss_mb": 27.0, "solved_frac": 0.999}] * 6
    rss, solved = bench_pairs.summarize(parent, change, end_to_end)
    assert rss["worse"] and solved["worse"]
    # a parent spread of 20% of its median is wider than the bound
    parent = [{"peak_rss_mb": v, "solved_frac": 1.0} for v in (20, 22, 24, 26, 28, 30)]
    rss, _ = bench_pairs.summarize(parent, change, end_to_end)
    assert (rss["worse"], rss["unresolved"]) == (False, True)
    # but a regression past the bound is worse, not unresolved, and a change
    # whose every run beats every parent run is resolved however wide
    for value, flags in ((40.0, (True, False)), (19.0, (False, False))):
        change = [{"peak_rss_mb": value, "solved_frac": 1.0}] * 6
        rss, _ = bench_pairs.summarize(parent, change, end_to_end)
        assert (rss["worse"], rss["unresolved"]) == flags, value
    # without a bound a metric is never flagged
    unbounded = [{"name": "peak_rss_mb", "unit": "MB", "better": "lower"}]
    (row,) = bench_pairs.summarize(parent, change, unbounded)
    assert (row["worse"], row["unresolved"]) == (False, False)


# A stand-in for perfbench/run.py: logs each call's workload and seed, and
# reports the wall_s stored beside it.
STUB_RUN = """\
import json, sys
from pathlib import Path

here = Path(__file__).parent
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
with open(here / "calls", "a") as log:
    log.write(f"{args['--workload']} {args['--seed']}\\n")
metrics = {"wall_s": float((here / "wall").read_text()), "task_p50_ms": 1.0, "task_p90_ms": 2.0,
           "solved_frac": 1.0, "setup_s": 0.1, "peak_rss_mb": 20.0}
print(json.dumps({"correct": True, "metrics": {k: {"value": v} for k, v in metrics.items()}}))
"""


def test_bench_pairs_runs_every_named_workload_in_each_pair(tmp_path):
    trees = []
    for side, wall in (("parent", "2.0"), ("change", "1.0")):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(STUB_RUN)
        (tmp_path / side / "perfbench" / "wall").write_text(wall)
        trees.append(str(tmp_path / side))
    out = run_script("bench_pairs.py", *trees, "--workload", "general-path", "cli-readme",
                     "--pairs", "2", "--seconds", "0", "--first-seed", "7")
    for side in ("parent", "change"):
        calls = (tmp_path / side / "perfbench" / "calls").read_text().splitlines()
        assert calls == ["general-path 7", "cli-readme 7", "general-path 8", "cli-readme 8"]
    lines = out.splitlines()
    assert lines[:4] == [
        "pair 1/2 (seed 7, parent first) general-path: wall_s 2 -> 1",
        "pair 1/2 (seed 7, parent first) cli-readme: wall_s 2 -> 1",
        "pair 2/2 (seed 8, change first) general-path: wall_s 2 -> 1",
        "pair 2/2 (seed 8, change first) cli-readme: wall_s 2 -> 1",
    ]
    headers = [line for line in lines[4:] if not line.startswith(" ")]
    assert headers == [f"{name}: 2 pairs, seeds 7-8, --seconds 0.0" for name in ("general-path", "cli-readme")]
    walls = [line.split() for line in lines if line.startswith("  wall_s")]
    assert len(walls) == 2 and all(row[-2:] == ["2/0", "gain"] for row in walls)
    out = run_script("bench_pairs.py", *trees, "--workload", "all", "--pairs", "1", "--seconds", "0")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    headers = [line.split(":")[0] for line in out.splitlines() if not line.startswith((" ", "pair "))]
    assert headers == [w["name"] for w in benchmark["workloads"]]


# Five code lines: the docstrings, comments and blank lines are not code,
# and a string that is not a docstring is code on each line it spans.
LOC_MODULE = '''"""Module docstring,
two lines."""

# a comment
X = 1  # code with a comment


class C:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        return """not a
docstring"""
'''


def test_loc_counts_code_lines_per_module(tmp_path):
    for tree, text in (("a", LOC_MODULE), ("b", LOC_MODULE + "Y = 2\n")):
        (tmp_path / tree / "src" / "frobpow").mkdir(parents=True)
        (tmp_path / tree / "src" / "frobpow" / "m.py").write_text(text)
    (tmp_path / "b" / "src" / "frobpow" / "n.py").write_text("# only a comment\n\nZ = 3\n")
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert run_script("loc.py", a).splitlines() == ["module    code", "m.py         5", "total        5"]
    assert run_script("loc.py", a, b).splitlines() == [
        f"A: {a}",
        f"B: {b}",
        "module       A       B     B-A",
        "m.py         5       6      +1",
        "n.py         0       1      +1",
        "total        5       7      +2",
    ]

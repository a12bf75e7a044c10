"""Smoke tests for the experiment scripts under scripts/."""

import os
import subprocess
import sys
from pathlib import Path

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

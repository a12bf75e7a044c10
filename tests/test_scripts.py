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


def test_closure_comparison_output_is_unchanged():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "closure_comparison.py"), "3", "4"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == CLOSURE_COMPARISON_3_4

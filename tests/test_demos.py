"""Smoke runs of the narrative demos and of the README's library quick
start, in-process with stdout captured.

Demo 05 (two-dimensional spreading on 241 x 241 points) is the slowest,
at about 1.4 s on a 2-core host; demos 01-04 take at most about 0.6 s
each.
"""

import contextlib
import io
import pathlib
import runpy

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


@pytest.mark.parametrize("name", [
    "01_front_spreading.py",
    "02_dispersion_relations.py",
    "03_speed_invariance.py",
    "04_stationary_profile.py",
    "05_two_dimensional_spread.py",
])
def test_demo_runs(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert out.getvalue().strip()


def test_readme_quick_start_runs():
    section = (ROOT / "README.md").read_text().split("## Library quick start\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md quick start", "exec"), {"__name__": "__main__"})
    slope, c_star = map(float, out.getvalue().split())
    # a pulled front approaches c* from below, 1.93 by t = 30
    assert c_star == 2.0 and 0.9 * c_star < slope < c_star

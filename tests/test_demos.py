"""Smoke runs of the narrative demos, in-process with stdout captured.

Demo 05 (two-dimensional spreading on 241 x 241 points) is the slowest,
at about 1.4 s on a 2-core host; demos 01-04 take at most about 0.6 s
each.
"""

import contextlib
import io
import pathlib
import runpy

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


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

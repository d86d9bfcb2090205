"""Smoke runs of the narrative demos, in-process with stdout captured.

Demo 05 (two-dimensional spreading) is left out to keep the suite fast:
it takes about 9 s on a 2-core host, where demos 01-04 take at most
about 1.5 s each.
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
])
def test_demo_runs(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert out.getvalue().strip()

"""Workload definitions for the kpplab benchmark.

A workload is a list of units.  Each unit makes one or more calls into
kpplab and returns the verdicts it checked.  The functions in
``WORKLOADS`` build the units from a seed; everything they do
(importing kpplab, writing and validating configs, building kernels and
coefficient cells) is the set-up that ``setup_s`` measures.

All library calls go through module attributes (``K.minimize_speed``,
``cli.main``) at call time, so the traced mode can replace them in place.
"""

from __future__ import annotations

import configparser
import glob
import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass

import numpy as np

import kpplab as K
from kpplab import cli

XI = 1.0
# Every eigen-backed scan stops below 1/h of the finest cell (h = 0.25):
# the default mu_max = 20 makes assemble_cell_operator raise once
# |mu| h >= 1 (a known defect, left open).
MU_MAX = 3.5
# Thresholds the criteria already use.
SPEED_TOL = 0.05
PAIRWISE_TOL = 0.02
GAP_TOL = 1e-6
RESIDUAL_TOL = 1e-7
EIGEN_AGREE_TOL = 1e-8
BOUND_SLACK = 1e-8


@dataclass
class Verdict:
    name: str
    ok: bool  # the verdict came out as expected
    headroom: float = None  # 1 - value/threshold, capped at 1; None for expected failures
    detail: str = ""


def headroom(value, threshold):
    return min(1.0, 1.0 - float(value) / float(threshold))


@dataclass
class Unit:
    name: str
    call: object  # () -> list[Verdict]


# ----------------------------------------------------------------------
# configs and CLI runs
# ----------------------------------------------------------------------


def write_config(path, base=None, overrides=None):
    """Write ``base`` (a config file or None) with ``overrides`` applied."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    if base is not None:
        with open(base) as fh:
            cp.read_string(fh.read())
    for section, values in (overrides or {}).items():
        if not cp.has_section(section):
            cp.add_section(section)
        for key, value in values.items():
            cp.set(section, key, str(value))
    with open(path, "w") as fh:
        cp.write(fh)
    return path


def validate_config(path):
    """`kpplab validate`: schema and stability precheck."""
    rc = cli.main(["validate", path, "--quiet"])
    if rc != 0:
        raise RuntimeError(f"config {path} failed validation (exit {rc})")


def cli_unit(name, config, workdir, seed, expect_exit, expect_verdict, margin_of):
    """One `kpplab run` in a fresh output directory; checks exit code,
    summary verdict and, for passing verdicts, the headroom."""

    def call():
        outdir = tempfile.mkdtemp(prefix="out-", dir=workdir)
        try:
            rc = cli.main(["run", config, "--jobs", "1", "--output-dir", outdir,
                           "--seed", str(seed), "--quiet"])
            leftovers = glob.glob(os.path.join(outdir, "*.tmp-*"))
            summaries = glob.glob(os.path.join(outdir, "*", "summary.json"))
            if len(summaries) != 1:
                return [Verdict(name, False, detail=f"exit {rc}, no summary.json")]
            with open(summaries[0]) as fh:
                summary = json.load(fh)
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        got = summary.get("verdict")
        ok = rc == expect_exit and got == expect_verdict and not leftovers
        detail = f"exit {rc}, verdict {got!r}"
        if leftovers:
            detail += f", left {len(leftovers)} temp dir(s)"
        room = margin_of(summary) if ok and margin_of else None
        return [Verdict(name, ok, room, detail)]

    return Unit(name, call)


def _speed_margin(summary):
    return headroom(summary["relative_error"], SPEED_TOL)


def _sweep_margin(summary):
    rooms = [headroom(c["relative_error"], SPEED_TOL) for c in summary["cells"]]
    return min(rooms + [headroom(summary["pairwise_spread"], PAIRWISE_TOL)])


def _clause_margin(summary):
    return headroom(summary["worst_value"], summary["threshold"])


def _stationary_margin(tail_threshold):
    def margin(summary):
        return min(
            headroom(summary["routes_gap"], GAP_TOL),
            headroom(summary["residual_from_above"], RESIDUAL_TOL),
            headroom(summary["residual_from_below"], RESIDUAL_TOL),
            headroom(summary["tail_deviation"], tail_threshold),
        )

    return margin


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------


def fronts_1d(root, bench, workdir, seed):
    """Shipped 1-D configs.  The Fisher run is shortened (L=120, T=40)
    so a run holds several repetitions; the other two run verbatim.
    None of them has a random input: the seed reaches kpplab only as
    `--seed`, which it records in the manifest."""
    shipped = os.path.join(root, "configs")
    fisher = write_config(os.path.join(workdir, "fisher_speed.cfg"),
                          os.path.join(shipped, "fisher_speed.cfg"),
                          {"habitat": {"half_extent": 120}, "solver": {"T": 40}})
    sweep = os.path.join(shipped, "invariance_discrete.cfg")
    control = os.path.join(shipped, "negative_control.cfg")
    for path in (fisher, sweep, control):
        validate_config(path)
    return [
        cli_unit("fisher_speed", fisher, workdir, seed, 0, "pass", _speed_margin),
        cli_unit("invariance_discrete", sweep, workdir, seed, 0, "pass", _sweep_margin),
        cli_unit("negative_control", control, workdir, seed, 1,
                 "expected-fail: confirmed", None),
    ]


def spread_2d(root, bench, workdir, seed):
    """Compact-data spreading, clause 3, on two 2-D configs owned by the
    benchmark.  The seed draws the patch radius, which changes neither
    the step size nor the grid."""
    rng = np.random.default_rng(seed)
    units = []
    for name in ("spread_nonlocal", "spread_random"):
        path = write_config(os.path.join(workdir, name + ".cfg"),
                            os.path.join(bench, "configs", name + ".cfg"),
                            {"reaction": {"radius": float(rng.uniform(1.0, 2.0))}})
        validate_config(path)
        units.append(cli_unit(name, path, workdir, seed, 0, "pass", _clause_margin))
    return units


def stationary_1d(root, bench, workdir, seed):
    """stationary_profile on the shipped random config, nonlocal and
    discrete copies of it, and a 2-D random copy with a dip.  None of
    them has a random input: the time to converge depends on the growth
    law, so a seeded patch would change the amount of work.  The seed
    reaches kpplab only as `--seed`."""
    base = os.path.join(root, "configs", "stationary_bump.cfg")
    variants = {
        "stationary_nonlocal": {"dispersal": {"kind": "nonlocal", "profile": "triangle",
                                              "delta0": 1.0}},
        "stationary_discrete": {"habitat": {"kind": "lattice", "spacing": 1.0},
                                "dispersal": {"kind": "discrete", "a": 1.0}},
        "stationary_2d": {"habitat": {"dim": 2, "half_extent": 8, "spacing": 0.25},
                          "reaction": {"amplitude": -0.5}},
    }
    paths = {"stationary_bump": base}
    for name, overrides in variants.items():
        paths[name] = write_config(os.path.join(workdir, name + ".cfg"), base, overrides)
    units = []
    for name, path in paths.items():
        validate_config(path)
        cp, _ = cli.load_config(path)
        tail_threshold = cp.getfloat("experiment", "tail_threshold", fallback=0.01)
        units.append(cli_unit(name, path, workdir, seed, 0, "pass",
                              _stationary_margin(tail_threshold)))
    return units


def _seeded_cell(rng, period, spacing):
    """Mean 1 plus three Fourier modes with seeded phases.  The mode sizes
    are fixed and sum to 0.24, so the oscillation stays below 0.5, the
    one-sided mass of every symmetric kernel: the nonlocal principal
    eigenvalue then exists and power iteration converges at a similar
    rate for every seed."""
    n = int(round(period / spacing))
    x = np.arange(n) * spacing
    vals = 1.0 + sum(
        amp * np.sin(2.0 * np.pi * (k + 1) * x / period + rng.uniform(0.0, 2.0 * np.pi))
        for k, amp in enumerate((0.12, 0.08, 0.04))
    )
    return K.PeriodicCoefficient((period,), spacing, vals)


def dispersion_cells(root, bench, workdir, seed):
    """Eigen-backed speeds on three periodic cells, through the library
    (the CLI has no eigen-backed speed).  Continuum cells have period 4
    at h = 0.25 (16 points); the lattice cell has period 8."""
    rng = np.random.default_rng(seed)
    kernel = K.Kernel.from_profile("triangle", 1.0, 0.25, 1)
    cells = [
        ("random", _seeded_cell(rng, 4.0, 0.25), {}),
        ("nonlocal", _seeded_cell(rng, 4.0, 0.25), {"kernel": kernel}),
        ("discrete", _seeded_cell(rng, 8.0, 1.0),
         {"weights": K.LatticeWeights.symmetric(1, 1.0)}),
    ]
    return [Unit(f"{kind}_cell", _eigen_speed_call(kind, a, payload))
            for kind, a, payload in cells]


def _eigen_speed_call(kind, a, payload):
    resolution = payload["kernel"].spacing if "kernel" in payload else None

    def call():
        rel = K.DispersionRelation.eigen_backed(kind, XI, a, mu_max=MU_MAX, **payload)
        speed = K.minimize_speed(rel)
        # power-iteration lambda at mu* against the dense spectrum
        op = K.assemble_cell_operator(kind, speed.mu_star, XI, a, **payload)
        lam = K.principal_eigenvalue(op).lam
        lam_dense = float(np.max(np.linalg.eigvals(op.to_matrix()).real))
        gap = abs(lam - lam_dense)
        # variation never lowers the speed below the averaged coefficient's
        avg = K.DispersionRelation.closed_form(kind, XI, a.average, mu_max=MU_MAX,
                                               resolution=resolution, **payload)
        c_avg = K.minimize_speed(avg).c_star
        below = c_avg - speed.c_star
        return [
            Verdict(f"{kind}_cell.lambda", gap <= EIGEN_AGREE_TOL,
                    headroom(gap, EIGEN_AGREE_TOL), f"|lambda - eigvals| = {gap:.2e}"),
            Verdict(f"{kind}_cell.speed_bound", below <= BOUND_SLACK,
                    headroom(below, BOUND_SLACK),
                    f"c* = {speed.c_star:.6f} >= c(avg) = {c_avg:.6f}"),
        ]

    return call


WORKLOADS = {
    "fronts_1d": fronts_1d,
    "spread_2d": spread_2d,
    "dispersion_cells": dispersion_cells,
    "stationary_1d": stationary_1d,
}


def run_unit(unit):
    """Run one unit; an exception is a failed verdict, never a skip."""
    try:
        return unit.call()
    except Exception as exc:  # the benchmark must keep going and report it
        return [Verdict(unit.name, False, detail=f"raised {type(exc).__name__}: {exc}")]


def margin_min(verdicts):
    rooms = [v.headroom for v in verdicts if v.ok and v.headroom is not None]
    return min(rooms) if rooms else math.nan

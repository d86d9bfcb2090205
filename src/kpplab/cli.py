"""Config-driven batch runner.

Subcommands: run, speed, eigen, validate, list-experiments.
Configs are flat INI files (sections habitat/reaction/dispersal/solver/
experiment/output); validation failures name the offending section.key
and exit 2, as does a [solver] key the experiment cannot honour;
runtime errors exit 3, failed verdicts exit 1.  The pipelines live in
kpplab.experiments and kpplab.stationary.  Artifacts are written to a
fresh directory atomically (temp dir, removed on failure, then rename)
with a manifest sufficient to rerun the job.  Flags beat environment
variables (KPPLAB_JOBS, KPPLAB_OUTPUT_DIR, KPPLAB_SEED, KPPLAB_QUIET),
which beat the config file; an unparsable environment value exits 2.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import configparser
import dataclasses
import itertools
import os
import shutil
import sys
import time

import numpy as np
import scipy

from . import __version__
from .dispersal import KINDS, NONLOCAL, RANDOM, DispersalOperator
from .domain import (
    CLAMP,
    CONTINUUM,
    Habitat,
    Kernel,
    LatticeWeights,
    PERIODIC,
    Reaction,
    check_kpp_hypotheses,
)
from .dynamics import RK4, EULER, stability_dt_bound
from .eigen import closed_form_eigenvalue
from .experiments import (
    THEORY_TOL,
    SweepSetup,
    run_compact_spreading_checks,
    run_front,
    run_invariance_cell,
    run_speed_invariance_sweep,
    verify_spreading_cones,
)
from .exports import fmt, sha256_text, write_csv, write_json
from .speeds import theoretical_speed
from .stationary import FROM_ABOVE, FROM_BELOW, check_tail, solve_stationary


class ConfigError(Exception):
    """Schema violation; the message carries the section.key path."""


_REQUIRED = object()


def _get(cp, section, key, cast=str, default=_REQUIRED, choices=None):
    if not cp.has_section(section):
        if default is _REQUIRED:
            raise ConfigError(f"missing section [{section}]")
        return default
    if not cp.has_option(section, key):
        if default is _REQUIRED:
            raise ConfigError(f"{section}.{key}: required key is missing")
        return default
    raw = cp.get(section, key).strip()
    try:
        val = cast(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{section}.{key}: cannot parse {raw!r} as {cast.__name__}") from None
    if choices is not None and val not in choices:
        raise ConfigError(f"{section}.{key}: {val!r} not in {sorted(choices)}")
    return val


def floats(raw):
    """A comma-separated list of floats; an empty entry does not parse."""
    return tuple(float(tok) for tok in raw.split(","))


def _or_auto(cast):
    """cast, with 'auto' read as None."""
    def parse(raw):
        return None if raw == "auto" else cast(raw)

    parse.__name__ = f"{cast.__name__} or 'auto'"
    return parse


def load_config(path):
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None
    known = {"habitat", "reaction", "dispersal", "solver", "experiment", "output"}
    for s in cp.sections():
        if s not in known:
            raise ConfigError(f"unknown section [{s}]")
    return cp, text


def build_habitat(cp) -> Habitat:
    kind = _get(cp, "habitat", "kind", str, choices={CONTINUUM, "lattice"})
    dim = _get(cp, "habitat", "dim", int, default=1, choices={1, 2})
    L = _get(cp, "habitat", "half_extent", float)
    spacing = _get(cp, "habitat", "spacing", float, default=1.0)
    boundary = _get(cp, "habitat", "boundary", str, default=CLAMP, choices={CLAMP, PERIODIC})
    try:
        return Habitat(kind, dim, L, spacing, boundary)
    except ValueError as exc:
        raise ConfigError(f"habitat: {exc}") from None


def build_reaction(cp) -> Reaction:
    family = _get(cp, "reaction", "family", str, default="linear",
                  choices={"linear", "logistic"})
    r0 = _get(cp, "reaction", "r0", float)
    amplitude = _get(cp, "reaction", "amplitude", float, default=0.0)
    radius = _get(cp, "reaction", "radius", float, default=1.0)
    try:
        if family == "linear":
            b = _get(cp, "reaction", "b", float, default=1.0)
            return Reaction.linear(r0, b, amplitude, radius)
        K = _get(cp, "reaction", "carrying_capacity", float)
        return Reaction.logistic(r0, K, amplitude, radius)
    except ValueError as exc:
        raise ConfigError(f"reaction: {exc}") from None


def build_dispersal(cp, habitat) -> DispersalOperator:
    kind = _get(cp, "dispersal", "kind", str, choices=set(KINDS))
    try:
        if kind == RANDOM:
            op = DispersalOperator.random()
        elif kind == NONLOCAL:
            profile = _get(cp, "dispersal", "profile", str, default="triangle",
                           choices={"uniform", "triangle", "mollifier"})
            delta0 = _get(cp, "dispersal", "delta0", float, default=1.0)
            kernel = Kernel.from_profile(profile, delta0, habitat.spacing, habitat.dim)
            op = DispersalOperator.nonlocal_(kernel)
        else:
            a = _get(cp, "dispersal", "a", float, default=1.0)
            op = DispersalOperator.discrete(LatticeWeights.symmetric(habitat.dim, a))
        op.check_habitat(habitat)
        return op
    except ValueError as exc:
        raise ConfigError(f"dispersal: {exc}") from None


def build_solver(cp):
    scheme = _get(cp, "solver", "scheme", str, default=RK4, choices={RK4, EULER})
    T = _get(cp, "solver", "T", float, default=100.0)
    dt = _get(cp, "solver", "dt", _or_auto(float), default=None)
    record_every = _get(cp, "solver", "record_every", _or_auto(int), default=None)
    if dt is not None and dt <= 0:
        raise ConfigError("solver.dt: must be positive or 'auto'")
    if T <= 0:
        raise ConfigError("solver.T: must be positive")
    return {"scheme": scheme, "T": T, "dt": dt, "record_every": record_every}


def _build(cp, name=None):
    """Habitat, reaction, dispersal and solver, with the solver keys
    checked against the stability bound and against experiment `name`."""
    habitat = build_habitat(cp)
    reaction = build_reaction(cp)
    op = build_dispersal(cp, habitat)
    solver = build_solver(cp)
    if solver["dt"] is not None:
        bound = stability_dt_bound(op, reaction, habitat.full(reaction.beta0 + 1.0))
        if solver["dt"] > bound * (1.0 + 1e-12):
            raise ConfigError(f"solver.dt: {solver['dt']} violates the stability bound {bound:.6g}")
    if name not in (None, "front_speed") and solver["scheme"] != RK4:
        raise ConfigError(f"solver.scheme: {name} runs rk4 only")
    if name in ("spreading_features", "stationary_profile") and solver["record_every"] is not None:
        raise ConfigError(f"solver.record_every: {name} records no trajectory; leave it auto")
    return habitat, reaction, op, solver


def _direction(cp, dim):
    return _get(cp, "experiment", "direction", floats, default=(1.0,) + (0.0,) * (dim - 1))


def _front_keys(cp, dim):
    """[experiment] keys of a front run, shared by front_speed and the sweep."""
    return {
        "xi": _direction(cp, dim),
        "sigma0": _get(cp, "experiment", "sigma0", float, default=1.0),
        "level_fraction": _get(cp, "experiment", "level_fraction", float, default=0.5),
        "burn_in": _get(cp, "experiment", "burn_in", float, default=0.5),
    }


# ----------------------------------------------------------------------
# experiment runners
# ----------------------------------------------------------------------


def _exp_front_speed(cp, habitat, reaction, op, solver, options):
    keys = _front_keys(cp, habitat.dim)
    margin = _get(cp, "experiment", "margin", float, default=0.2)
    run = run_front(op, reaction, habitat, **solver, **keys)
    est = run.estimate
    cones = verify_spreading_cones(run.traj, keys["xi"], run.theory.c_star, run.u0_star, margin)
    ok = est.rel_error <= THEORY_TOL and cones.ok
    summary = {
        "experiment": "front_speed",
        "kind": op.kind,
        "c_empirical": est.slope,
        "c_theory": run.theory.c_star,
        "mu_star": run.theory.mu_star,
        "relative_error": est.rel_error,
        "rms_residual": est.rms_residual,
        "fit_window": list(est.window),
        "cones_ok": cones.ok,
        "clip_count": run.traj.clip_count,
        "verdict": "pass" if ok else "fail",
    }
    artifacts = {
        "front_trace.csv": ("csv", ["t", "position"],
                            [[t, p] for t, p in zip(run.trace.times, run.trace.positions)]),
    }
    return ok, summary, artifacts


def _exp_invariance_sweep(cp, habitat, reaction, op, solver, options):
    amplitudes = _get(cp, "experiment", "amplitudes", floats, default=(-0.5, 0.0, 0.5, 1.0))
    setup = SweepSetup(
        op=op,
        habitat=habitat,
        reaction0=dataclasses.replace(reaction, amplitude=0.0),
        T=solver["T"],
        amplitudes=amplitudes,
        dt=solver["dt"],
        record_every=solver["record_every"],
        **_front_keys(cp, habitat.dim),
    )
    jobs = options.get("jobs", 1)
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(run_invariance_cell, itertools.repeat(setup), amplitudes))
    else:
        rows = [run_invariance_cell(setup, a) for a in amplitudes]
    report = run_speed_invariance_sweep(setup, rows=rows)
    summary = {
        "experiment": "invariance_sweep",
        "kind": op.kind,
        "c_theory": report.c_theory,
        "pairwise_spread": report.pairwise_spread,
        "ok_theory": report.ok_theory,
        "ok_pairwise": report.ok_pairwise,
        "verdict": "pass" if report.ok else "fail",
        "cells": [
            {"amplitude": r.amplitude, "c_empirical": r.c_emp, "relative_error": r.rel_error}
            for r in report.rows
        ],
    }
    artifacts = {
        "sweep.csv": ("csv", ["amplitude", "c_empirical", "c_theory", "relative_error"],
                      [[r.amplitude, r.c_emp, r.c_theory, r.rel_error] for r in report.rows]),
    }
    return report.ok, summary, artifacts


def _exp_spreading_features(cp, habitat, reaction, op, solver, options):
    clause = _get(cp, "experiment", "clause", int, choices={1, 2, 3, 4})
    r = _get(cp, "experiment", "support_radius", float, default=3.0)
    sigma = _get(cp, "experiment", "sigma", float, default=1.0)
    c_scale = _get(cp, "experiment", "c_scale", float, default=1.0)
    margin = _get(cp, "experiment", "margin", float, default=0.2)
    verdict = run_compact_spreading_checks(
        op, reaction, habitat, clause, solver["T"], r=r, sigma=sigma,
        dt=solver["dt"], margin=margin, c_scale=c_scale,
    )
    summary = {
        "experiment": "spreading_features",
        "kind": op.kind,
        "clause": clause,
        "worst_value": verdict.worst_value,
        "threshold": verdict.threshold,
        "c_used": verdict.c_used,
        "verdict": "pass" if verdict.ok else "fail",
    }
    return verdict.ok, summary, {}


def _exp_stationary_profile(cp, habitat, reaction, op, solver, options):
    above = solve_stationary(op, reaction, habitat, FROM_ABOVE, solver["dt"], solver["T"])
    below = solve_stationary(op, reaction, habitat, FROM_BELOW, solver["dt"], solver["T"])
    gap = float(np.abs(above.u_star.values - below.u_star.values).max())
    report = check_kpp_hypotheses(reaction, habitat)
    tail_radius = _get(cp, "experiment", "tail_radius", float, default=4.0 * reaction.radius)
    tail_threshold = _get(cp, "experiment", "tail_threshold", float, default=0.01)
    tail = check_tail(above.u_star, report.u0_star, tail_radius, delta0=op.delta0)
    ok = gap <= 1e-6 and tail < tail_threshold
    summary = {
        "experiment": "stationary_profile",
        "kind": op.kind,
        "routes_gap": gap,
        "residual_from_above": above.residual,
        "residual_from_below": below.residual,
        "tail_deviation": tail,
        "tail_radius": tail_radius,
        "u0_star": report.u0_star,
        "verdict": "pass" if ok else "fail",
    }
    coords = habitat.grid()[0].ravel() if habitat.dim == 1 else habitat.radius().ravel()
    artifacts = {
        "profile.csv": ("csv", ["x", "u_star"],
                        [[x, u] for x, u in zip(coords, above.u_star.values.ravel())]),
    }
    return ok, summary, artifacts


EXPERIMENTS = {
    "front_speed": (_exp_front_speed, "evolve front data, fit the empirical speed, cone verdict"),
    "invariance_sweep": (_exp_invariance_sweep, "amplitude sweep; speeds must agree pairwise and with theory"),
    "spreading_features": (_exp_spreading_features, "compact-data expanding-region checks (clauses 1-4)"),
    "stationary_profile": (_exp_stationary_profile, "both monotone routes, uniqueness gap and tail deviation"),
}


# ----------------------------------------------------------------------
# artifact writing
# ----------------------------------------------------------------------


def _write_run_dir(cp, options, name, artifacts, manifest):
    """Write <output dir>/<name> via a temp dir, removed if a write fails."""
    output_dir = options["output_dir"] or _get(cp, "output", "directory", str, default="out")
    os.makedirs(output_dir, exist_ok=True)
    final = os.path.join(output_dir, name)
    if os.path.exists(final):
        raise RuntimeError(f"output directory already exists: {final}")
    tmp = final + f".tmp-{os.getpid()}"
    os.makedirs(tmp)
    try:
        for fname, payload in artifacts.items():
            path = os.path.join(tmp, fname)
            if payload[0] == "csv":
                write_csv(path, payload[1], payload[2])
            else:
                write_json(path, payload[1])
        write_json(os.path.join(tmp, "manifest.json"), manifest)
        os.rename(tmp, final)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    if not options["quiet"]:
        print(f"artifacts written to {final}")
    return final


def _manifest(cfg_text, summary, options, wall_time):
    return {
        "config_sha256": sha256_text(cfg_text),
        "config": cfg_text,
        "kpplab_version": __version__,
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "seed": options.get("seed"),
        "jobs": options.get("jobs"),
        "wall_time_s": wall_time,
        "summary": summary,
    }


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def _cmd_run(cp, cfg_text, options):
    name = _get(cp, "experiment", "name", str, choices=set(EXPERIMENTS))
    habitat, reaction, op, solver = _build(cp, name)
    expect = _get(cp, "experiment", "expect", str, default="pass", choices={"pass", "fail"})
    if options["seed"] is None:
        options["seed"] = _get(cp, "experiment", "seed", int, default=0)

    runner, _ = EXPERIMENTS[name]
    t0 = time.perf_counter()
    ok, summary, artifacts = runner(cp, habitat, reaction, op, solver, options)
    wall = time.perf_counter() - t0

    if expect == "fail":
        summary["verdict"] = "expected-fail: confirmed" if not ok else "expected-fail: NOT confirmed"
        final_ok = False  # a failing verdict was the point; exit code stays 1
    else:
        final_ok = ok

    artifacts = dict(artifacts)
    artifacts["summary.json"] = ("json", summary)
    _write_run_dir(cp, options, name, artifacts, _manifest(cfg_text, summary, options, wall))
    if not options["quiet"]:
        print(f"verdict: {summary['verdict']}")
    return 0 if final_ok else 1


def _dispersion_table(cp):
    """Operator, reaction, direction and closed-form lambda(mu) at r = f0(0)."""
    habitat = build_habitat(cp)
    reaction = build_reaction(cp)
    op = build_dispersal(cp, habitat)
    xi = _direction(cp, habitat.dim)
    mu_max = _get(cp, "experiment", "mu_max", float, default=5.0)
    n_mu = _get(cp, "experiment", "n_mu", int, default=101)
    mus = np.linspace(1e-3, mu_max, n_mu)
    r = float(reaction.f0(0.0))
    lams = closed_form_eigenvalue(op.kind, mus, xi, r, kernel=op.kernel, weights=op.weights)
    return op, reaction, xi, mus, lams


def _cmd_speed(cp, cfg_text, options):
    op, reaction, xi, mus, lams = _dispersion_table(cp)
    result = theoretical_speed(op.kind, reaction, xi, kernel=op.kernel, weights=op.weights)
    summary = {
        "c_star": result.c_star,
        "mu_star": result.mu_star,
        "kind": op.kind,
        "evaluations": result.evaluations,
    }
    artifacts = {
        "speed_curve.csv": ("csv", ["mu", "lambda_over_mu"],
                            [[m, l / m] for m, l in zip(mus, lams)]),
        "speed.json": ("json", summary),
    }
    _write_run_dir(cp, options, "speed", artifacts, _manifest(cfg_text, summary, options, 0.0))
    if not options["quiet"]:
        print(f"c* = {fmt(result.c_star)} at mu* = {fmt(result.mu_star)}")
    return 0


def _cmd_eigen(cp, cfg_text, options):
    op, reaction, _, mus, lams = _dispersion_table(cp)
    summary = {"kind": op.kind, "r": float(reaction.f0(0.0)), "n_mu": len(mus)}
    artifacts = {
        "dispersion.csv": ("csv", ["mu", "lambda"], [[m, l] for m, l in zip(mus, lams)]),
    }
    _write_run_dir(cp, options, "eigen", artifacts, _manifest(cfg_text, summary, options, 0.0))
    return 0


def _cmd_validate(cp, cfg_text, options):
    _build(cp, _get(cp, "experiment", "name", str, default=None, choices=set(EXPERIMENTS)))
    if not options["quiet"]:
        print("config ok")
    return 0


def _cmd_list(options):
    for name, (_, doc) in sorted(EXPERIMENTS.items()):
        print(f"{name:20s} {doc}")
    return 0


def _env_value(parser, name, cast, fallback):
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except ValueError:
        parser.error(f"environment variable {name}: cannot parse {raw!r} as {cast.__name__}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="kpplab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    jobs = _env_value(parser, "KPPLAB_JOBS", int, 1)
    seed = _env_value(parser, "KPPLAB_SEED", int, None)
    for name in ("run", "speed", "eigen", "validate"):
        p = sub.add_parser(name)
        p.add_argument("config")
        p.add_argument("--jobs", type=int, default=jobs)
        p.add_argument("--output-dir", default=os.environ.get("KPPLAB_OUTPUT_DIR"))
        p.add_argument("--seed", type=int, default=seed)
        p.add_argument("--quiet", action="store_true",
                       default=os.environ.get("KPPLAB_QUIET") == "1")
    sub.add_parser("list-experiments")

    args = parser.parse_args(argv)
    if args.command == "list-experiments":
        return _cmd_list({})

    options = {
        "jobs": max(1, args.jobs),
        "output_dir": args.output_dir,
        "seed": args.seed,
        "quiet": args.quiet,
    }
    try:
        cp, text = load_config(args.config)
        handler = {
            "run": _cmd_run,
            "speed": _cmd_speed,
            "eigen": _cmd_eigen,
            "validate": _cmd_validate,
        }[args.command]
        return handler(cp, text, options)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure, distinct from bad config
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Config-driven batch runner.

Subcommands: run, speed, eigen, validate, list-experiments.
Configs are flat INI files (sections habitat/reaction/dispersal/solver/
experiment/output).  run, speed, eigen and validate all call one parse,
parse_config: it reads every key any of them honours (each experiment
adds its own key parser), checks each reaction of a front run for
f(x, 0) > 0 and an explicit solver.dt against the march_plan of every
march the experiment runs, and then refuses every key in the file it
did not read.  A misspelled key, a value that does not parse and a key
the experiment cannot honour all exit 2 and name section.key, before
any output is written.  Runtime errors exit 3,
failed verdicts exit 1.

No key sets a height or a gate: each is derived from the carrying
capacity u0* = r0 / slope.  Front and compact data start at u0*, the
front is tracked at 0.5 u0* and fitted after T/2, the march records by
its automatic rule (about 240 records), and stationary_profile reads its
tail from 4 patch radii out against 0.01 u0*, with a routes gap of at
most 1e-6 u0* and a negative stability bound on both routes.  The
pipelines live in kpplab.experiments and kpplab.stationary.  Artifacts
are written to a fresh directory atomically (temp dir, removed on
failure, then rename) with a manifest sufficient to rerun the job.
Flags beat environment variables (KPPLAB_JOBS, KPPLAB_OUTPUT_DIR,
KPPLAB_QUIET), which beat the config file; an unparsable environment
value exits 2.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import itertools
import os
import shutil
import sys
import time

import numpy as np

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
    unit_direction,
)
from .dynamics import RK4, march_plan
from .eigen import closed_form_eigenvalue
from .experiments import (
    THEORY_TOL,
    SweepSetup,
    check_front_reaction,
    check_support_radius,
    run_compact_spreading_checks,
    run_front,
    run_invariance_cell,
    run_speed_invariance_sweep,
    verify_spreading_cones,
)
from .exports import sha256_text, write_csv, write_json
from .speeds import theoretical_speed
from .stationary import FROM_ABOVE, FROM_BELOW, check_tail, solve_stationary, tail_window


class ConfigError(Exception):
    """Schema violation; the message carries the section.key path."""


_REQUIRED = object()


class _Config(configparser.ConfigParser):
    """A parsed config that remembers which (section, key) pairs _get read."""

    def __init__(self):
        super().__init__(inline_comment_prefixes=(";", "#"))
        self.read_keys = set()


def _get(cp, section, key, cast=str, default=_REQUIRED, choices=None):
    cp.read_keys.add((section, cp.optionxform(key)))
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
    cp = _Config()
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
    # selects nothing (the kind and grid pick the scheme); read because the
    # benchmark's perfbench/configs/spread_*.cfg set it to rk4
    _get(cp, "solver", "scheme", str, default=RK4, choices={RK4})
    T = _get(cp, "solver", "T", float, default=100.0)
    dt = _get(cp, "solver", "dt", _or_auto(float), default=None)
    if dt is not None and dt <= 0:
        raise ConfigError("solver.dt: must be positive or 'auto'")
    if T <= 0:
        raise ConfigError("solver.T: must be positive")
    return {"T": T, "dt": dt}


def _direction(cp, dim):
    xi = _get(cp, "experiment", "direction", floats, default=(1.0,) + (0.0,) * (dim - 1))
    try:
        return tuple(unit_direction(xi, dim).tolist())
    except ValueError as exc:
        raise ConfigError(f"experiment.direction: {exc}") from None


# ----------------------------------------------------------------------
# experiments: a key parser, called by parse_config (None where the
# experiment has no keys of its own), and a runner that gets the parsed
# keys and reads nothing else from the config
# ----------------------------------------------------------------------


def _front_speed_keys(cp, habitat):
    return {"xi": _direction(cp, habitat.dim),
            "margin": _get(cp, "experiment", "margin", float, default=0.2)}


def _exp_front_speed(keys, habitat, reaction, op, solver, options):
    run = run_front(op, reaction, habitat, keys["xi"], **solver)
    est = run.estimate
    cones = verify_spreading_cones(run.traj, keys["xi"], run.theory.c_star, reaction.u0_star,
                                   keys["margin"])
    ok = est.rel_error <= THEORY_TOL and cones.ok
    summary = {
        "experiment": "front_speed",
        "kind": op.kind,
        "c_empirical": est.slope,
        "c_theory": run.theory.c_star,
        "mu_star": run.theory.mu_star,
        "mu_star_bracket": list(run.theory.bracket),
        "relative_error": est.rel_error,
        "rms_residual": est.rms_residual,
        "fit_window": list(est.window),
        "cones_ok": cones.ok,
        "clip_count": run.traj.clip_count,
        "scheme": run.traj.scheme,
        "rhs_evals": run.traj.rhs_evals,
        "verdict": "pass" if ok else "fail",
    }
    artifacts = {
        "front_trace.csv": ("csv", ["t", "position"],
                            [[t, p] for t, p in zip(run.trace.times, run.trace.positions)]),
    }
    return ok, summary, artifacts


def _sweep_keys(cp, habitat):
    return {"amplitudes": _get(cp, "experiment", "amplitudes", floats,
                               default=(-0.5, 0.0, 0.5, 1.0)),
            "xi": _direction(cp, habitat.dim)}


def _exp_invariance_sweep(keys, habitat, reaction, op, solver, options):
    setup = SweepSetup(op=op, habitat=habitat, reaction0=reaction, **solver, **keys)
    jobs = options.get("jobs", 1)
    rows = None
    if jobs > 1:
        # imported here: it loads logging, traceback and string, about
        # 4-5 ms of every start-up, and only this branch uses it
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(run_invariance_cell, itertools.repeat(setup), setup.amplitudes))
    report = run_speed_invariance_sweep(setup, rows=rows)
    summary = {
        "experiment": "invariance_sweep",
        "kind": op.kind,
        "c_theory": report.c_theory,
        "pairwise_spread": report.pairwise_spread,
        "ok_theory": report.ok_theory,
        "ok_pairwise": report.ok_pairwise,
        "clip_count": sum(r.clip_count for r in report.rows),
        "verdict": "pass" if report.ok else "fail",
        "cells": [
            {"amplitude": r.amplitude, "c_empirical": r.c_emp, "relative_error": r.rel_error,
             "clip_count": r.clip_count, "scheme": r.scheme, "rhs_evals": r.rhs_evals}
            for r in report.rows
        ],
    }
    artifacts = {
        "sweep.csv": ("csv", ["amplitude", "c_empirical", "c_theory", "relative_error"],
                      [[r.amplitude, r.c_emp, r.c_theory, r.rel_error] for r in report.rows]),
    }
    return report.ok, summary, artifacts


def _spreading_keys(cp, habitat):
    r = _get(cp, "experiment", "support_radius", float, default=3.0)
    try:
        check_support_radius(r, habitat)
    except ValueError as err:
        raise ConfigError(f"experiment.support_radius: {err}") from None
    return {
        "clause": _get(cp, "experiment", "clause", int, choices={1, 2, 3, 4}),
        "r": r,
        "c_scale": _get(cp, "experiment", "c_scale", float, default=1.0),
        "margin": _get(cp, "experiment", "margin", float, default=0.2),
    }


def _exp_spreading_features(keys, habitat, reaction, op, solver, options):
    verdict = run_compact_spreading_checks(
        op, reaction, habitat, T=solver["T"], dt=solver["dt"], **keys,
    )
    summary = {
        "experiment": "spreading_features",
        "kind": op.kind,
        "clause": verdict.clause,
        "worst_value": verdict.worst_value,
        "threshold": verdict.threshold,
        "c_used": verdict.c_used,
        "clip_count": verdict.clip_count,
        "scheme": verdict.scheme,
        "rhs_evals": verdict.rhs_evals,
        "verdict": "pass" if verdict.ok else "fail",
    }
    return verdict.ok, summary, {}


def _tail_radius(reaction):
    """The inner radius of stationary_profile's tail window: four patch radii."""
    return 4.0 * reaction.radius


def _exp_stationary_profile(keys, habitat, reaction, op, solver, options):
    above = solve_stationary(op, reaction, habitat, FROM_ABOVE)
    below = solve_stationary(op, reaction, habitat, FROM_BELOW)
    gap = float(np.abs(above.u_star.values - below.u_star.values).max())
    tail_radius = _tail_radius(reaction)
    tail = check_tail(above.u_star, reaction.u0_star, tail_radius, delta0=op.delta0)
    ok = (gap <= 1e-6 * reaction.u0_star and tail < 0.01 * reaction.u0_star
          and above.stability_bound < 0.0 and below.stability_bound < 0.0)
    summary = {
        "experiment": "stationary_profile",
        "kind": op.kind,
        "routes_gap": gap,
        "residual_from_above": above.residual,
        "residual_from_below": below.residual,
        "tail_deviation": tail,
        "tail_radius": tail_radius,
        "u0_star": reaction.u0_star,
        "newton_steps_from_above": above.newton_steps,
        "newton_steps_from_below": below.newton_steps,
        "matvecs_from_above": above.matvecs,
        "matvecs_from_below": below.matvecs,
        "stability_bound_from_above": above.stability_bound,
        "stability_bound_from_below": below.stability_bound,
        "verdict": "pass" if ok else "fail",
    }
    coords = (habitat.grid()[0] if habitat.dim == 1 else habitat.radius()).ravel().tolist()
    artifacts = {
        "profile.csv": ("csv", ["x", "u_star"],
                        [[x, u] for x, u in zip(coords, above.u_star.values.ravel().tolist())]),
    }
    return ok, summary, artifacts


EXPERIMENTS = {
    "front_speed": (_front_speed_keys, _exp_front_speed,
                    "march front data, fit the empirical speed, cone verdict"),
    "invariance_sweep": (_sweep_keys, _exp_invariance_sweep,
                         "amplitude sweep; speeds must agree pairwise and with theory"),
    "spreading_features": (_spreading_keys, _exp_spreading_features,
                           "march compact data, expanding-region checks (clauses 1-4)"),
    "stationary_profile": (None, _exp_stationary_profile,
                           "both monotone routes, uniqueness gap, tail deviation and "
                           "stability bound"),
}


@dataclasses.dataclass(frozen=True)
class Job:
    """Everything run, speed, eigen and validate read from one config."""

    habitat: Habitat
    reaction: Reaction
    op: DispersalOperator
    solver: dict  # T and dt; a dt of None stands for auto
    name: str  # experiment.name, None when unset
    keys: object  # the experiment's parsed keys, None when name is unset
    expect: str
    xi: tuple  # experiment.direction
    mus: np.ndarray  # the mu grid of speed and eigen
    output_dir: str  # output.directory; --output-dir beats it


def parse_config(cp) -> Job:
    """Read every key that run, speed, eigen or validate honours, with
    the solver and reaction keys checked against the experiment (a front
    run's amplitudes by check_front_reaction) and an explicit solver.dt
    against the plan of each of its marches; then refuse every key in the
    file that was not read, so none is silently ignored."""
    name = _get(cp, "experiment", "name", str, default=None, choices=set(EXPERIMENTS))
    habitat = build_habitat(cp)
    reaction = build_reaction(cp)
    op = build_dispersal(cp, habitat)
    solver = build_solver(cp)
    parse_keys = EXPERIMENTS[name][0] if name is not None else None
    keys = parse_keys(cp, habitat) if parse_keys is not None else None
    if name == "invariance_sweep" and cp.has_option("reaction", "amplitude"):
        raise ConfigError("reaction.amplitude: invariance_sweep sets the amplitude of each cell "
                          "from experiment.amplitudes; leave it out")
    # the reaction of each march: one per sweep cell, else the config's own
    reactions = ([dataclasses.replace(reaction, amplitude=a) for a in keys["amplitudes"]]
                 if name == "invariance_sweep" else [reaction])
    if name == "stationary_profile":
        if cp.has_option("solver", "T"):
            raise ConfigError("solver.T: stationary_profile does not step in time; leave it out")
        if solver["dt"] is not None:
            raise ConfigError("solver.dt: stationary_profile does not step in time; leave it auto")
        R = _tail_radius(reaction)
        try:
            tail_window(habitat, R, op.delta0)
        except ValueError as err:
            raise ConfigError(f"reaction.radius: {err}, with R = 4 radius = {R:g}") from None
    if name in ("front_speed", "invariance_sweep"):
        key = "reaction.amplitude" if name == "front_speed" else "experiment.amplitudes"
        for rea in reactions:
            try:
                check_front_reaction(rea, habitat)
            except ValueError as err:
                raise ConfigError(f"{key}: {err}") from None
    if solver["dt"] is not None:
        # every march starts at height u0* < beta0, and march_plan reads the
        # data only through its habitat and max, so a constant u0* stands in
        for rea in reactions:
            plan = march_plan(op, rea, habitat.full(rea.u0_star), solver["dt"])
            if not plan.stable:
                raise ConfigError(f"solver.dt: {plan.dt} violates the stability bound "
                                  f"{plan.bound:.6g} of the {plan.scheme} march")
    expect = _get(cp, "experiment", "expect", str, default="pass", choices={"pass", "fail"})
    xi = _direction(cp, habitat.dim)
    mu_max = _get(cp, "experiment", "mu_max", float, default=5.0)
    n_mu = _get(cp, "experiment", "n_mu", int, default=101)
    if not mu_max > 1e-3:
        raise ConfigError("experiment.mu_max: must exceed the first grid point 1e-3")
    if n_mu < 2:
        raise ConfigError("experiment.n_mu: must be at least 2")
    output_dir = _get(cp, "output", "directory", str, default="out")
    unread = [f"{s}.{k}" for s in cp.sections() for k in cp[s] if (s, k) not in cp.read_keys]
    if unread:
        raise ConfigError(f"{', '.join(unread)}: unknown key, read by no command")
    return Job(habitat, reaction, op, solver, name, keys, expect, xi,
               np.linspace(1e-3, mu_max, n_mu), output_dir)


# ----------------------------------------------------------------------
# artifact writing
# ----------------------------------------------------------------------


def _write_run_dir(job, options, name, artifacts, manifest):
    """Write <output dir>/<name> via a temp dir, removed if a write fails."""
    output_dir = options["output_dir"] or job.output_dir
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
        "seed": options.get("seed"),
        "jobs": options.get("jobs"),
        "wall_time_s": wall_time,
        "summary": summary,
    }


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def _cmd_run(job, cfg_text, options):
    if job.name is None:
        raise ConfigError("experiment.name: required key is missing")

    runner = EXPERIMENTS[job.name][1]
    t0 = time.perf_counter()
    ok, summary, artifacts = runner(job.keys, job.habitat, job.reaction, job.op, job.solver,
                                    options)
    wall = time.perf_counter() - t0

    if summary.get("clip_count", 0) > 0:
        # a systematic negative clip fails the run whatever it was meant to show,
        # so a clipped run cannot confirm a negative control either
        summary["verdict"] = "fail: clipped"
        final_ok = False
    elif job.expect == "fail":
        summary["verdict"] = "expected-fail: confirmed" if not ok else "expected-fail: NOT confirmed"
        final_ok = False  # a failing verdict was the point; exit code stays 1
    else:
        final_ok = ok

    artifacts = dict(artifacts)
    artifacts["summary.json"] = ("json", summary)
    _write_run_dir(job, options, job.name, artifacts, _manifest(cfg_text, summary, options, wall))
    if not options["quiet"]:
        print(f"verdict: {summary['verdict']}")
    return 0 if final_ok else 1


def _dispersion_table(job):
    """Closed-form lambda(mu) at r = f0(0) on the mu grid."""
    return closed_form_eigenvalue(job.op.kind, job.mus, job.xi, job.reaction.r0,
                                  kernel=job.op.kernel, weights=job.op.weights)


def _cmd_speed(job, cfg_text, options):
    op = job.op
    lams = _dispersion_table(job)
    result = theoretical_speed(op.kind, job.reaction, job.xi, kernel=op.kernel,
                               weights=op.weights)
    summary = {
        "c_star": result.c_star,
        "mu_star": result.mu_star,
        "mu_star_bracket": list(result.bracket),
        "kind": op.kind,
        "evaluations": result.evaluations,
    }
    artifacts = {
        "speed_curve.csv": ("csv", ["mu", "lambda_over_mu"],
                            [[m, l / m] for m, l in zip(job.mus, lams)]),
        "speed.json": ("json", summary),
    }
    _write_run_dir(job, options, "speed", artifacts, _manifest(cfg_text, summary, options, 0.0))
    if not options["quiet"]:
        print(f"c* = {result.c_star:.17e} at mu* = {result.mu_star:.17e}")
    return 0


def _cmd_eigen(job, cfg_text, options):
    lams = _dispersion_table(job)
    summary = {"kind": job.op.kind, "r": job.reaction.r0, "n_mu": len(job.mus)}
    artifacts = {
        "dispersion.csv": ("csv", ["mu", "lambda"], [[m, l] for m, l in zip(job.mus, lams)]),
    }
    _write_run_dir(job, options, "eigen", artifacts, _manifest(cfg_text, summary, options, 0.0))
    return 0


def _cmd_validate(job, cfg_text, options):
    """parse_config has read and checked every key; nothing is left to do."""
    if not options["quiet"]:
        print("config ok")
    return 0


def _cmd_list(options):
    for name, (_, _, doc) in sorted(EXPERIMENTS.items()):
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
    if jobs < 1:
        parser.error(f"environment variable KPPLAB_JOBS: must be at least 1, got {jobs}")
    for name in ("run", "speed", "eigen", "validate"):
        p = sub.add_parser(name)
        p.add_argument("config")
        p.add_argument("--jobs", type=int, default=jobs)
        p.add_argument("--output-dir", default=os.environ.get("KPPLAB_OUTPUT_DIR"))
        # recorded in the manifest only; no experiment draws a random number
        p.add_argument("--seed", type=int)
        p.add_argument("--quiet", action="store_true",
                       default=os.environ.get("KPPLAB_QUIET") == "1")
    sub.add_parser("list-experiments")

    args = parser.parse_args(argv)
    if args.command == "list-experiments":
        return _cmd_list({})

    if args.jobs < 1:
        parser.error(f"--jobs: must be at least 1, got {args.jobs}")
    options = {
        "jobs": args.jobs,
        "output_dir": args.output_dir,
        "seed": args.seed,
        "quiet": args.quiet,
    }
    try:
        cp, text = load_config(args.config)
        job = parse_config(cp)
        handler = {
            "run": _cmd_run,
            "speed": _cmd_speed,
            "eigen": _cmd_eigen,
            "validate": _cmd_validate,
        }[args.command]
        return handler(job, text, options)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure, distinct from bad config
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

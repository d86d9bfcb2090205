"""Config-driven batch runner.

Subcommands: run, speed, eigen, validate, list-experiments.
Configs are flat INI files (sections habitat/reaction/dispersal/solver/
experiment/output).  run, speed, eigen and validate all call one parse,
parse_config: it reads every key any of them honours, with each
experiment's own keys and rules stated by its key parser, checks an
explicit solver.dt against the one plan by which the experiment marches
(an invariance sweep marches all its cells as one stack), and then
refuses every key in the file it did not read.  A
misspelled key, a value that does not parse and a key the experiment
cannot honour all exit 2 and name section.key, before any output is
written.  Runtime errors exit 3, failed verdicts exit 1.

No key sets a height or a gate: each is derived from the carrying
capacity u0* = r0 / slope.  The pipelines and their verdicts live in
kpplab.experiments; a runner here only formats what its pipeline
returns.  Artifacts are written to a fresh directory atomically (temp
dir, removed on failure, then rename) with a manifest sufficient to
rerun the job.  Flags beat environment variables (KPPLAB_OUTPUT_DIR,
KPPLAB_QUIET = 0 or 1), which beat the config file; an unparsable
environment value, or a KPPLAB_ variable that no command reads, exits 2.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
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
    check_support_radius,
    unit_direction,
)
from .dynamics import RK4, march_plan
from .eigen import closed_form_eigenvalue
from .experiments import (
    CONE_MARGIN,
    SUPPORT_RADIUS,
    SWEEP_AMPLITUDES,
    TAIL_RADII,
    check_cone_scales,
    check_front_reaction,
    check_sweep_amplitudes,
    run_compact_spreading_checks,
    run_front,
    run_speed_invariance_sweep,
    run_stationary_profile,
)
from .exports import sha256_text, write_csv, write_json
from .speeds import theoretical_speed
from .stationary import tail_window


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


def _checked(key, check, *args):
    """check(*args), with a ValueError it raises reported as a ConfigError on key."""
    try:
        return check(*args)
    except ValueError as err:
        raise ConfigError(f"{key}: {err}") from None


def build_habitat(cp) -> Habitat:
    kind = _get(cp, "habitat", "kind", str, choices={CONTINUUM, "lattice"})
    dim = _get(cp, "habitat", "dim", int, default=1, choices={1, 2})
    L = _get(cp, "habitat", "half_extent", float)
    spacing = _get(cp, "habitat", "spacing", float, default=1.0)
    boundary = _get(cp, "habitat", "boundary", str, default=CLAMP, choices={CLAMP, PERIODIC})
    return _checked("habitat", Habitat, kind, dim, L, spacing, boundary)


def build_reaction(cp) -> Reaction:
    family = _get(cp, "reaction", "family", str, default="linear",
                  choices={"linear", "logistic"})
    r0 = _get(cp, "reaction", "r0", float)
    amplitude = _get(cp, "reaction", "amplitude", float, default=0.0)
    radius = _get(cp, "reaction", "radius", float, default=1.0)
    if family == "linear":
        b = _get(cp, "reaction", "b", float, default=1.0)
        return _checked("reaction", Reaction.linear, r0, b, amplitude, radius)
    K = _get(cp, "reaction", "carrying_capacity", float)
    return _checked("reaction", Reaction.logistic, r0, K, amplitude, radius)


def build_dispersal(cp, habitat) -> DispersalOperator:
    kind = _get(cp, "dispersal", "kind", str, choices=set(KINDS))
    if kind == RANDOM:
        op = DispersalOperator.random()
    elif kind == NONLOCAL:
        profile = _get(cp, "dispersal", "profile", str, default="triangle",
                       choices={"uniform", "triangle", "mollifier"})
        delta0 = _get(cp, "dispersal", "delta0", float, default=1.0)
        op = DispersalOperator.nonlocal_(_checked("dispersal", Kernel.from_profile, profile,
                                                  delta0, habitat.spacing, habitat.dim))
    else:
        a = _get(cp, "dispersal", "a", float, default=1.0)
        op = DispersalOperator.discrete(_checked("dispersal", LatticeWeights.symmetric,
                                                 habitat.dim, a))
    _checked("dispersal", op.check_habitat, habitat)
    return op


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


def _margin(cp):
    margin = _get(cp, "experiment", "margin", float, default=CONE_MARGIN)
    _checked("experiment.margin", check_cone_scales, margin)
    return margin


# ----------------------------------------------------------------------
# experiments: a key parser, called by parse_config, that reads the
# experiment's own keys, then checks them and the rest of the config
# against the experiment, and returns (keys, the reactions it marches);
# and a runner that gets the Job, reads nothing else from the config and
# returns (ok, its own summary fields, artifacts)
# ----------------------------------------------------------------------


def _front_speed_keys(cp, habitat, reaction, op, solver):
    margin = _margin(cp)
    _checked("reaction.amplitude", check_front_reaction, reaction, habitat)
    return {"margin": margin}, [reaction]


def _exp_front_speed(job):
    (run,) = run_front(job.op, [job.reaction], job.habitat, job.xi, **job.solver, **job.keys)
    est = run.estimate
    summary = {
        "c_empirical": est.slope,
        "c_theory": run.theory.c_star,
        "mu_star": run.theory.mu_star,
        "mu_star_bracket": list(run.theory.bracket),
        "relative_error": run.rel_error,
        "rms_residual": est.rms_residual,
        "fit_window": list(est.window),
        "cones_ok": run.cones.ok,
        "clip_count": run.traj.clip_count,
        "scheme": run.traj.scheme,
        "rhs_evals": run.traj.rhs_evals,
    }
    artifacts = {
        "front_trace.csv": ("csv", ["t", "position"],
                            [[t, p] for t, p in zip(run.trace.times, run.trace.positions)]),
    }
    return run.ok, summary, artifacts


def _sweep_keys(cp, habitat, reaction, op, solver):
    amplitudes = _get(cp, "experiment", "amplitudes", floats, default=SWEEP_AMPLITUDES)
    _checked("experiment.amplitudes", check_sweep_amplitudes, amplitudes)
    if cp.has_option("reaction", "amplitude"):
        raise ConfigError("reaction.amplitude: invariance_sweep sets the amplitude of each cell "
                          "from experiment.amplitudes; leave it out")
    cells = [dataclasses.replace(reaction, amplitude=a) for a in amplitudes]
    for cell in cells:
        _checked("experiment.amplitudes", check_front_reaction, cell, habitat)
    return {"amplitudes": amplitudes}, cells


def _exp_invariance_sweep(job):
    report = run_speed_invariance_sweep(job.op, job.reaction, job.habitat, job.xi, **job.solver,
                                        **job.keys)
    summary = {
        "c_theory": report.c_theory,
        "pairwise_spread": report.pairwise_spread,
        "ok_theory": report.ok_theory,
        "ok_pairwise": report.ok_pairwise,
        "clip_count": sum(run.traj.clip_count for run in report.runs),
        "cells": [
            {"amplitude": run.reaction.amplitude, "c_empirical": run.estimate.slope,
             "relative_error": run.rel_error, "clip_count": run.traj.clip_count,
             "scheme": run.traj.scheme, "rhs_evals": run.traj.rhs_evals}
            for run in report.runs
        ],
    }
    artifacts = {
        "sweep.csv": ("csv", ["amplitude", "c_empirical", "c_theory", "relative_error"],
                      [[run.reaction.amplitude, run.estimate.slope, run.theory.c_star,
                        run.rel_error] for run in report.runs]),
    }
    return report.ok, summary, artifacts


def _spreading_keys(cp, habitat, reaction, op, solver):
    r = _get(cp, "experiment", "support_radius", float, default=SUPPORT_RADIUS)
    _checked("experiment.support_radius", check_support_radius, r, habitat)
    clause = _get(cp, "experiment", "clause", int, choices={1, 2, 3, 4})
    c_scale = _get(cp, "experiment", "c_scale", float, default=1.0)
    margin = _margin(cp)
    _checked("experiment.c_scale", check_cone_scales, margin, c_scale)
    return {"clause": clause, "r": r, "c_scale": c_scale, "margin": margin}, [reaction]


def _exp_spreading_features(job):
    verdict = run_compact_spreading_checks(job.op, job.reaction, job.habitat, **job.solver,
                                           **job.keys)
    summary = {
        "clause": verdict.clause,
        "worst_value": verdict.worst_value,
        "threshold": verdict.threshold,
        "c_used": verdict.c_used,
        "clip_count": verdict.clip_count,
        "scheme": verdict.scheme,
        "rhs_evals": verdict.rhs_evals,
    }
    return verdict.ok, summary, {}


def _stationary_keys(cp, habitat, reaction, op, solver):
    if cp.has_option("solver", "T"):
        raise ConfigError("solver.T: stationary_profile does not step in time; leave it out")
    if solver["dt"] is not None:
        raise ConfigError("solver.dt: stationary_profile does not step in time; leave it auto")
    R = TAIL_RADII * reaction.radius
    try:
        tail_window(habitat, R, op.delta0)
    except ValueError as err:
        raise ConfigError(
            f"reaction.radius: {err}, with R = {TAIL_RADII:g} radius = {R:g}") from None
    return {}, []


def _exp_stationary_profile(job):
    prof = run_stationary_profile(job.op, job.reaction, job.habitat)
    above, below, habitat = prof.above, prof.below, job.habitat
    summary = {
        "routes_gap": prof.gap,
        "residual_from_above": above.residual,
        "residual_from_below": below.residual,
        "tail_deviation": prof.tail,
        "tail_radius": prof.tail_radius,
        "u0_star": job.reaction.u0_star,
        "newton_steps_from_above": above.newton_steps,
        "newton_steps_from_below": below.newton_steps,
        "matvecs_from_above": above.matvecs,
        "matvecs_from_below": below.matvecs,
        "stability_bound_from_above": above.stability_bound,
        "stability_bound_from_below": below.stability_bound,
    }
    coords = (habitat.grid()[0] if habitat.dim == 1 else habitat.radius()).ravel().tolist()
    artifacts = {
        "profile.csv": ("csv", ["x", "u_star"],
                        [[x, u] for x, u in zip(coords, above.u_star.values.ravel().tolist())]),
    }
    return prof.ok, summary, artifacts


EXPERIMENTS = {
    "front_speed": (_front_speed_keys, _exp_front_speed,
                    "march front data, fit the empirical speed, cone verdict"),
    "invariance_sweep": (_sweep_keys, _exp_invariance_sweep,
                         "amplitude sweep; speeds must agree pairwise and with theory"),
    "spreading_features": (_spreading_keys, _exp_spreading_features,
                           "march compact data, expanding-region checks (clauses 1-4)"),
    "stationary_profile": (_stationary_keys, _exp_stationary_profile,
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
    """Read every key that run, speed, eigen or validate honours, with the
    experiment's key parser stating its own rules, and check an explicit
    solver.dt against the plan of the one stack the experiment marches
    (the config's own reaction when no experiment is named); then refuse
    every key in the file that was not read, so none is silently ignored."""
    name = _get(cp, "experiment", "name", str, default=None, choices=set(EXPERIMENTS))
    habitat = build_habitat(cp)
    reaction = build_reaction(cp)
    op = build_dispersal(cp, habitat)
    solver = build_solver(cp)
    keys, marches = (EXPERIMENTS[name][0](cp, habitat, reaction, op, solver)
                     if name is not None else (None, [reaction]))
    if solver["dt"] is not None:
        # every march starts at height u0* < beta0, and march_plan reads the
        # data only through its habitat and max, so a constant u0* stands in
        plan = march_plan(op, marches, [habitat.full(rea.u0_star) for rea in marches],
                          solver["dt"])
        if not plan.stable:
            raise ConfigError(f"solver.dt: {plan.dt} violates the stability bound "
                              f"{plan.bound:.6g} of the {plan.scheme} march")
    expect = _get(cp, "experiment", "expect", str, default="pass", choices={"pass", "fail"})
    xi = _get(cp, "experiment", "direction", floats,
              default=(1.0,) + (0.0,) * (habitat.dim - 1))
    xi = tuple(_checked("experiment.direction", unit_direction, xi, habitat.dim).tolist())
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
    ok, fields, artifacts = runner(job)
    wall = time.perf_counter() - t0

    summary = {"experiment": job.name, "kind": job.op.kind, **fields,
               "verdict": "pass" if ok else "fail"}
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
    unread = sorted(name for name in os.environ if name.startswith("KPPLAB_")
                    and name not in ("KPPLAB_OUTPUT_DIR", "KPPLAB_QUIET"))
    if unread:
        parser.error(f"environment variable {', '.join(unread)}: read by no command")
    quiet = _env_value(parser, "KPPLAB_QUIET", int, 0)
    if quiet not in (0, 1):
        parser.error(f"environment variable KPPLAB_QUIET: must be 0 or 1, got {quiet}")
    for name in ("run", "speed", "eigen", "validate"):
        p = sub.add_parser(name)
        p.add_argument("config")
        # accepts 1 only, which perfbench/workloads.py passes; a sweep marches
        # its cells as one stack in this process
        p.add_argument("--jobs", type=int, default=1, choices=[1])
        p.add_argument("--output-dir", default=os.environ.get("KPPLAB_OUTPUT_DIR"))
        # recorded in the manifest only; no experiment draws a random number
        p.add_argument("--seed", type=int)
        p.add_argument("--quiet", action="store_true", default=bool(quiet))
    sub.add_parser("list-experiments")

    args = parser.parse_args(argv)
    if args.command == "list-experiments":
        return _cmd_list({})

    options = {
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

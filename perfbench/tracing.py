"""Per-layer timing for the traced mode (``--trace 1``).

The tracer wraps public kpplab entry points from outside the package:
it changes nothing under ``src/``.  Each entry in ``SPANS`` and
``CLOSURE_FACTORIES`` names a layer (a ``kpplab`` module), the module
that defines the entry, and the attribute.  A function is replaced in
every ``kpplab.*`` namespace that holds the same object, so calls made
through ``from .x import f`` are seen too; a ``Class.method`` is replaced
on its class.  An entry that no longer exists is reported as absent
instead of failing the run, so refactors of the package keep the
benchmark working.

Spans are aggregated in memory, not recorded one by one.  A span's self
time is its duration minus the time of the spans and closures it called;
the closures returned by ``DispersalOperator.bind`` and ``Reaction.bind``
are timed per call without a span of their own.  The self times of all
layers plus the time spent outside every span (``trace.unattributed_s``)
add up to the traced wall time.

This module is imported only by traced runs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import sys
import time
from collections import defaultdict

# (layer, defining module, attribute)
SPANS = [
    ("cli", "kpplab.cli", "main"),
    ("exports", "kpplab.exports", "write_csv"),
    ("exports", "kpplab.exports", "write_json"),
    ("experiments", "kpplab.experiments", "track_front"),
    ("experiments", "kpplab.experiments", "estimate_speed"),
    ("experiments", "kpplab.experiments", "verify_spreading_cones"),
    ("experiments", "kpplab.experiments", "run_invariance_cell"),
    ("experiments", "kpplab.experiments", "run_speed_invariance_sweep"),
    ("experiments", "kpplab.experiments", "run_compact_spreading_checks"),
    ("stationary", "kpplab.stationary", "solve_stationary"),
    ("stationary", "kpplab.stationary", "sub_solution"),
    ("stationary", "kpplab.stationary", "periodic_minorant"),
    ("stationary", "kpplab.stationary", "check_tail"),
    ("speeds", "kpplab.speeds", "minimize_speed"),
    ("speeds", "kpplab.speeds", "theoretical_speed"),
    ("eigen", "kpplab.eigen", "assemble_cell_operator"),
    ("eigen", "kpplab.eigen", "principal_eigenvalue"),
    ("eigen", "kpplab.eigen", "CellOperator.to_matrix"),
    ("dynamics", "kpplab.dynamics", "evolve"),
    ("dynamics", "kpplab.dynamics", "stability_dt_bound"),
    ("domain", "kpplab.domain", "check_kpp_hypotheses"),
    ("domain", "kpplab.domain", "make_front_initial"),
    ("domain", "kpplab.domain", "make_compact_initial"),
]

# Entries that return an array -> array closure; the closure is timed too.
CLOSURE_FACTORIES = [
    ("dispersal", "kpplab.dispersal", "DispersalOperator.bind"),
    ("domain", "kpplab.domain", "Reaction.bind"),
]

APPLY_KEYS = tuple(f"{kind}_{dim}d" for kind in ("random", "nonlocal", "discrete")
                   for dim in (1, 2))

# Layer -> the metric that holds its self time.
SELF_METRICS = {
    "cli": "cli.self_s",
    "exports": "exports.write_s",
    "experiments": "experiments.self_s",
    "stationary": "stationary.self_s",
    "speeds": "speeds.self_s",
    "eigen": "eigen.self_s",
    "dynamics": "dynamics.self_s",
    "domain": "domain.self_s",
    "dispersal": "dispersal.self_s",
}


def _bound_arguments(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _after_evolve(tr, fn, args, kwargs, result, dt):
    a = _bound_arguments(fn, args, kwargs)
    tr.count["steps"] += int(math.ceil(a["T"] / a["dt"] - 1e-12))
    tr.count["clip_count"] += int(result.clip_count)


def _after_eigen(tr, fn, args, kwargs, result, dt):
    tr.count["iterations"] += int(result.iterations)
    tr.maxima["eigen_residual"] = max(tr.maxima["eigen_residual"], float(result.residual))


def _after_minimize(tr, fn, args, kwargs, result, dt):
    tr.count["evaluations"] += int(result.evaluations)


def _after_stationary(tr, fn, args, kwargs, result, dt):
    route = str(_bound_arguments(fn, args, kwargs)["route"])
    tr.route_s[route] += dt
    tr.count["chunks"] += int(result.iterations)
    tr.maxima["stationary_residual"] = max(tr.maxima["stationary_residual"],
                                           float(result.residual))


def _after_write(tr, fn, args, kwargs, result, dt):
    tr.count["bytes"] += os.path.getsize(_bound_arguments(fn, args, kwargs)["path"])


AFTER = {
    "evolve": _after_evolve,
    "principal_eigenvalue": _after_eigen,
    "minimize_speed": _after_minimize,
    "solve_stationary": _after_stationary,
    "write_csv": _after_write,
    "write_json": _after_write,
}


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [entry name, seconds covered by children]
        self.self_s = defaultdict(float)  # layer -> self seconds
        self.entry_s = defaultdict(float)  # entry -> inclusive seconds
        self.entry_self_s = defaultdict(float)
        self.calls = defaultdict(int)  # entry -> calls
        self.closure_s = defaultdict(float)  # (layer, key) -> seconds
        self.closure_calls = defaultdict(int)
        self.route_s = defaultdict(float)
        self.count = defaultdict(int)
        self.maxima = defaultdict(float)
        self.absent = []
        self.hook_errors = set()

    # ---- installation -------------------------------------------------

    def install(self):
        for layer, module, attr in SPANS:
            self._replace(module, attr, lambda fn, layer=layer: self._span(layer, fn))
        for layer, module, attr in CLOSURE_FACTORIES:
            self._replace(module, attr,
                          lambda fn, layer=layer: self._span(layer, fn, closures=True))

    def _replace(self, module, attr, make):
        try:
            mod = importlib.import_module(module)
        except ImportError:
            self.absent.append(f"{module}.{attr}")
            return
        owner_name, _, name = attr.rpartition(".")
        if owner_name:
            owner = getattr(mod, owner_name, None)
            fn = vars(owner).get(name) if isinstance(owner, type) else None
            if not callable(fn):
                self.absent.append(f"{module}.{attr}")
                return
            setattr(owner, name, make(fn))
            return
        fn = getattr(mod, name, None)
        if not callable(fn):
            self.absent.append(f"{module}.{attr}")
            return
        wrapper = make(fn)
        for mod_name, namespace in list(sys.modules.items()):
            if namespace is None or not (mod_name == "kpplab" or mod_name.startswith("kpplab.")):
                continue
            for key, value in list(vars(namespace).items()):
                if value is fn:
                    setattr(namespace, key, wrapper)

    # ---- wrappers -----------------------------------------------------

    def _span(self, layer, fn, closures=False):
        name = fn.__name__
        after = AFTER.get(name)
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                own = dt - frame[1]
                self.self_s[layer] += own
                self.entry_self_s[name] += own
                self.entry_s[name] += dt
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += dt
            if after is not None:
                try:
                    after(self, fn, args, kwargs, result, dt)
                except (AttributeError, KeyError, TypeError, ValueError, OSError):
                    self.hook_errors.add(name)
            if closures:
                result = self._timed_closure(layer, _closure_key(layer, args), result)
            return result

        return wrapper

    def _timed_closure(self, layer, key, closure):
        stack = self.stack
        counts_rhs = layer == "domain"

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            out = closure(*args, **kwargs)
            dt = time.perf_counter() - t0
            self.self_s[layer] += dt
            self.closure_s[layer, key] += dt
            self.closure_calls[layer, key] += 1
            if stack:
                stack[-1][1] += dt
                if counts_rhs and stack[-1][0] == "evolve":
                    self.count["rhs_evals"] += 1
            return out

        return timed

    # ---- report -------------------------------------------------------

    def metrics(self, reps, traced_wall, untraced_wall):
        """Per-layer metrics per traced repetition: {name: (value, unit)}."""

        def per(x):
            return x / reps

        def mean_ms(entry):
            calls = self.calls.get(entry, 0)
            return 1e3 * self.entry_s.get(entry, 0.0) / calls if calls else 0.0

        m = {}
        apply = {key: (s, self.closure_calls[layer, key])
                 for (layer, key), s in self.closure_s.items() if layer == "dispersal"}
        m["dispersal.apply_calls"] = (per(sum(c for _, c in apply.values())), "count")
        m["dispersal.apply_s"] = (per(sum(s for s, _ in apply.values())), "s")
        for key in APPLY_KEYS:
            s, c = apply.get(key, (0.0, 0))
            m[f"dispersal.apply_us.{key}"] = (1e6 * s / c if c else 0.0, "us")
        m["dispersal.self_s"] = (per(self.self_s["dispersal"]), "s")

        steps = self.count["steps"]
        m["dynamics.evolve_calls"] = (per(self.calls["evolve"]), "count")
        m["dynamics.steps"] = (per(steps), "count")
        m["dynamics.rhs_evals"] = (per(self.count["rhs_evals"]), "count")
        m["dynamics.clip_count"] = (per(self.count["clip_count"]), "count")
        m["dynamics.busy_s"] = (per(self.entry_s["evolve"]), "s")
        m["dynamics.self_s"] = (per(self.self_s["dynamics"]), "s")
        m["dynamics.self_us_per_step"] = (
            1e6 * self.entry_self_s["evolve"] / steps if steps else 0.0, "us")

        growth = [(s, self.closure_calls[layer, key])
                  for (layer, key), s in self.closure_s.items() if layer == "domain"]
        m["domain.growth_calls"] = (per(sum(c for _, c in growth)), "count")
        m["domain.growth_s"] = (per(sum(s for s, _ in growth)), "s")
        m["domain.self_s"] = (per(self.self_s["domain"]), "s")

        eigen_entries = ("assemble_cell_operator", "principal_eigenvalue", "to_matrix")
        m["eigen.solves"] = (per(self.calls["principal_eigenvalue"]), "count")
        m["eigen.iterations"] = (per(self.count["iterations"]), "count")
        m["eigen.solve_ms"] = (mean_ms("principal_eigenvalue"), "ms")
        m["eigen.assemble_ms"] = (mean_ms("assemble_cell_operator"), "ms")
        m["eigen.busy_s"] = (per(sum(self.entry_s[e] for e in eigen_entries)), "s")
        m["eigen.self_s"] = (per(self.self_s["eigen"]), "s")
        m["eigen.residual_max"] = (self.maxima["eigen_residual"], "1")

        m["speeds.minimize_calls"] = (per(self.calls["minimize_speed"]), "count")
        m["speeds.evaluations"] = (per(self.count["evaluations"]), "count")
        m["speeds.busy_s"] = (per(self.entry_s["minimize_speed"]), "s")
        m["speeds.self_s"] = (per(self.self_s["speeds"]), "s")

        m["stationary.solves"] = (per(self.calls["solve_stationary"]), "count")
        m["stationary.chunks"] = (per(self.count["chunks"]), "count")
        m["stationary.self_s"] = (per(self.self_s["stationary"]), "s")
        m["stationary.from_above_s"] = (per(self.route_s["from-above"]), "s")
        m["stationary.from_below_s"] = (per(self.route_s["from-below"]), "s")
        m["stationary.residual_max"] = (self.maxima["stationary_residual"], "1")

        m["experiments.self_s"] = (per(self.self_s["experiments"]), "s")
        m["experiments.track_s"] = (per(self.entry_s["track_front"]), "s")
        m["experiments.region_check_s"] = (per(
            self.entry_self_s["verify_spreading_cones"]
            + self.entry_self_s["run_compact_spreading_checks"]), "s")

        m["exports.write_s"] = (per(self.self_s["exports"]), "s")
        m["exports.bytes"] = (per(self.count["bytes"]), "bytes")
        m["cli.self_s"] = (per(self.self_s["cli"]), "s")

        attributed = sum(m[name][0] for name in SELF_METRICS.values())
        m["trace.wall_s"] = (traced_wall, "s")
        m["trace.untraced_wall_s"] = (untraced_wall, "s")
        m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
        m["trace.unattributed_s"] = (traced_wall - attributed, "s")
        m["trace.absent_entries"] = (len(self.absent) + len(self.hook_errors), "count")
        return m


def _closure_key(layer, args):
    """'<kind>_<dim>d' for dispersal closures, from (operator, habitat)."""
    if layer != "dispersal" or len(args) < 2:
        return None
    return f"{getattr(args[0], 'kind', '?')}_{getattr(args[1], 'dim', '?')}d"

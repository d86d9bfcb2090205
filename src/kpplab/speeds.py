"""Spreading speeds c*(xi) = inf_{mu > 0} lambda(mu, xi) / mu.

The dispersion relation mu -> lambda(mu, xi) comes either from the
constant-coefficient closed forms or from the periodic eigenvalue
solver.  Both are vectorized in mu: an array of mu gives the array of
lambda, each entry with the bits of its mu alone.  A coarse log-spaced
scan, evaluated in one call, brackets the interior minimizer of
lambda/mu, and Brent's method refines it one mu at a time from the
scan's best point; a minimum sitting on the scan edge is refused since
every admissible relation here has lambda/mu blowing up at both ends.
An eigen-backed relation scans only below its cell stencil's twist
limit (1/h for the random kind), where every twist factor stays
positive; its scan assembles one stack of cell operators and certifies
each (eigen.principal_eigenvalues).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import Kernel, LatticeWeights, Reaction
from .eigen import (
    PeriodicCoefficient,
    assemble_cell_operator,
    cell_stencil,
    constant_symbol,
    principal_eigenvalues,
)

_SCAN_POINTS = 60
_MU_MIN = 1e-3
_GOLDEN_STEP = (3.0 - math.sqrt(5.0)) / 2.0  # fallback step, a fraction of the larger side
_MU_TOL = 1e-8  # relative width of the final bracket around mu*


class BracketEdgeError(RuntimeError):
    """The scan found its minimum on the bracket edge."""


@dataclass(eq=False)
class DispersionRelation:
    """mu -> lambda(mu, xi) for one dispersal kind and direction.

    The evaluator takes a float or an array of mu and returns lambda of
    the same shape; minimize_speed passes its whole scan as one array,
    so a user evaluator must accept arrays."""

    evaluator: object
    mu_max: float = 20.0

    def __call__(self, mu):
        return self.evaluator(mu)

    @classmethod
    def closed_form(cls, kind, xi, r, kernel: Kernel = None,
                    weights: LatticeWeights = None, mu_max: float = 20.0,
                    resolution: float = None):
        symbol = constant_symbol(kind, xi, kernel, weights, resolution)
        return cls(lambda mu: r + symbol(mu), mu_max)

    @classmethod
    def eigen_backed(cls, kind, xi, a: PeriodicCoefficient,
                     kernel: Kernel = None, weights: LatticeWeights = None,
                     mu_max: float = 20.0):
        limit = cell_stencil(kind, a, kernel, weights).twist_limit
        mu_max = min(mu_max, (1.0 - 1e-9) * limit)  # strictly inside the limit

        def evaluator(mu):
            stack = assemble_cell_operator(kind, np.ravel(mu), xi, a, kernel=kernel,
                                           weights=weights)
            lam = [res.lam for res in principal_eigenvalues(stack)]
            return np.reshape(lam, np.shape(mu))[()]

        return cls(evaluator, mu_max)


@dataclass(eq=False)
class SpeedResult:
    """c* = lambda(mu*)/mu*; bracket is the final bracket (lo, hi) of
    Brent's refinement around mu*, with hi - lo <= 1e-8 * hi."""

    c_star: float
    mu_star: float
    bracket: tuple
    evaluations: int


def minimize_speed(rel: DispersionRelation) -> SpeedResult:
    """Minimize lambda(mu)/mu over mu > 0.

    Requires mu_max > 1e-3, the scan's first point, and lambda(0+) > 0
    (checked at mu = 1e-6), i.e. the zero state is linearly unstable so
    the speed is well posed.  Scans 60 log-spaced points on
    [1e-3, mu_max], in one call of rel, to bracket the minimizer, then
    refines mu by Brent's method to relative tolerance 1e-8 on the
    scan's bracket [grid[i-1], grid[i+1]], starting from its best point
    grid[i].  A nan lambda is refused with its mu.  evaluations counts
    every mu evaluated, the scan's included.
    """
    if not rel.mu_max > _MU_MIN:
        raise ValueError(f"mu_max = {rel.mu_max} must exceed the scan's first point "
                         f"mu = {_MU_MIN}")
    evals = 0

    def c_of(mu):
        nonlocal evals
        evals += 1
        lam = float(rel(mu))
        _refuse_nan(mu, lam)
        return lam / mu

    lam0 = float(rel(1e-6))
    evals += 1
    _refuse_nan(1e-6, lam0)
    if not (lam0 > 0.0):
        raise ValueError(f"lambda(0+) = {lam0:.3e} <= 0: speed is not well posed")

    grid = np.geomspace(_MU_MIN, rel.mu_max, _SCAN_POINTS)
    lam = np.asarray(rel(grid), dtype=float)
    evals += grid.size
    _refuse_nan(grid, lam)
    vals = lam / grid
    i = int(np.argmin(vals))
    if i == len(grid) - 1:
        raise BracketEdgeError(
            f"minimizer at bracket edge mu_max={rel.mu_max}: dispersion relation "
            "is still decreasing at the right boundary"
        )
    if i == 0:
        raise BracketEdgeError("minimizer at bracket edge mu_min")
    lo, hi = float(grid[i - 1]), float(grid[i + 1])
    mu_star, c_star, lo, hi = _brent(c_of, lo, hi, float(grid[i]), float(vals[i]))
    return SpeedResult(c_star, mu_star, (lo, hi), evals)


def _refuse_nan(mu, lam):
    """Raise naming the first mu whose lambda is nan; an overflowed
    lambda = inf is allowed, as it is never the minimum."""
    bad = np.flatnonzero(np.isnan(lam))
    if bad.size:
        raise ValueError(f"lambda(mu={float(np.ravel(mu)[bad[0]])!r}) is nan")


def _brent(f, a, b, x, fx):
    """(x, f(x), a, b): Brent's localmin (Algorithms for Minimization
    without Derivatives, 1973, ch. 5) on a < x < b with f(x) no higher
    than f at either end, stopped at b - a <= 1e-8 b.  Each step tries
    the parabola through the three best points and falls back to a
    golden-section step of the larger side when that parabola leaves
    (a, b) or does not halve the step before last.  No step is shorter
    than tol = 1e-8 x / 4, so flat or noisy f still shrinks the bracket,
    and Brent's own stop (both sides within 2 tol of x) implies this
    one."""
    w = v = x
    fw = fv = fx
    d = e = 0.0
    while b - a > _MU_TOL * b:
        m = 0.5 * (a + b)
        tol = 0.25 * _MU_TOL * x
        p = q = 0.0
        if abs(e) > tol:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
        if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
            e, d = d, p / q
            if x + d - a < 2.0 * tol or b - (x + d) < 2.0 * tol:
                d = tol if x < m else -tol
        else:
            e = (b if x < m else a) - x
            d = _GOLDEN_STEP * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = f(u)
        if fu <= fx:
            a, b = (a, x) if u < x else (x, b)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx, a, b


def theoretical_speed(
    kind: str,
    reaction: Reaction,
    xi,
    kernel: Kernel = None,
    weights: LatticeWeights = None,
) -> SpeedResult:
    """Spreading speed of the homogeneous limit equation.

    Built from the closed-form dispersion relation at r = f0(0) = r0; the
    localized perturbation amplitude deliberately does not enter, which
    is exactly the speed-invariance statement the experiments test.
    """
    rel = DispersionRelation.closed_form(kind, xi, reaction.r0, kernel=kernel, weights=weights)
    return minimize_speed(rel)


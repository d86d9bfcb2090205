"""Spreading speeds c*(xi) = inf_{mu > 0} lambda(mu, xi) / mu.

The dispersion relation mu -> lambda(mu, xi) comes either from the
constant-coefficient closed forms or from the periodic eigenvalue
solver.  A coarse log-spaced scan brackets the interior minimizer of
lambda/mu, golden-section refines it; a minimum sitting on the scan
edge is refused since every admissible relation here has lambda/mu
blowing up at both ends.  An eigen-backed relation scans only below its
cell stencil's twist limit (1/h for the random kind), where every twist
factor stays positive.
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
    principal_eigenvalue,
)

_SCAN_POINTS = 60
_MU_MIN = 1e-3
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class BracketEdgeError(RuntimeError):
    """The scan found its minimum on the bracket edge."""


@dataclass(eq=False)
class DispersionRelation:
    """mu -> lambda(mu, xi) for one dispersal kind and direction."""

    evaluator: object
    xi: object
    kind: str
    mu_max: float = 20.0

    def __call__(self, mu):
        return self.evaluator(mu)

    @classmethod
    def closed_form(cls, kind, xi, r, kernel: Kernel = None,
                    weights: LatticeWeights = None, mu_max: float = 20.0,
                    resolution: float = None):
        symbol = constant_symbol(kind, xi, kernel, weights, resolution)
        return cls(lambda mu: r + symbol(mu), xi, kind, mu_max)

    @classmethod
    def eigen_backed(cls, kind, xi, a: PeriodicCoefficient,
                     kernel: Kernel = None, weights: LatticeWeights = None,
                     mu_max: float = 20.0):
        limit = cell_stencil(kind, a, kernel, weights).twist_limit
        mu_max = min(mu_max, (1.0 - 1e-9) * limit)  # strictly inside the limit

        def evaluator(mu):
            op = assemble_cell_operator(kind, float(mu), xi, a, kernel=kernel, weights=weights)
            return principal_eigenvalue(op).lam

        return cls(evaluator, xi, kind, mu_max)


@dataclass(eq=False)
class SpeedResult:
    c_star: float
    mu_star: float
    bracket: tuple
    evaluations: int
    xi: object = None
    kind: str = None


def minimize_speed(rel: DispersionRelation, tol: float = 1e-8) -> SpeedResult:
    """Minimize lambda(mu)/mu over mu > 0.

    Requires lambda(0+) > 0 (checked at mu = 1e-6), i.e. the zero state
    is linearly unstable so the speed is well posed.  Scans 60
    log-spaced points on [1e-3, mu_max] to bracket the minimizer, then
    golden-section refines mu to relative tolerance tol.
    """
    evals = 0

    def c_of(mu):
        nonlocal evals
        evals += 1
        return float(rel(mu)) / mu

    lam0 = float(rel(1e-6))
    evals += 1
    if not (lam0 > 0.0):
        raise ValueError(f"lambda(0+) = {lam0:.3e} <= 0: speed is not well posed")

    grid = np.geomspace(_MU_MIN, rel.mu_max, _SCAN_POINTS)
    vals = np.array([c_of(m) for m in grid])
    i = int(np.argmin(vals))
    if i == len(grid) - 1:
        raise BracketEdgeError(
            f"minimizer at bracket edge mu_max={rel.mu_max}: dispersion relation "
            "is still decreasing at the right boundary"
        )
    if i == 0:
        raise BracketEdgeError("minimizer at bracket edge mu_min")
    lo, hi = float(grid[i - 1]), float(grid[i + 1])
    bracket = (lo, hi)

    # golden-section: unimodal on the verified bracket
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = c_of(x1), c_of(x2)
    while (hi - lo) > tol * max(abs(lo), abs(hi)):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = c_of(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = c_of(x2)
    mu_star = x1 if f1 <= f2 else x2
    c_star = f1 if f1 <= f2 else f2
    return SpeedResult(c_star, mu_star, bracket, evals, xi=rel.xi, kind=rel.kind)


def theoretical_speed(
    kind: str,
    reaction: Reaction,
    xi,
    kernel: Kernel = None,
    weights: LatticeWeights = None,
    mu_max: float = 20.0,
    tol: float = 1e-8,
) -> SpeedResult:
    """Spreading speed of the homogeneous limit equation.

    Built from the closed-form dispersion relation at r = f0(0); the
    localized perturbation amplitude deliberately does not enter, which
    is exactly the speed-invariance statement the experiments test.
    """
    if not (reaction.r0 > 0 and reaction.slope > 0):
        raise ValueError("reaction violates the KPP hypotheses")
    rel = DispersionRelation.closed_form(
        kind, xi, float(reaction.f0(0.0)), kernel=kernel, weights=weights, mu_max=mu_max
    )
    return minimize_speed(rel, tol=tol)


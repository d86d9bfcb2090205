"""Positive stationary states by monotone evolution.

The from-above route relaxes the constant super-solution M = beta0 + 1
downward; the from-below route grows a small multiple of a periodically
extended positive eigenfunction upward.  The eigenfunction comes from a
periodic minorant of the growth rate at zero: a smooth periodic h(x)
sitting below f(x, 0) whose cell average is within eps of the
homogeneous rate, so its dominant eigenvalue is positive and delta*phi
is a genuine sub-solution for small delta.

Both routes bracket the same stationary state; agreement of the two is
the uniqueness check, the equation residual is the existence
certificate, and reconvergence of strictly positive perturbations is
the stability check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dispersal import DispersalOperator
from .domain import Field, Habitat, Reaction
from .dynamics import evolve, step_size
from .eigen import PeriodicCoefficient, assemble_cell_operator, principal_eigenvalue

FROM_ABOVE = "from-above"
FROM_BELOW = "from-below"

_T_MAX = 500.0
_RECORD_SPACING = 1.0
_MONOTONE_SLACK = 1e-10
_CONVERGENCE_TOL = 1e-9
_RESIDUAL_TOL = 1e-7


class PeriodTooLargeError(ValueError):
    """No admissible minorant period fits inside the habitat."""


class SubSolutionError(RuntimeError):
    """delta-halving failed to validate the sub-solution inequality."""


class StationaryConvergenceError(RuntimeError):
    """Monotone evolution failed to reach a stationary state."""


def smooth_cutoff(s):
    """C-infinity cutoff equal to 1 on [0, 1] and 0 beyond 2."""
    s = np.asarray(s, dtype=float)

    def psi(t):
        out = np.zeros_like(t)
        pos = t > 0
        out[pos] = np.exp(-1.0 / t[pos])
        return out

    a = psi(2.0 - s)
    b = psi(s - 1.0)
    return a / (a + b)


def _cell_profile(reaction: Reaction, p: float, spacing: float, dim: int, dip: float):
    """Minorant samples on the cell [0, p)^dim, dip centered at 0 (== p)."""
    n = int(round(p / spacing))
    x = np.arange(n) * spacing
    wrap = np.minimum(x % p, p - (x % p))
    if dim == 1:
        rho2 = wrap ** 2
    else:
        w0, w1 = np.meshgrid(wrap, wrap, indexing="ij")
        rho2 = w0 ** 2 + w1 ** 2
    f00 = float(reaction.f0(0.0))
    return f00 - dip * smooth_cutoff(rho2 / reaction.radius ** 2)


def extend_periodic(coeff: PeriodicCoefficient, habitat: Habitat):
    """Periodic extension of cell samples to the habitat grid, with the
    cell origin aligned to the habitat origin."""
    n_cell = coeff.values.shape[0]
    m = habitat.half_points
    idx = (np.arange(habitat.n_per_axis) - m) % n_cell
    if habitat.dim == 1:
        return coeff.values[idx]
    return coeff.values[np.ix_(idx, idx)]


def periodic_minorant(reaction: Reaction, eps: float, habitat: Habitat):
    """Periodic lower bound h of f(., 0) with cell average >= f0(0) - eps.

    Returns (period, PeriodicCoefficient).  The integer period is the
    smallest one exceeding 4 * L0 that divides 2 L, so the habitat edges
    land on symmetry planes of the periodic extension, and whose cell
    average meets the target (the dip has fixed mass, so the average
    rises as the period grows).
    """
    f00 = float(reaction.f0(0.0))
    if not (0.0 < eps < f00):
        raise ValueError("eps must lie in (0, f0(0))")
    pert = reaction.perturbation(habitat)
    m0 = f00 + float(pert.min())  # inf_x f(x, 0)
    dip = f00 - m0
    h = habitat.spacing
    two_l = 2.0 * habitat.half_extent

    p_min = int(math.floor(4.0 * reaction.radius)) + 1
    p = p_min
    while p <= two_l + 1e-9:
        cell_ok = abs(round(p / h) * h - p) <= 1e-9
        align_ok = abs(round(two_l / p) * p - two_l) <= 1e-9
        if cell_ok and align_ok:
            vals = _cell_profile(reaction, float(p), h, habitat.dim, dip)
            if vals.mean() >= f00 - eps:
                coeff = PeriodicCoefficient((float(p),) * habitat.dim, h, vals)
                ext = extend_periodic(coeff, habitat)
                worst = float((f00 + pert - ext).min())
                if worst < -1e-12:
                    raise AssertionError(f"minorant construction failed pointwise ({worst})")
                return (p,) * habitat.dim, coeff
        p += 1
    raise PeriodTooLargeError(
        f"no admissible period <= 2L = {two_l} reaches average >= f0(0) - {eps}"
    )


def sub_solution(
    op: DispersalOperator,
    reaction: Reaction,
    habitat: Habitat,
    delta: float = 0.1,
    slack: float = 1e-10,
) -> Field:
    """Validated sub-solution delta * phi from the minorant eigenproblem.

    phi is the positive dominant eigenfunction of the untwisted periodic
    operator with coefficient h (eps = f0(0)/2), extended periodically
    and normalized to max 1.  delta is halved (at most 10 times) until
    dispersal(delta phi) + delta phi f(x, delta phi) >= -slack holds at
    every grid point.
    """
    eps = float(reaction.f0(0.0)) / 2.0
    _, coeff = periodic_minorant(reaction, eps, habitat)
    xi0 = np.zeros(habitat.dim)
    xi0[0] = 1.0
    cell_op = assemble_cell_operator(
        op.kind, 0.0, xi0, coeff, kernel=op.kernel, weights=op.weights
    )
    eig = principal_eigenvalue(cell_op)
    phi = extend_periodic(
        PeriodicCoefficient(coeff.period, coeff.spacing, eig.eigenfunction), habitat
    )
    phi = phi / phi.max()

    disp = op.bind(habitat)
    growth = reaction.bind(habitat)
    d = float(delta)
    for _ in range(11):
        u = d * phi
        residual = disp(u) + u * growth(u)
        if float(residual.min()) >= -slack:
            return Field(habitat, u)
        d *= 0.5
    raise SubSolutionError(
        "sub-solution inequality still fails at delta = {:.3e}; the minorant "
        "eigenvalue may be nonpositive or the resolution too coarse".format(d * 2.0)
    )


@dataclass(eq=False)
class StationaryResult:
    u_star: Field
    route: str
    residual: float
    iterations: int
    time_to_converge: float
    monotone_ok: bool


def solve_stationary(
    op: DispersalOperator,
    reaction: Reaction,
    habitat: Habitat,
    route: str = FROM_ABOVE,
    dt: float = None,
    t_max: float = _T_MAX,
) -> StationaryResult:
    """Long-time integration to the positive stationary state.

    Stops when consecutive snapshots (spacing 1.0) differ by less than
    1e-9 in max norm, then certifies the result by the equation residual
    (must be <= 1e-7).  The route's monotonicity (non-increasing from
    above, non-decreasing from below) is checked per snapshot with 1e-10
    slack; failure to converge by t_max raises with the residual.
    """
    if route not in (FROM_ABOVE, FROM_BELOW):
        raise ValueError(f"unknown route {route!r}")
    if route == FROM_ABOVE:
        m = reaction.beta0 + 1.0
        f_at_m = reaction.evaluate(habitat, np.full(habitat.shape, m))
        if not np.all(f_at_m < 0.0):
            raise ValueError("f(x, M) < 0 fails at M = beta0 + 1")
        u = habitat.full(m)
    else:
        u = sub_solution(op, reaction, habitat)

    dt = step_size(op, reaction, u, dt)

    disp = op.bind(habitat)
    growth = reaction.bind(habitat)
    n_chunks = int(math.ceil(t_max / _RECORD_SPACING))
    monotone_ok = True
    prev = u
    converged = False
    k = 0
    for k in range(1, n_chunks + 1):
        traj = evolve(op, reaction, prev, _RECORD_SPACING, dt, record_every=10 ** 9)
        cur = traj.final
        step = cur.values - prev.values
        if route == FROM_ABOVE and float(step.max()) > _MONOTONE_SLACK:
            monotone_ok = False
        if route == FROM_BELOW and float(-step.min()) > _MONOTONE_SLACK:
            monotone_ok = False
        diff = float(np.abs(step).max())
        prev = cur
        if diff < _CONVERGENCE_TOL:
            converged = True
            break

    u_star = prev
    residual = float(np.abs(disp(u_star.values) + u_star.values * growth(u_star.values)).max())
    if not converged:
        raise StationaryConvergenceError(
            f"no convergence by t = {t_max} (last residual {residual:.3e})"
        )
    if not monotone_ok:
        raise StationaryConvergenceError(
            f"{route} iterates violated monotonicity beyond {_MONOTONE_SLACK}"
        )
    if residual > _RESIDUAL_TOL:
        raise StationaryConvergenceError(
            f"stationary residual {residual:.3e} exceeds {_RESIDUAL_TOL}"
        )
    if not u_star.is_strictly_positive():
        raise StationaryConvergenceError("stationary state is not strictly positive")
    return StationaryResult(
        u_star=u_star,
        route=route,
        residual=residual,
        iterations=k,
        time_to_converge=k * _RECORD_SPACING,
        monotone_ok=monotone_ok,
    )


def check_tail(u_star: Field, u0_star: float, R: float, delta0: float = 0.0) -> float:
    """sup |u* - u0| over the annulus R <= |x| <= L - delta0 - 5h.

    The upper cutoff keeps the window clear of the truncation boundary
    where the operators deviate from their unbounded-domain versions.
    """
    habitat = u_star.habitat
    outer = habitat.half_extent - delta0 - 5.0 * habitat.spacing
    if not (R < outer):
        raise ValueError(f"empty tail window: need R < {outer}")
    r = habitat.radius()
    mask = (r >= R) & (r <= outer)
    if not np.any(mask):
        raise ValueError("empty tail window: no grid points in range")
    return float(np.abs(u_star.values[mask] - u0_star).max())


@dataclass(frozen=True)
class StabilityReport:
    ok: bool
    distances: tuple
    tolerance: float
    horizon: float


def check_stability(
    op: DispersalOperator,
    reaction: Reaction,
    u_star: Field,
    perturbations,
    T: float = 200.0,
    dt: float = None,
    tol: float = 1e-4,
) -> StabilityReport:
    """Evolve strictly positive perturbations and report the max-norm
    distance to u_star at the horizon; passes when all are below tol."""
    distances = []
    for u0 in perturbations:
        if not u0.is_strictly_positive():
            raise ValueError("perturbations must be strictly positive")
        traj = evolve(op, reaction, u0, T, step_size(op, reaction, u0, dt), record_every=10 ** 9)
        distances.append(float(np.abs(traj.final.values - u_star.values).max()))
    return StabilityReport(all(d < tol for d in distances), tuple(distances), tol, T)

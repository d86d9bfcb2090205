"""Positive stationary states of D u + u f(x, u) = 0, matrix-free.

The from-above route runs Newton from the constant super-solution
M = reaction.ceiling(beta0) = beta0 + u0*; the from-below route runs the
monotone iteration of Sattinger (1972) upward from a small multiple of a
periodically extended positive eigenfunction, then hands over to Newton.
Every linear solve runs dispersal.krylov, the BiCGSTAB loop that the eigenvalue solver
shares, on the dispersal closure, so no operator matrix is built; it is
right-preconditioned by the inverse of c I - D0, where D0 is the same
stencil read as a constant-coefficient convolution, diagonal in Fourier
modes on periodic habitats and in cosine modes on clamp ones
(DispersalOperator.bind_resolvent).  A monotone step solves K I - D, which
is c I - D0 itself for the random and symmetric discrete kinds, so it
takes one or two applies; a Newton step solves a I - D with a varying
a(x), preconditioned at c = mean(a).
The eigenfunction comes from a periodic minorant of the growth rate at
zero: a smooth periodic h(x) sitting below f(x, 0) whose cell average
is within eps of the homogeneous rate, so its dominant eigenvalue is
positive and delta*phi is a genuine sub-solution for small delta; the
eigenpair is certified by eigen.principal_eigenvalue's Noda iteration.

Both routes bracket the same stationary state; agreement of the two is
the uniqueness check, the equation residual is the existence
certificate, and the Collatz-Wielandt bound max(J u* / u*) on the
spectral abscissa of the cooperative Newton Jacobian J at u* is the
stability certificate: a negative bound makes u* linearly stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dispersal import DispersalOperator, KrylovError, krylov
from .domain import Field, Habitat, Reaction
from .dynamics import _reaction_maxima, spectral_bound
from .eigen import PeriodicCoefficient, assemble_cell_operator, principal_eigenvalue

FROM_ABOVE = "from-above"
FROM_BELOW = "from-below"

# Heights in units of u0*.
_SUB_SOLUTION_DELTA = 0.1  # the first height tried for delta * phi
_SUB_SOLUTION_SLACK = 1e-10
_RESIDUAL_TOL = 1e-7
# The residual's rounding floor is about eps rho max(u), rho the Gershgorin
# bound of the linearized equation; on fine grids it passes 1e-7 u0*.
_RESIDUAL_ROUNDING = 4.0
# Step limits relative to the iterate's height max(u), so the iteration
# behaves alike for every carrying capacity u0* = r0/slope.
_MONOTONE_SLACK = 1e-10  # tolerated step against the route's direction
_NEWTON_SWITCH = 1e-3  # largest monotone step at which Newton takes over
_STEP_TOL = 1e-12  # Newton step (max norm) that ends the iteration
_MAX_STEPS = 1000
_KRYLOV_TOL = 1e-14


class PeriodTooLargeError(ValueError):
    """No admissible minorant period fits inside the habitat."""


class SubSolutionError(RuntimeError):
    """delta-halving failed to validate the sub-solution inequality."""


class StationaryConvergenceError(RuntimeError):
    """The stationary iteration broke down, left its order or did not converge."""


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
    return reaction.r0 - dip * smooth_cutoff(rho2 / reaction.radius ** 2)


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
    f00 = reaction.r0
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


def sub_solution(op: DispersalOperator, reaction: Reaction, habitat: Habitat) -> Field:
    """Validated sub-solution delta * phi from the minorant eigenproblem.

    phi is the positive dominant eigenfunction of the untwisted periodic
    operator with coefficient h (eps = f0(0)/2), extended periodically
    and normalized to max 1.  delta starts at 0.1 u0* and is halved (at
    most 10 times) until
    dispersal(delta phi) + delta phi f(x, delta phi) >= -slack holds at
    every grid point, with slack 1e-10 u0*.
    """
    eps = reaction.r0 / 2.0
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
    d = _SUB_SOLUTION_DELTA
    for _ in range(11):
        u = (d * reaction.u0_star) * phi
        residual = disp(u) + u * growth(u)
        if float(residual.min()) >= -_SUB_SOLUTION_SLACK * reaction.u0_star:
            return Field(habitat, u)
        d *= 0.5
    raise SubSolutionError(
        "sub-solution inequality still fails at delta = {:.3e} u0*; the minorant "
        "eigenvalue may be nonpositive or the resolution too coarse".format(d * 2.0)
    )


@dataclass(eq=False)
class StationaryResult:
    u_star: Field
    route: str
    residual: float
    iterations: int  # outer steps: monotone steps plus Newton steps
    newton_steps: int
    matvecs: int  # operator applies inside the Krylov solves
    # max(J u* / u*) >= the spectral abscissa of the Newton Jacobian at u*
    stability_bound: float


def residual_tolerance(op: DispersalOperator, reaction: Reaction, u: Field) -> float:
    """The largest equation residual max|D u + u f(x, u)| that certifies u:
    max(1e-7 u0*, 4 eps rho max(u)), with rho = dynamics.spectral_bound at u."""
    floor = np.finfo(float).eps * spectral_bound(op, reaction, u) * u.max
    return max(_RESIDUAL_TOL * reaction.u0_star, _RESIDUAL_ROUNDING * floor)


def solve_stationary(
    op: DispersalOperator,
    reaction: Reaction,
    habitat: Habitat,
    route: str = FROM_ABOVE,
) -> StationaryResult:
    """The positive solution of F(u) = D u + u f(x, u) = 0, matrix-free.

    From above: Newton from the super-solution M = beta0 + u0*.  The linear
    systems (-J) du = F(u) with -J v = a v - D v, a = slope u - f(x, u),
    are solved by dispersal.krylov to 1e-14 relative, preconditioned by the inverse of
    c I - D0 (bind_resolvent) at c = mean(a) (max(a) if that mean is not positive); since
    u f is concave in u every iterate is a super-solution and the
    iterates do not increase.

    From below: the monotone iteration (K I - D) u_next = K u + u f(x, u)
    of Sattinger (1972) from sub_solution, with K = sup |d_u(u f)| on
    [0, beta0] (the iterates stay below u* <= beta0), does not decrease;
    its solves are preconditioned at c = K.
    Once its largest step falls below 1e-3 max(u) it hands over to
    Newton, whose first step lands on or above u* by concavity and whose
    later steps do not increase.

    Every step is checked against its direction with 1e-10 max(u) slack.
    The iteration stops once a Newton step is below 1e-12 max(u) in max
    norm, and the result is certified by the equation residual (at most
    residual_tolerance: 1e-7 u0*, or its rounding floor on fine grids) and
    strict positivity.  Every height is relative to max(u) or a fraction
    of u0*, so a power-of-two u0* scales the iterates bit for bit.

    stability_bound is max(J u* / u*) for the Newton Jacobian
    J = D + diag(f(x, u*) - slope u*), read off the residual's F(u*) as
    J u* = F(u*) - slope u*^2 with no further apply.  J is cooperative, so
    by Collatz-Wielandt the bound is at least its spectral abscissa; it
    equals -slope min(u*) up to max|F(u*)| / min(u*), and is scale-free.
    """
    if route not in (FROM_ABOVE, FROM_BELOW):
        raise ValueError(f"unknown route {route!r}")
    if route == FROM_ABOVE:
        u = np.full(habitat.shape, reaction.ceiling(reaction.beta0))  # a super-solution by H1
    else:
        u = sub_solution(op, reaction, habitat).values

    disp = op.bind(habitat)
    resolvent = op.bind_resolvent(habitat)
    growth = reaction.bind(habitat)
    K = _reaction_maxima(reaction, habitat, reaction.beta0)[1]  # the iterates stay below u*

    def monotone(v):
        return K * v - disp(v)

    newton = route == FROM_ABOVE
    sign = -1.0 if newton else 1.0  # the direction the next step must take
    newton_steps = matvecs = 0
    for k in range(1, _MAX_STEPS + 1):
        g = growth(u)
        F = disp(u) + u * g
        if newton:
            diag = g - reaction.slope * u
            c = -float(diag.mean())  # -J = -diag I - D, -diag = c on average
            if c <= 0.0:
                c = -float(diag.min())

            def apply(v, diag=diag):
                return -disp(v) - diag * v
        else:
            apply, c = monotone, K
        try:
            du, n = krylov(apply, F, lambda r, c=c: resolvent(r, c), _KRYLOV_TOL)
        except KrylovError as err:
            raise StationaryConvergenceError(f"{route} step {k}: {err}") from None
        matvecs += n
        height = float(u.max())
        if float((-sign * du).max()) > _MONOTONE_SLACK * height:
            raise StationaryConvergenceError(
                f"{route} step {k} violated monotonicity beyond {_MONOTONE_SLACK} max(u)")
        u = u + du
        size = float(np.abs(du).max()) / height
        if newton:
            newton_steps += 1
            sign = -1.0  # after a step from below, Newton iterates are super-solutions
            if size < _STEP_TOL:
                break
        elif size < _NEWTON_SWITCH:
            newton = True
    else:
        raise StationaryConvergenceError(
            f"no convergence in {_MAX_STEPS} steps (last step {size:.3e} max(u))")

    u_star = Field(habitat, u)
    F = disp(u) + u * growth(u)
    residual = float(np.abs(F).max())
    tolerance = residual_tolerance(op, reaction, u_star)
    if residual > tolerance:
        raise StationaryConvergenceError(
            f"stationary residual {residual:.3e} exceeds {tolerance:.3e}"
        )
    if not u_star.is_strictly_positive():
        raise StationaryConvergenceError("stationary state is not strictly positive")
    return StationaryResult(
        u_star=u_star,
        route=route,
        residual=residual,
        iterations=k,
        newton_steps=newton_steps,
        matvecs=matvecs,
        stability_bound=float(((F - reaction.slope * u * u) / u).max()),
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

"""Principal eigenvalues of twisted periodic dispersal operators.

Operators act on one periodic cell with wrap-around indexing:

random    Lu = lap u - 2 mu xi.grad u + (a(x) + mu^2) u
nonlocal  Lu = int exp(-mu (y-x).xi) kappa(y-x) u(y) dy - u(x) + a(x) u(x)
discrete  Lu = sum_k a_k (exp(-mu k.xi) u(j+k) - u(j)) + a(j) u(j)

All three are one sparse matrix diag(a + d) + sum_j w_j (f_j S_j - I)
built from the dispersal stencil (offsets z_j, weights w_j, shifts S_j)
and its twist (factors f_j, diagonal term d; see dispersal._Stencil).
For a constant coefficient r the dominant eigenvalue is the stencil's
symbol r + d + sum_j w_j (f_j - 1), which is the closed form.

The dominant eigenvalue carries a positive eigenfunction, so it is
computed by shifted power iteration: the shift makes the iteration
matrix entrywise nonnegative with positive diagonal, and the iteration
doubles as a positivity test (a converged eigenvector with a
nonpositive entry signals an assembly bug, not a math fact).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .dispersal import DISCRETE, NONLOCAL, DispersalOperator
from .domain import Kernel, LatticeWeights, sampled_directions, unit_direction


class PowerIterationError(RuntimeError):
    """Power iteration failed to converge within the iteration cap."""


@dataclass(eq=False)
class PeriodicCoefficient:
    """Samples of a periodic coefficient a(x) on one cell.

    period is a tuple (one entry per axis); spacing is the sample step
    (1 on the lattice).  values has round(period/spacing) samples per
    axis covering [0, period) at midpoint-free nodes k * spacing.
    """

    period: tuple
    spacing: float
    values: np.ndarray

    def __post_init__(self):
        period = tuple(float(p) for p in np.atleast_1d(self.period))
        values = np.asarray(self.values, dtype=float)
        if values.ndim != len(period):
            raise ValueError("coefficient array rank must match the period tuple")
        if not np.all(np.isfinite(values)):
            raise ValueError("coefficient samples must be finite")
        for p, n in zip(period, values.shape):
            if p <= 0:
                raise ValueError("periods must be positive")
            if abs(n * self.spacing - p) > 1e-9 * max(1.0, p):
                raise ValueError(
                    f"cell sampling inconsistent: {n} x {self.spacing} != period {p}"
                )
        values.setflags(write=False)
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_function(cls, fn, period, spacing):
        period = tuple(float(p) for p in np.atleast_1d(period))
        ns = [int(round(p / spacing)) for p in period]
        axes = [np.arange(n) * spacing for n in ns]
        if len(period) == 1:
            vals = np.asarray(fn(axes[0]), dtype=float)
        else:
            mesh = np.meshgrid(*axes, indexing="ij")
            vals = np.asarray(fn(*mesh), dtype=float)
        return cls(period, spacing, vals)

    @classmethod
    def constant(cls, value, period, spacing):
        return cls.from_function(lambda *xs: np.full_like(xs[0], float(value)), period, spacing)

    @property
    def dim(self) -> int:
        return len(self.period)

    @property
    def average(self) -> float:
        """Cell average (uniform-grid quadrature is the plain mean)."""
        return float(self.values.mean())


@dataclass(eq=False)
class CellOperator:
    """Assembled twisted operator on a periodic cell.

    matvec acts on arrays of cell shape; shift is large enough that
    (matvec + shift I) is entrywise nonnegative with positive diagonal.
    """

    shape: tuple
    shift: float
    _matrix: sparse.csr_matrix

    def matvec(self, u):
        return (self._matrix @ u.ravel()).reshape(self.shape)

    def to_matrix(self):
        return self._matrix.toarray()


def cell_stencil(kind, a: PeriodicCoefficient, kernel: Kernel = None,
                 weights: LatticeWeights = None):
    """The dispersal stencil on a's cell, after the cell checks: a kernel
    or lattice weights of the cell's dimension, at least 8 samples per
    period for continuum kinds, and every period above twice the kernel
    radius, so that the wrapped kernel cannot see itself."""
    op = DispersalOperator(kind, kernel=kernel, weights=weights)
    for name, payload in (("kernel", kernel), ("weights", weights)):
        if payload is not None and payload.dim != a.dim:
            raise ValueError(f"{name} has dimension {payload.dim}, the cell has {a.dim}")
    if kind == DISCRETE:
        if a.spacing != 1.0:
            raise ValueError("lattice cells have spacing 1")
    elif min(a.values.shape) < 8:
        raise ValueError("cell resolution too coarse: need >= 8 points per period")
    if kind == NONLOCAL:
        if abs(kernel.spacing - a.spacing) > 1e-12:
            raise ValueError("kernel spacing must match the cell spacing")
        if min(a.period) <= 2.0 * kernel.delta0:
            raise ValueError(
                f"period {min(a.period)} must exceed twice the kernel radius {kernel.delta0}")
    return op._stencil(a.dim, a.spacing)


def assemble_cell_operator(
    kind: str,
    mu: float,
    xi,
    a: PeriodicCoefficient,
    kernel: Kernel = None,
    weights: LatticeWeights = None,
) -> CellOperator:
    """Assemble the twisted operator for coefficient a on its cell (see
    cell_stencil for the checks); |mu| must stay below the stencil's
    twist limit, where every twist factor is positive."""
    st = cell_stencil(kind, a, kernel, weights)
    mu = float(mu)
    if abs(mu) >= st.twist_limit:
        raise ValueError(f"cell too coarse for twist mu={mu}: need |mu| < {st.twist_limit:g}")
    factors, _, diag = st.twist(mu, unit_direction(xi, a.dim))
    coeff = a.values
    mass = float(st.weights.sum())
    matrix = _wrapped_matrix(st.offsets, st.weights * factors, coeff + diag - mass)
    shift = 1.0 + float(np.abs(coeff).max()) + mu * mu + mass
    return CellOperator(coeff.shape, shift, matrix)


def _wrapped_matrix(offsets, values, diag):
    """CSR matrix of u -> diag u + sum_j values_j u(x + offsets_j) on the
    periodic grid of diag's shape; coinciding wrapped entries add up."""
    n = diag.size
    index = np.arange(n).reshape(diag.shape)
    axes = tuple(range(diag.ndim))
    cols = [np.roll(index, [-o for o in off], axis=axes).ravel() for off in offsets]
    rows = np.tile(index.ravel(), len(offsets) + 1)
    cols = np.concatenate(cols + [index.ravel()])
    data = np.concatenate([np.repeat(values, n), diag.ravel()])
    return sparse.csr_matrix((data, (rows, cols)), shape=(n, n))


@dataclass(eq=False)
class EigenResult:
    lam: float
    eigenfunction: np.ndarray  # positive, normalized to max 1, cell shape
    residual: float
    iterations: int


def principal_eigenvalue(operator: CellOperator, max_iter: int = 50_000) -> EigenResult:
    """Dominant eigenvalue by shifted power iteration.

    Iterates v -> (L + s I) v / ||.||_inf from the constant vector; the
    eigenvalue estimate is max(w) for max-normalized positive v and the
    residual is the max norm of L v - lam v, which must fall to 1e-10.
    Non-convergence raises with the last residual; a nonpositive entry in
    a converged eigenvector raises (it would contradict the
    dominant-eigenpair structure and indicates an assembly bug).
    """
    s = operator.shift
    v = np.ones(operator.shape)
    residual = np.inf
    for it in range(1, max_iter + 1):
        w = operator.matvec(v) + s * v
        lam_shifted = float(w.max())
        if not np.isfinite(lam_shifted) or lam_shifted <= 0.0:
            raise PowerIterationError(
                f"iteration left the positive cone at step {it} (max={lam_shifted!r})"
            )
        residual = float(np.max(np.abs(w - lam_shifted * v)))
        if residual <= 1e-10:
            if v.min() <= 0.0:
                raise PowerIterationError(
                    "internal error: converged eigenfunction has a nonpositive entry"
                )
            v = v / v.max()
            return EigenResult(lam_shifted - s, v, residual, it)
        v = w / lam_shifted
    raise PowerIterationError(
        f"no convergence in {max_iter} iterations (last residual {residual:.3e})"
    )


def constant_symbol(kind: str, xi, kernel: Kernel = None, weights: LatticeWeights = None,
                    resolution: float = None):
    """mu -> lambda(mu) - r for a constant coefficient r: the symbol of
    the twisted stencil, vectorized in mu, with the stencil built once.

    The nonlocal kernel is resampled at `resolution` (default: one quarter
    of its own sampling step).  The random symbol is mu^2 for every h; it
    is taken on the unit grid, where its drift terms cancel exactly.
    """
    op = DispersalOperator(kind, kernel=kernel, weights=weights)
    if kind == NONLOCAL and resolution != kernel.spacing:
        op = DispersalOperator(NONLOCAL, kernel=kernel.resample(
            resolution if resolution is not None else kernel.spacing / 4.0))
    st = op._stencil(np.size(xi), 1.0)
    return functools.partial(st.symbol, xi=unit_direction(xi, st.offsets.shape[1]))


def closed_form_eigenvalue(kind: str, mu, xi, r: float, kernel: Kernel = None,
                           weights: LatticeWeights = None, resolution: float = None):
    """Dominant eigenvalue for a constant coefficient r (vectorized in mu):
    r + mu^2 (random), r + int exp(-mu z.xi) kappa(z) dz - 1 by quadrature
    (nonlocal), r + sum_k a_k (exp(-mu k.xi) - 1) (discrete).  See
    constant_symbol."""
    return r + constant_symbol(kind, xi, kernel, weights, resolution)(mu)


@dataclass(frozen=True)
class ExistenceReport:
    condition2_ok: bool
    oscillation: float
    threshold: float


def check_eigenvalue_existence(a: PeriodicCoefficient, kernel: Kernel) -> ExistenceReport:
    """Sufficient condition for the nonlocal principal eigenvalue to
    exist: the oscillation of a must stay below the smallest one-sided
    kernel mass inf_xi int_{z.xi <= 0} kappa, sampled over directions
    (the two signs in 1-D, 64 uniform angles in 2-D).

    A second known sufficient condition (flatness of a at its maximum)
    gives no computable test at finite resolution and is not checked.
    """
    oscillation = float(a.values.max() - a.values.min())
    dirs = sampled_directions(kernel.dim, 64)
    threshold = min(kernel.halfspace_mass(d) for d in dirs)
    return ExistenceReport(oscillation < threshold, oscillation, threshold)


@dataclass(frozen=True)
class AverageBoundReport:
    ok: bool
    lam: float
    bound: float
    average: float
    slack: float


def check_average_lower_bound(
    kind: str,
    mu: float,
    xi,
    a: PeriodicCoefficient,
    kernel: Kernel = None,
    weights: LatticeWeights = None,
    slack: float = 1e-8,
) -> AverageBoundReport:
    """Spatial variation can only raise the dominant eigenvalue:
    lambda(a) >= lambda(a_average) - slack.

    The constant-coefficient reference uses the same discretization as
    the assembled cell operator (for the nonlocal kind, the kernel
    moment at the cell spacing), so that equality holds exactly for
    constant a and the comparison is between like operators.
    """
    op = assemble_cell_operator(kind, mu, xi, a, kernel=kernel, weights=weights)
    lam = principal_eigenvalue(op).lam
    a_hat = a.average
    resolution = kernel.spacing if kernel is not None else None
    bound = float(closed_form_eigenvalue(kind, mu, xi, a_hat, kernel, weights, resolution))
    return AverageBoundReport(lam >= bound - slack, lam, bound, a_hat, slack)

"""Principal eigenvalues of twisted periodic dispersal operators.

Operators act on one periodic cell with wrap-around indexing:

random    Lu = lap u - 2 mu xi.grad u + (a(x) + mu^2) u
nonlocal  Lu = int exp(-mu (y-x).xi) kappa(y-x) u(y) dy - u(x) + a(x) u(x)
discrete  Lu = sum_k a_k (exp(-mu k.xi) u(j+k) - u(j)) + a(j) u(j)

All three are u -> (a + d) u + sum_j w_j (f_j u(x + z_j) - u), built
from the dispersal stencil (offsets z_j, weights w_j) and its twist
(factors f_j, diagonal term d; see dispersal._Stencil).  The neighbours
x + z_j are gathered through dispersal.wrap_index, the same wrap rule
the periodic habitat operator uses, so no matrix is stored.
For a constant coefficient r the dominant eigenvalue is the stencil's
symbol r + d + sum_j w_j (f_j - 1), which is the closed form.

The dominant eigenvalue carries a positive eigenfunction, and for every
positive v it lies in the Collatz-Wielandt enclosure
[min L v / v, max L v / v], so a narrow enclosure certifies the pair.
Noda's iteration closes it: each step solves (sigma I - L) y = v at
sigma = max L v / v by dispersal.krylov, the BiCGSTAB loop of the
stationary solver, right-preconditioned by the Fourier inverse of a
constant-coefficient stencil on the cell torus (dispersal.torus_symbol).
On cells of at most DENSE_START_MAX points the iteration starts from the
dense Perron vector (numpy.linalg.eig of the dense cell matrix), which
usually certifies at once; larger cells start from constants.  A
nonpositive entry in a certified eigenvector would signal an assembly
bug, not a math fact, and raises.

An array of mu assembles a stack of cell operators from one stencil and
one wrap index (assemble_cell_operator), and principal_eigenvalues
certifies each of them by the same loop.  Their dense starts come from
stacked numpy.linalg.eig calls, chunked so that one stack holds at most
DENSE_START_MAX^2 matrix entries (256 cells of 16 points, one cell at
the cutoff), so a scan of any length needs little more memory than one
dense start at the cutoff.  principal_eigenvalue is the stack of one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .dispersal import (
    DispersalOperator,
    KrylovError,
    fourier_inverse,
    krylov,
    torus_symbol,
    wrap_index,
)
from .domain import Kernel, LatticeWeights, sampled_directions, unit_direction

# cells up to this many points start the Noda iteration from the dense
# eigenvector; numpy.linalg.eig grows as n^3, about 30 ms on one core at 256
DENSE_START_MAX = 256
# the enclosure certifies once its width is at most REL (|lam| + shift) + ABS
_CERTIFICATE_REL = 1e-14
_CERTIFICATE_ABS = 1e-13
_AVERAGE_BOUND_SLACK = 1e-8  # check_average_lower_bound tolerates this shortfall


class PowerIterationError(RuntimeError):
    """The principal eigenpair was not certified within the step cap, or
    its iteration broke down."""


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
        values = np.array(self.values, dtype=float)  # a copy: freezing it spares the caller's
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

    def __reduce__(self):  # unpickle by the constructor: checked and frozen again
        return PeriodicCoefficient, (self.period, self.spacing, self.values)

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
    """Twisted operator on a periodic cell,
    (Lu)(x) = diag(x) u(x) + sum_j values_j u(x + z_j).

    index (one row per offset z_j, see dispersal.wrap_index) holds the
    flat indices of x + z_j, values the w_j f_j and diag the flattened
    diagonal.  matvec acts on arrays of cell shape; shift is large enough
    that (matvec + shift I) is entrywise nonnegative with positive
    diagonal.

    A stack of operators on one cell, one per mu of an array (see
    assemble_cell_operator), shares index and carries a leading axis on
    shift, values and diag.  Indexing a stack gives one operator (an
    integer) or a smaller stack (a slice), and op[None] is the stack of
    one operator.  matvec takes one operator; to_matrix takes either.
    """

    shape: tuple
    shift: float
    index: np.ndarray
    values: np.ndarray
    diag: np.ndarray

    def __getitem__(self, key):
        return CellOperator(self.shape, np.asarray(self.shift)[key], self.index,
                            self.values[key], self.diag[key])

    def matvec(self, u):
        flat = u.ravel()
        return (self.values @ flat[self.index] + self.diag * flat).reshape(self.shape)

    def to_matrix(self):
        """The dense matrix, or one per operator of a stack; coinciding
        wrapped entries add up, in the order of the offsets."""
        n = self.diag.shape[-1]
        matrix = np.zeros(self.diag.shape + (n,))
        rows = np.arange(n)
        matrix[..., rows, rows] = self.diag
        stack = (slice(None),) * (self.diag.ndim - 1)
        np.add.at(matrix, stack + (rows, self.index), self.values[..., None])
        return matrix


def cell_stencil(kind, a: PeriodicCoefficient, kernel: Kernel = None,
                 weights: LatticeWeights = None):
    """The dispersal stencil on a's cell, after the cell checks of
    DispersalOperator.check_cell."""
    op = DispersalOperator(kind, kernel=kernel, weights=weights)
    op.check_cell(a.period, a.spacing, a.values.shape)
    return op._stencil(a.dim, a.spacing)


def assemble_cell_operator(
    kind: str,
    mu,
    xi,
    a: PeriodicCoefficient,
    kernel: Kernel = None,
    weights: LatticeWeights = None,
) -> CellOperator:
    """Assemble the twisted operator for coefficient a on its cell (see
    cell_stencil for the checks); |mu| must stay below the stencil's
    twist limit, where every twist factor is positive.  A 1-D array of mu
    gives the stack of their operators, each with the bits of its mu
    alone."""
    st = cell_stencil(kind, a, kernel, weights)
    mu = np.asarray(mu, dtype=float)
    beyond = np.abs(mu) >= st.twist_limit
    if beyond.any():
        raise ValueError(f"cell too coarse for twist mu={float(mu[beyond][0])}: "
                         f"need |mu| < {st.twist_limit:g}")
    factors, _, diag = st.twist(mu, unit_direction(xi, a.dim))
    coeff = a.values.ravel()
    mass = float(st.weights.sum())
    shift = 1.0 + float(np.abs(coeff).max()) + mu * mu + mass
    return CellOperator(a.values.shape, shift if mu.ndim else float(shift),
                        wrap_index(st.offsets, a.values.shape), st.weights * factors,
                        coeff + diag[..., None] - mass)


@dataclass(eq=False)
class EigenResult:
    lam: float
    eigenfunction: np.ndarray  # positive, normalized to max 1, cell shape
    residual: float  # max |L phi - lam phi|
    iterations: int  # operator applies: one per enclosure, plus the Krylov applies
    bracket: tuple  # (min L phi / phi, max L phi / phi), which encloses lam
    gap: float = None  # spectral gap of the dense cell matrix, where it was formed


def _start_vectors(stack: CellOperator):
    """(v, gap) for each operator of a stack, in order: the dense Perron
    vector, |v| / max|v| for the eigenvector v of the eigenvalue with the
    largest real part, and the gap from that real part to the next, on
    cells of at most DENSE_START_MAX points; the constant vector and no
    gap on larger cells.  The dense matrices go to numpy.linalg.eig in
    stacks of at most DENSE_START_MAX^2 entries (one matrix per stack at
    the cutoff); a stacked eig gives each matrix the bits of its own
    call."""
    n = stack.diag.shape[-1]
    count = len(stack.values)
    if n > DENSE_START_MAX:
        for _ in range(count):
            yield np.ones(stack.shape), None
        return
    per_stack = DENSE_START_MAX ** 2 // n ** 2
    for first in range(0, count, per_stack):
        # a list, so that this stack's eig output is freed before the next eig
        yield from [_perron_start(vals, vecs, stack.shape) for vals, vecs
                    in zip(*np.linalg.eig(stack[first:first + per_stack].to_matrix()))]


def _perron_start(vals, vecs, shape):
    """(v, gap) from the eigenvalues and eigenvectors of one dense cell
    matrix (see _start_vectors)."""
    v = np.abs(vecs[:, np.argmax(vals.real)])
    real = np.sort(vals.real)
    gap = float(real[-1] - real[-2]) if real.size > 1 else None
    return (v / v.max()).reshape(shape), gap


def _noda_step(operator: CellOperator, v, sigma):
    """(y, applies) for (sigma I - L) y = v with positive v, solved by
    dispersal.krylov in the variable z = y / v: the right-hand side is
    the constant 1 and the operator sigma z - L (v z) / v.  It is
    right-preconditioned by the Fourier inverse of sigma I minus its
    circulant part, the stencil whose weights are values_j times the
    geometric mean over the cell of v(x + z_j) / v(x), plus the mean of
    diag; from constant v that is L's own twisted stencil.  Solving for
    z keeps every entry of y accurate relative to itself, where the
    Collatz-Wielandt ratios need it.

    The solve stops at a 2-norm residual of min(0.1, 0.5 / sqrt(n)) times
    ||1|| = sqrt(n), at most 1/2 in every entry: z then solves the system
    for a positive right-hand side, so y is positive (the inexact Noda
    iteration of Jia, Lin and Liu 2015)."""
    flat = v.ravel()
    weights = operator.values * np.exp(np.log(flat[operator.index] / flat).mean(axis=1))
    offsets = np.transpose(np.unravel_index(operator.index[:, 0], operator.shape))
    symbol = torus_symbol(offsets, weights, operator.diag.mean(), operator.shape)
    solve = fourier_inverse(symbol, operator.shape)
    z, applies = krylov(lambda z: sigma * z - operator.matvec(v * z) / v, np.ones(v.shape),
                        lambda r: solve(r, sigma), min(0.1, 0.5 / np.sqrt(v.size)))
    return v * z, applies


def principal_eigenvalue(operator: CellOperator, max_iter: int = 50) -> EigenResult:
    """Dominant eigenpair by Noda's iteration, certified by the
    Collatz-Wielandt enclosure.

    For every positive v the dominant eigenvalue lies in
    [min L v / v, max L v / v].  From the start vector (the dense Perron
    vector on small cells, see _start_vectors) each step takes sigma =
    max L v / v plus the certificate's width (which keeps the last,
    nearly singular solves from breaking down), solves
    (sigma I - L) y = v inexactly (_noda_step; Noda 1971) and continues
    from y / max(y).  The pair is
    certified once the enclosure is at most 1e-14 (|lam| + shift) + 1e-13
    wide; lam is its midpoint and phi = v, normalized to max 1.  A start
    vector that certifies costs one apply and builds no Fourier solver.

    At most max_iter steps are taken; no certificate by then, a breakdown
    of a step's Krylov solve or a non-finite enclosure raises
    PowerIterationError with the enclosure width.  The width is measured
    through L v / v, so an eigenfunction that spans many orders of
    magnitude (max phi / min phi beyond about 1e30: long 1-D cells under
    a twist or a nearly local kernel) can fail to certify.  A nonpositive entry in a
    certified eigenfunction raises too (it indicates an assembly bug).
    """
    (result,) = principal_eigenvalues(operator[None], max_iter)
    return result


def principal_eigenvalues(stack: CellOperator, max_iter: int = 50) -> list:
    """principal_eigenvalue of each operator of a stack, in order: the
    dense starts come from stacked eig calls (_start_vectors), and each
    operator is then certified alone."""
    return [_certify(stack[i], v, gap, max_iter)
            for i, (v, gap) in enumerate(_start_vectors(stack))]


def _certify(operator: CellOperator, v, gap, max_iter):
    """principal_eigenvalue's Noda loop from the start vector v; gap is
    reported as found."""
    s = operator.shift
    applies = 0
    for step in range(max_iter + 1):
        w = operator.matvec(v)
        applies += 1
        ratio = w / v
        lo, hi = float(ratio.min()), float(ratio.max())
        width = hi - lo
        if not np.isfinite(width):
            raise PowerIterationError(f"enclosure not finite at step {step}: [{lo!r}, {hi!r}]")
        lam = 0.5 * (lo + hi)
        bound = _CERTIFICATE_REL * (abs(lam) + s) + _CERTIFICATE_ABS
        if width <= bound:
            if v.min() <= 0.0:
                raise PowerIterationError(
                    "internal error: certified eigenfunction has a nonpositive entry")
            residual = float(np.max(np.abs(w - lam * v)))
            return EigenResult(lam, v, residual, applies, (lo, hi), gap)
        if step == max_iter:
            break
        try:
            y, n = _noda_step(operator, v, hi + bound)
        except KrylovError as err:
            raise PowerIterationError(
                f"Noda step {step + 1} failed at enclosure width {width:.3e}: {err}") from None
        applies += n
        v = y / y.max()
    raise PowerIterationError(
        f"no certificate in {max_iter} steps (last enclosure width {width:.3e})"
    )


def constant_symbol(kind: str, xi, kernel: Kernel = None, weights: LatticeWeights = None,
                    resolution: float = None):
    """mu -> lambda(mu) - r for a constant coefficient r: the symbol of
    the twisted stencil, vectorized in mu, with the stencil built once.

    The stencil is DispersalOperator.symbol_stencil's: a nonlocal kernel
    is resampled at `resolution` (default: one quarter of its own sampling
    step), and the random symbol, mu^2 for every h, is taken on the unit
    grid, where its drift terms cancel exactly.
    """
    op = DispersalOperator(kind, kernel=kernel, weights=weights)
    st = op.symbol_stencil(np.size(xi), resolution)
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
) -> AverageBoundReport:
    """Spatial variation can only raise the dominant eigenvalue:
    lambda(a) >= lambda(a_average) - 1e-8.

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
    return AverageBoundReport(lam >= bound - _AVERAGE_BOUND_SLACK, lam, bound, a_hat,
                              _AVERAGE_BOUND_SLACK)

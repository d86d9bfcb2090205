"""The three dispersal operators, each written as one stencil.

A stencil is a set of integer grid offsets z_j with weights w_j:

random    the 2*dim unit offsets with weight 1/h^2 (central-difference
          Laplacian)
nonlocal  the kernel offsets, centre included, with weight kappa(z_j) h^dim
          (convolution quadrature of int kappa(y-x) u(y) dy - u(x))
discrete  the 2*dim unit offsets of the lattice with the rates a_k

On a habitat the stencil acts in difference form sum_j w_j (u(x+z_j) - u(x)),
so constants are exact equilibria.  Under clamp boundaries out-of-domain
terms are dropped and nonlocal rows are renormalized by their in-domain
mass; under periodic boundaries indices wrap, by the one rule of
wrap_index.  A bound operator acts on a stack (rows, *shape) of grids,
each with the bits it gets alone: under clamp boundaries as on a grid
of one more axis with offsets (0, *z), under periodic ones by a product
per grid (one over the stack would sum in a position-dependent order).

Under clamp boundaries every term runs as a 1-D op on the C-order flat
arrays (_flat_overlap): the in-domain overlap of offset z becomes one
contiguous range [d0, d1) of the flat grid, from the overlap's first
point to its last, and its source is the same range shifted by the flat
offset of z.  On more than one row the range also holds the positions
outside the overlap, |z_col| between each two rows of a 2-D grid and the
gaps between the grids of a stack, where the shift wraps to a
neighbouring row or grid; after d = w (u[src] - u[dst]) the term sets
d = +0.0 there, before it adds d into acc[dst].  acc starts at +0.0 and
can never become -0.0 (in round-to-nearest a sum is -0.0 only when both
addends are), so adding +0.0 in place of a dropped term leaves every
partial sum's bits unchanged.  On one 1-D grid the range is the
overlap itself.

The random and nonlocal stencils and symmetric lattice rates are
symmetric (z and -z carry the same weight), so the clamp action shares
one difference between the two terms of each such pair: the earlier
term, of z, adds d into acc[dst], and the term of -z, whose ranges are
those of z swapped and whose wrapped positions are the same, subtracts
the same d, zeroed already, from acc[src].  Negation is exact in IEEE
arithmetic, so each shared term is bitwise the w (u(x - z) - u(x)) it
replaces; the terms are added in the stencil's order, and the nonlocal
row masses are summed the same way, so the result is bit-identical to
the term-by-term action by 2-D slices.  A term whose mirror is missing
or weighted differently (asymmetric lattice rates) takes its own
difference.  The differences live in one workspace per bound closure,
a row per pair, so an apply allocates only its result.

Only this module asks which kind an operator is.  The other modules read
what depends on the kind from DispersalOperator (check_habitat and
check_cell, which share one payload check; symbol_stencil, the
closed-form resampling) and from its stencil's rho and mass, the two
numbers of the step rules of dynamics: 4 dim / h^2 and 1 for the random
kind, 2 and 1 for the nonlocal kind, twice the rate sum and the rate sum
for the discrete kind.

_Stencil.twist gives the factors f_j = exp(-mu z_j.xi) of the operator
twisted by exp(-mu x.xi), or for the random stencil the first-order factors
1 - mu z_j.xi (its centred drift) plus mu^2 on the diagonal.  The periodic
cell operators of eigen and the constant-coefficient closed forms (the
stencil's symbol) both read it.

torus_symbol reads a stencil as a constant-coefficient convolution D0 on
a torus.  DispersalOperator.bind_resolvent inverts c I - D0 for the
habitat's stencil: on the torus of the grid under periodic boundaries, by
numpy.fft (fourier_inverse); under clamp boundaries on the even extension
of length 2n per axis (for unit offsets, dropping an out-of-domain term
is reflection about the half point).  The orthonormal DCT-II of each axis
diagonalizes the even extension's convolution by a stencil even in each
axis (Martucci, IEEE Trans. Signal Process. 42, 1994), with the symbol of
the 2n torus at its first n frequencies per axis as eigenvalues, so on
axes of at most _DENSE_AXIS_MAX points the inverse is dense cosine
transforms of the n points (cosine_inverse), and longer axes take the
FFT of the 2n extension.  The inverse is exact for symmetric stencils
with unit offsets on clamp habitats and for every symmetric stencil on
periodic ones; elsewhere it is exact away from the boundary.  numpy.fft
is reached only when a symbol is built, so importing kpplab does not
load it.

krylov is the one BiCGSTAB loop, right-preconditioned; the stationary
solves and the Noda steps of eigen.principal_eigenvalue share it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import (
    CONTINUUM,
    LATTICE,
    PERIODIC,
    Field,
    Habitat,
    Kernel,
    LatticeWeights,
    _unit_offsets,
)

RANDOM = "random"
NONLOCAL = "nonlocal"
DISCRETE = "discrete"
KINDS = (RANDOM, NONLOCAL, DISCRETE)
_KRYLOV_MAX_ITER = 5000
# clamp resolvents with no axis longer than this invert by dense cosine
# transforms, where the matrix products beat the FFT of the even extension
# (one 1-D solve: 20 -> 4.5 us at 81 points, but 60 -> 440 us at 801)
_DENSE_AXIS_MAX = 256


@dataclass(frozen=True, eq=False)
class _Stencil:
    """Integer offsets (m, dim) with weights (m,) on a grid of the given
    spacing; rho is a Gershgorin bound of the stencil's action (each row's
    disc lies in |z + rho / 2| <= rho / 2) and mass the mass term of the
    bounded-operator step clause; renormalize divides each clamp row by
    its in-domain mass; first_order selects the random kind's first-order
    twist."""

    offsets: np.ndarray
    weights: np.ndarray
    spacing: float
    rho: float
    mass: float
    renormalize: bool = False
    first_order: bool = False

    @property
    def twist_limit(self) -> float:
        """Every twist factor is positive for |mu| below this bound."""
        return 1.0 / self.spacing if self.first_order else math.inf

    def twist(self, mu, xi):
        """Twist factors f_j, their excess f_j - 1 (offsets on the last
        axis) and the diagonal term (shaped as mu), for a unit vector xi;
        vectorized in mu.  The first-order excess is -mu z.xi itself, so
        on a unit grid the drift terms of a symmetric stencil cancel
        exactly."""
        mu = np.asarray(mu, dtype=float)
        t = -np.multiply.outer(mu, (self.offsets * self.spacing) @ xi)
        if self.first_order:
            return 1.0 + t, t, mu * mu
        factors = np.exp(t)
        return factors, factors - 1.0, np.zeros(mu.shape)

    def symbol(self, mu, xi):
        """diag + sum_j w_j (f_j - 1): the twisted stencil on constants,
        vectorized in mu.  Each mu takes its own dot product, so an array
        of mu gives every entry the bits of that mu alone (a
        matrix-vector product would sum in another order)."""
        _, excess, diag = self.twist(mu, xi)
        return diag + (excess[..., None, :] @ self.weights[:, None])[..., 0, 0]


@dataclass(eq=False)
class DispersalOperator:
    """Dispersal operator of one of the three kinds with its payload."""

    kind: str
    kernel: Kernel = None
    weights: LatticeWeights = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown dispersal kind {self.kind!r}")
        if self.kind == NONLOCAL and self.kernel is None:
            raise ValueError("nonlocal dispersal requires a kernel")
        if self.kind == DISCRETE and self.weights is None:
            raise ValueError("discrete dispersal requires lattice weights")

    @classmethod
    def random(cls):
        return cls(RANDOM)

    @classmethod
    def nonlocal_(cls, kernel: Kernel):
        return cls(NONLOCAL, kernel=kernel)

    @classmethod
    def discrete(cls, weights: LatticeWeights):
        return cls(DISCRETE, weights=weights)

    @property
    def delta0(self) -> float:
        """Interaction radius, used for boundary-exclusion margins."""
        if self.kind == NONLOCAL:
            return self.kernel.delta0
        if self.kind == DISCRETE:
            return 1.0
        return 0.0

    def check_habitat(self, habitat: Habitat):
        if self.kind == DISCRETE and habitat.kind != LATTICE:
            raise ValueError("discrete dispersal requires a lattice habitat")
        if self.kind in (RANDOM, NONLOCAL) and habitat.kind != CONTINUUM:
            raise ValueError(f"{self.kind} dispersal requires a continuum habitat")
        self._check_payload(habitat.dim, habitat.spacing, "habitat")

    def check_cell(self, period, spacing: float, shape):
        """The checks of a periodic cell of the given period (one entry per
        axis), sample spacing and sample shape: a payload of the cell's
        dimension and a kernel sampled at its spacing, spacing 1 for the
        discrete kind and at least 8 samples per period for the others,
        and every period above twice the kernel radius, so that the
        wrapped kernel cannot see itself."""
        self._check_payload(len(period), spacing, "cell")
        if self.kind == DISCRETE:
            if spacing != 1.0:
                raise ValueError("lattice cells have spacing 1")
        elif min(shape) < 8:
            raise ValueError("cell resolution too coarse: need >= 8 points per period")
        if self.kind == NONLOCAL and min(period) <= 2.0 * self.kernel.delta0:
            raise ValueError(
                f"period {min(period)} must exceed twice the kernel radius {self.kernel.delta0}")

    def _check_payload(self, dim: int, spacing: float, grid: str):
        """A kernel or lattice weights of the grid's dimension, and a kernel
        sampled at the grid's spacing; grid names the grid in the message."""
        for name, payload in (("kernel", self.kernel), ("weights", self.weights)):
            if payload is not None and payload.dim != dim:
                raise ValueError(f"{name} has dimension {payload.dim}, the {grid} has {dim}")
        if self.kind == NONLOCAL and abs(self.kernel.spacing - spacing) > 1e-12:
            raise ValueError(f"kernel sampling spacing must match the {grid} spacing")

    def _stencil(self, dim: int, spacing: float) -> _Stencil:
        """The stencil of this operator on a grid of the given dimension
        and spacing (the payload fixes both for nonlocal and discrete)."""
        if self.kind == RANDOM:
            offsets = _unit_offsets(dim)
            return _Stencil(offsets, np.full(len(offsets), 1.0 / spacing ** 2), spacing,
                            4.0 * dim / spacing ** 2, 1.0, first_order=True)
        if self.kind == NONLOCAL:
            k = self.kernel
            return _Stencil(k.offsets, k.weights * k.spacing ** k.dim, k.spacing, 2.0, 1.0,
                            renormalize=True)
        rate_sum = self.weights.rate_sum
        return _Stencil(self.weights.offsets, self.weights.values, 1.0, 2.0 * rate_sum,
                        rate_sum)

    def symbol_stencil(self, dim: int, resolution: float = None) -> _Stencil:
        """The stencil whose symbol is the constant-coefficient closed form
        (eigen.constant_symbol): the random stencil on the unit grid,
        where its drift terms cancel exactly (its symbol is mu^2 for
        every h), and the kernel resampled at resolution (default: one
        quarter of its own sampling step)."""
        op = self
        if self.kind == NONLOCAL and resolution != self.kernel.spacing:
            op = DispersalOperator.nonlocal_(self.kernel.resample(
                resolution if resolution is not None else self.kernel.spacing / 4.0))
        return op._stencil(dim, 1.0)

    # ---- raw-array action -------------------------------------------------

    def bind(self, habitat: Habitat, rows: int = 1):
        """Return the action on a stack (rows, *habitat.shape) of grids, or
        on one grid for rows 1, as a fast array -> array closure; each
        grid's result is bitwise that of the grid alone (see the module
        docstring).  It returns a fresh C-contiguous array for an input of
        any layout; a clamp closure keeps its differences in one workspace,
        so calls of one closure must not overlap."""
        self.check_habitat(habitat)
        st = self._stencil(habitat.dim, habitat.spacing)
        offsets = [(0, *off) for off in st.offsets.tolist()]
        # the centre offset contributes w_0 (u(x) - u(x)) = 0
        terms = [(off, w) for off, w in zip(offsets, st.weights) if any(off)]

        if habitat.boundary == PERIODIC:
            index = wrap_index([off[1:] for off, _ in terms], habitat.shape)
            weights = np.array([w for _, w in terms])

            def action_wrap(u):
                grids = u.reshape(rows, -1)
                return (weights @ (grids[:, index] - grids[:, None])).reshape(u.shape)

            return action_wrap

        shape = (rows, *habitat.shape)
        overlaps = {off: _flat_overlap(off, shape) for off in offsets}
        roles = _shared_differences(terms)
        # one workspace row per pair and one for the unpaired terms: the
        # first term of a pair leaves its difference in the pair's row and
        # the mirror, whose dst is the first's src, subtracts it from there
        n_pairs = sum(not first for _, first in roles)
        work = np.empty((n_pairs + 1, rows * habitat.n_points))
        steps = []
        for (off, w), (slot, first) in zip(terms, roles):
            if overlaps[off] is not None:  # an empty overlap's mirror is empty too
                dst, src, bad = overlaps[off]
                d = work[n_pairs if slot is None else slot, :dst.stop - dst.start]
                steps.append((dst, src, bad, w, d, first))
        row_mass = None
        if st.renormalize:
            row_mass = np.zeros(rows * habitat.n_points)
            for off, w in zip(offsets, st.weights):
                if overlaps[off] is not None:
                    dst, _, bad = overlaps[off]
                    m = np.full(dst.stop - dst.start, w)
                    if bad is not None:
                        m[bad] = 0.0
                    row_mass[dst] += m

        def action_clamp(u):
            flat = u.ravel()  # C order: a copy of an F-ordered or strided input
            acc = np.zeros(flat.size)
            for dst, src, bad, w, d, first in steps:
                if first:
                    np.subtract(flat[src], flat[dst], d)
                    d *= w
                    if bad is not None:
                        d[bad] = 0.0
                    acc[dst] += d
                else:
                    acc[dst] -= d
            if row_mass is not None:
                acc /= row_mass
            return acc.reshape(u.shape)

        return action_clamp

    def bind_resolvent(self, habitat: Habitat):
        """Return (r, c) -> (c I - D0)^{-1} r for c > 0, with D0 the stencil
        read as a convolution on the torus of the habitat's boundary: the
        grid's own torus under periodic boundaries, the even extension
        under clamp boundaries, inverted there by cosine transforms on
        axes of at most _DENSE_AXIS_MAX points and by the FFT of the
        extension otherwise (see the module docstring).  Interior nonlocal
        rows have mass 1 (Kernel.from_profile), so bind's division of each
        clamp row by its in-domain mass leaves them as D0's.  A long 1-D
        axis builds its extension in one buffer of the closure, so calls
        of one closure must not overlap; every call returns fresh memory,
        which krylov may keep."""
        self.check_habitat(habitat)
        st = self._stencil(habitat.dim, habitat.spacing)
        periodic = habitat.boundary == PERIODIC
        lengths = habitat.shape if periodic else tuple(2 * n for n in habitat.shape)
        symbol = torus_symbol(st.offsets, st.weights, -st.weights.sum(), lengths).real
        if periodic:
            return fourier_inverse(symbol, lengths)
        if max(habitat.shape) <= _DENSE_AXIS_MAX:
            return cosine_inverse(symbol, habitat.shape)
        if habitat.dim == 1:
            (n,) = habitat.shape
            extension = np.empty(2 * n)  # rebuilt in place by every call

            def resolvent_1d(r, c):
                extension[:n] = r
                extension[n:] = r[::-1]
                return np.fft.irfft(np.fft.rfft(extension) / (c - symbol), 2 * n)[:n]

            return resolvent_1d
        solve = fourier_inverse(symbol, lengths)
        inside = tuple(slice(0, n) for n in habitat.shape)

        def resolvent(r, c):
            for ax in range(habitat.dim):
                r = np.concatenate((r, np.flip(r, ax)), axis=ax)
            return solve(r, c)[inside]

        return resolvent

    # ---- public Field interface -------------------------------------------

    def apply(self, u: Field) -> Field:
        return Field(u.habitat, self.bind(u.habitat)(u.values))


def torus_symbol(offsets, weights, centre, lengths):
    """centre + sum_j w_j exp(i theta.z_j) at the real-FFT frequencies
    theta = 2 pi k / lengths of a torus (numpy.fft.rfftn's layout): the
    symbol of the convolution u -> centre u + sum_j w_j u(x + z_j) on that
    torus, the conjugate DFT of the stencil placed on it.  It is complex
    for asymmetric weights (a twist), but Hermitian, since the
    convolution is real; for symmetric weights it is real."""
    cells = np.zeros(lengths)
    np.add.at(cells, tuple((np.asarray(offsets) % lengths).T), weights)
    cells.flat[0] += centre
    return np.conj(np.fft.rfftn(cells))


def fourier_inverse(symbol, lengths):
    """Return (r, c) -> (c I - D0)^{-1} r on the torus of the given
    lengths, for D0 of the given symbol (see torus_symbol); c must
    keep c - symbol away from 0."""
    axes = tuple(range(len(lengths)))

    def solve(r, c):
        return np.fft.irfftn(np.fft.rfftn(r) / (c - symbol), s=lengths, axes=axes)

    return solve


def cosine_inverse(symbol, shape):
    """Return (r, c) -> (c I - D0)^{-1} r on the even extension of a grid
    of the given shape (1-D or 2-D), for D0 even in each axis with the
    real symbol of the torus of twice that shape (see torus_symbol): the
    orthonormal DCT-II C of each axis, then division by c minus the
    symbol at the first n frequencies per axis, then C^T.  The modes run
    from the highest frequency down, so each inverse sum adds its
    largest, low-frequency terms last; in increasing order the rounding
    of the partial sums at the size of the result doubled the residual
    of (c I - D0) applied to the solve of a smooth right-hand side (on
    65 x 65 points at c = 2.5: 8.6e-15 against 3.8e-15 relative, where
    the FFT of the extension leaves 4.2e-15)."""
    bases = [_cosine_basis(n) for n in shape]
    modes = np.ascontiguousarray(symbol[tuple(slice(n - 1, None, -1) for n in shape)])
    if len(shape) == 1:
        (cx,) = bases

        def solve(r, c):
            return cx.T @ ((cx @ r) / (c - modes))

        return solve
    cx, cy = bases

    def solve(r, c):
        return cx.T @ ((cx @ r @ cy.T) / (c - modes)) @ cy

    return solve


def _cosine_basis(n):
    """The orthonormal DCT-II matrix of n points, rows from frequency
    k = n - 1 down to 0: sqrt(2/n) cos(pi k (2j + 1) / 2n), and sqrt(1/n)
    for k = 0.  The argument k (2j + 1) is reduced mod 4n, so every entry
    is the cosine of one of 4n angles in [0, 2 pi); it stays below 2 n^2,
    and in int32 the reduction takes a third of the int64 time."""
    k = np.arange(n - 1, -1, -1, dtype=np.int32)
    turns = np.multiply.outer(k, np.arange(1, 2 * n, 2, dtype=np.int32)) % (4 * n)
    basis = np.cos(np.pi / (2 * n) * np.arange(4 * n))[turns]
    basis[:-1] *= math.sqrt(2.0 / n)
    basis[-1] = math.sqrt(1.0 / n)
    return basis


class KrylovError(RuntimeError):
    """A Krylov solve broke down or did not converge."""


def krylov(apply, b, precondition, rtol):
    """Solve apply(x) = b by BiCGSTAB (van der Vorst 1992) from x = 0,
    right-preconditioned: it iterates on apply(precondition(y)) = b and
    returns x = precondition(y), so its recursive residual is that of
    apply(x) = b itself.

    Stops when the 2-norm of that residual is at most rtol ||b|| and
    returns (x, applies), counting the applies of apply.  A breakdown, or no
    convergence in 5000 iterations, raises KrylovError.
    """
    x = np.zeros_like(b)
    tol = rtol * math.sqrt(np.vdot(b, b))
    if tol == 0.0:
        return x, 0
    r = b.copy()
    r_hat = b
    p = np.zeros_like(b)
    v = np.zeros_like(b)
    rho = alpha = omega = 1.0
    for k in range(_KRYLOV_MAX_ITER):
        rho_next = np.vdot(r_hat, r)
        p = r + (rho_next / rho) * (alpha / omega) * (p - omega * v)
        y = precondition(p)
        v = apply(y)
        r_hat_v = np.vdot(r_hat, v)
        if rho_next == 0.0 or r_hat_v == 0.0:
            raise KrylovError(f"Krylov solve broke down at iteration {k}")
        alpha = rho_next / r_hat_v
        s = r - alpha * v
        if math.sqrt(np.vdot(s, s)) <= tol:  # also the exact case s = 0
            return x + alpha * y, 2 * k + 1
        z = precondition(s)
        t = apply(z)
        omega = np.vdot(t, s) / np.vdot(t, t)
        x = x + alpha * y + omega * z
        r = s - omega * t
        if math.sqrt(np.vdot(r, r)) <= tol:
            return x, 2 * k + 2
        if omega == 0.0:
            raise KrylovError(f"Krylov solve broke down at iteration {k}")
        rho = rho_next
    raise KrylovError(f"Krylov solve stalled after {_KRYLOV_MAX_ITER} iterations")


def wrap_index(offsets, shape):
    """Flat indices of x + z_j on the periodic grid of the given shape, one
    row per offset z_j: row j of u.ravel()[index] holds u(x + z_j) for
    every x in C order.  Coinciding wrapped offsets give equal rows."""
    grid = np.indices(shape).reshape(len(shape), 1, -1)
    shifted = grid + np.asarray(offsets, dtype=int).reshape(-1, len(shape)).T[:, :, None]
    return np.ravel_multi_index(tuple(shifted), shape, mode="wrap")


def _shared_differences(terms):
    """(slot, first) for each term (offset, weight) of a stencil: the
    terms of z and -z with equal weights share one slot, whose difference
    the earlier one takes (first True) and the later one negates; a term
    without such a mirror is (None, True).  Each term pairs with the
    earliest free mirror after it."""
    roles, waiting, slot = [(None, True)] * len(terms), {}, 0
    for j, (off, w) in enumerate(terms):
        earlier = waiting.get((off, w))
        if earlier:
            roles[earlier.pop(0)], roles[j] = (slot, True), (slot, False)
            slot += 1
        else:
            waiting.setdefault((tuple(-o for o in off), w), []).append(j)
    return roles


def _flat_overlap(off, shape):
    """The in-domain overlap of an integer offset z on a C-order grid of
    the given shape as one contiguous range of the flat grid: (dst, src,
    bad), with dst the slice from the overlap's first point to its last,
    src the same slice shifted by the flat offset of z, and bad the
    positions of dst, counted from its start, whose multi-index lies
    outside the overlap (|z_col| between each two of its rows on a 2-D
    grid), or None where there are none, as on a grid of one row.  None
    for an empty overlap (clamp semantics: out-of-domain terms contribute
    0)."""
    box = tuple(slice(max(0, -z), n - max(0, z)) for z, n in zip(off, shape))
    if any(b.stop <= b.start for b in box):
        return None
    first = [b.start for b in box]
    start = int(np.ravel_multi_index(first, shape))
    stop = int(np.ravel_multi_index([b.stop - 1 for b in box], shape)) + 1
    shift = int(np.ravel_multi_index([p + z for p, z in zip(first, off)], shape)) - start
    inside = np.zeros(shape, dtype=bool)
    inside[box] = True
    bad = np.flatnonzero(~inside.ravel()[start:stop])
    return slice(start, stop), slice(start + shift, stop + shift), bad if bad.size else None

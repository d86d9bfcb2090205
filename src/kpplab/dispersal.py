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
mass; under periodic boundaries indices wrap.

_Stencil.twist gives the factors f_j = exp(-mu z_j.xi) of the operator
twisted by exp(-mu x.xi), or for the random stencil the first-order factors
1 - mu z_j.xi (its centred drift) plus mu^2 on the diagonal.  The periodic
cell operators of eigen and the constant-coefficient closed forms (the
stencil's symbol) both read it.
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


@dataclass(frozen=True, eq=False)
class _Stencil:
    """Integer offsets (m, dim) with weights (m,) on a grid of the given
    spacing; renormalize divides each clamp row by its in-domain mass;
    first_order selects the random kind's first-order twist."""

    offsets: np.ndarray
    weights: np.ndarray
    spacing: float
    renormalize: bool = False
    first_order: bool = False

    @property
    def twist_limit(self) -> float:
        """Every twist factor is positive for |mu| below this bound."""
        return 1.0 / self.spacing if self.first_order else math.inf

    def twist(self, mu, xi):
        """Twist factors f_j, their excess f_j - 1 (offsets on the last
        axis) and the diagonal term, for a unit vector xi; vectorized in
        mu.  The first-order excess is -mu z.xi itself, so on a unit grid
        the drift terms of a symmetric stencil cancel exactly."""
        mu = np.asarray(mu, dtype=float)
        t = -np.multiply.outer(mu, (self.offsets * self.spacing) @ xi)
        if self.first_order:
            return 1.0 + t, t, mu * mu
        factors = np.exp(t)
        return factors, factors - 1.0, 0.0

    def symbol(self, mu, xi):
        """diag + sum_j w_j (f_j - 1): the twisted stencil on constants."""
        _, excess, diag = self.twist(mu, xi)
        return diag + excess @ self.weights


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

    @property
    def operator_mass(self) -> float:
        """Bound on the off-diagonal mass, used in explicit step-size bounds."""
        if self.kind == DISCRETE:
            return self.weights.rate_sum
        return 1.0  # normalized kernel mass; random adds its own h^2 bound

    def check_habitat(self, habitat: Habitat):
        if self.kind == DISCRETE and habitat.kind != LATTICE:
            raise ValueError("discrete dispersal requires a lattice habitat")
        if self.kind in (RANDOM, NONLOCAL) and habitat.kind != CONTINUUM:
            raise ValueError(f"{self.kind} dispersal requires a continuum habitat")
        if self.kind == NONLOCAL and abs(self.kernel.spacing - habitat.spacing) > 1e-12:
            raise ValueError("kernel sampling spacing must match the habitat spacing")
        if self.kind == DISCRETE and self.weights.dim != habitat.dim:
            raise ValueError("lattice weights dimension mismatch")

    def _stencil(self, dim: int, spacing: float) -> _Stencil:
        """The stencil of this operator on a grid of the given dimension
        and spacing (the payload fixes both for nonlocal and discrete)."""
        if self.kind == RANDOM:
            offsets = _unit_offsets(dim)
            return _Stencil(offsets, np.full(len(offsets), 1.0 / spacing ** 2), spacing,
                            first_order=True)
        if self.kind == NONLOCAL:
            k = self.kernel
            return _Stencil(k.offsets, k.weights * k.spacing ** k.dim, k.spacing,
                            renormalize=True)
        return _Stencil(self.weights.offsets, self.weights.values, 1.0)

    # ---- raw-array action -------------------------------------------------

    def bind(self, habitat: Habitat):
        """Return the action as a fast array -> array closure."""
        self.check_habitat(habitat)
        st = self._stencil(habitat.dim, habitat.spacing)
        # the centre offset contributes w_0 (u(x) - u(x)) = 0
        terms = [(tuple(off), w) for off, w in zip(st.offsets, st.weights) if any(off)]

        if habitat.boundary == PERIODIC:
            axes = tuple(range(habitat.dim))
            shifts = [([-o for o in off], w) for off, w in terms]

            def action_wrap(u):
                acc = np.zeros_like(u)
                for shift, w in shifts:
                    acc += w * (np.roll(u, shift, axis=axes) - u)
                return acc

            return action_wrap

        slices = [(*_difference_slices(off, habitat.shape), w) for off, w in terms]
        row_mass = None
        if st.renormalize:
            row_mass = np.zeros(habitat.shape)
            for off, w in zip(st.offsets, st.weights):
                row_mass[_difference_slices(off, habitat.shape)[0]] += w

        def action_clamp(u):
            acc = np.zeros_like(u)
            for dst, src, w in slices:
                acc[dst] += w * (u[src] - u[dst])
            return acc if row_mass is None else acc / row_mass

        return action_clamp

    # ---- public Field interface -------------------------------------------

    def apply(self, u: Field) -> Field:
        return Field(u.habitat, self.bind(u.habitat)(u.values))


def _difference_slices(off, shape):
    """Destination/source index slices for the in-domain overlap of an
    integer offset (clamp semantics: out-of-domain terms contribute 0)."""
    dst, src = [], []
    for o, n in zip(off, shape):
        lo, hi = max(0, -o), n - max(0, o)
        dst.append(slice(lo, hi))
        src.append(slice(lo + o, hi + o))
    return tuple(dst), tuple(src)

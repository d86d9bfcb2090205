"""Habitats, population fields, growth laws and dispersal kernels.

Models live on a truncated box [-L, L]^dim, discretized either as a
continuum grid with spacing h or as the integer lattice (h = 1).  The
growth law is an affine KPP nonlinearity f(x, u) = f0(u) + A*bump(x)
whose spatial perturbation is a compactly supported mollifier bump, so
f(x, u) agrees with the homogeneous f0(u) *exactly* outside the
perturbation radius (H2), and the constructor refuses a law that is not
negative above beta0 (H1).  Everything here is an immutable value object;
arrays are frozen after construction so instances can be shared freely.
A Field, Kernel or LatticeWeights unpickles through its constructor, so a
copy sent to a worker process is validated and frozen again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

CONTINUUM = "continuum"
LATTICE = "lattice"
CLAMP = "clamp"
PERIODIC = "periodic"

class DomainSizeError(ValueError):
    """Requested structure does not fit inside the truncated habitat."""


def _frozen(values, dtype=float):
    a = np.array(values, dtype=dtype)
    a.setflags(write=False)
    return a


def unit_direction(xi, dim):
    """Normalize xi to a unit vector of length dim (scalars allowed in 1-D)."""
    v = np.atleast_1d(np.asarray(xi, dtype=float))
    if v.shape != (dim,):
        raise ValueError(f"direction has shape {v.shape}, expected ({dim},)")
    n = float(np.linalg.norm(v))
    if n == 0.0 or not np.isfinite(n):
        raise ValueError("direction must be a nonzero finite vector")
    return _frozen(v / n)


def sampled_directions(dim, count):
    """The two signs in 1-D, count uniform angles in 2-D."""
    if dim == 1:
        return [np.array([1.0]), np.array([-1.0])]
    angles = np.arange(count) * (2.0 * np.pi / count)
    return [np.array([math.cos(t), math.sin(t)]) for t in angles]


@dataclass(frozen=True)
class Habitat:
    """Truncated computational domain standing in for R^N or Z^N.

    kind        "continuum" or "lattice"
    dim         1 or 2
    half_extent L, the box is [-L, L] per axis
    spacing     grid step h (forced to 1 on the lattice)
    boundary    "clamp" (ghost cells copy the nearest interior value,
                kernel rows renormalized over in-domain points) or
                "periodic"
    """

    kind: str
    dim: int
    half_extent: float
    spacing: float = 1.0
    boundary: str = CLAMP

    def __post_init__(self):
        if self.kind not in (CONTINUUM, LATTICE):
            raise ValueError(f"unknown habitat kind {self.kind!r}")
        if self.boundary not in (CLAMP, PERIODIC):
            raise ValueError(f"unknown boundary {self.boundary!r}")
        if self.dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        if not (self.half_extent > 0 and self.spacing > 0):
            raise ValueError("half_extent and spacing must be positive")
        if self.kind == LATTICE:
            if self.spacing != 1.0:
                raise ValueError("lattice habitats have spacing 1")
            if abs(self.half_extent - round(self.half_extent)) > 1e-12:
                raise ValueError("lattice half_extent must be an integer")
        ratio = self.half_extent / self.spacing
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("half_extent must be an integer multiple of spacing")
        if self.n_per_axis < 3:
            raise ValueError("need at least 3 grid points per axis")

    @property
    def half_points(self) -> int:
        return int(round(self.half_extent / self.spacing))

    @property
    def n_per_axis(self) -> int:
        return 2 * self.half_points + 1

    @property
    def shape(self):
        return (self.n_per_axis,) * self.dim

    @property
    def n_points(self) -> int:
        return self.n_per_axis ** self.dim

    def axis_coords(self):
        m = self.half_points
        return np.arange(-m, m + 1, dtype=float) * self.spacing

    def grid(self):
        """Coordinate arrays, one dense array of self.shape per axis."""
        c = self.axis_coords()
        if self.dim == 1:
            return (c,)
        return tuple(np.meshgrid(c, c, indexing="ij"))

    def radius(self):
        g = self.grid()
        if self.dim == 1:
            return np.abs(g[0])
        return np.sqrt(g[0] ** 2 + g[1] ** 2)

    def projection(self, xi):
        """x . xi over the grid, for a unit direction xi."""
        v = unit_direction(xi, self.dim)
        g = self.grid()
        out = v[0] * g[0]
        for d in range(1, self.dim):
            out = out + v[d] * g[d]
        return out

    def zeros(self) -> "Field":
        return Field(self, np.zeros(self.shape))

    def full(self, value: float) -> "Field":
        return Field(self, np.full(self.shape, float(value)))


@dataclass(eq=False)
class Field:
    """Real values on a habitat grid, frozen after construction."""

    habitat: Habitat
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.shape != self.habitat.shape:
            raise ValueError(f"values shape {v.shape} != habitat shape {self.habitat.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __reduce__(self):  # unpickle by the constructor: checked and frozen again
        return Field, (self.habitat, self.values)

    @property
    def min(self) -> float:
        return float(self.values.min())

    @property
    def max(self) -> float:
        return float(self.values.max())

    def is_nonnegative(self) -> bool:
        return bool(self.values.min() >= 0.0)

    def is_strictly_positive(self) -> bool:
        """Membership test for the positive cone interior (min value > 0)."""
        return bool(self.values.min() > 0.0)


def mollifier_bump(s):
    """Smooth compactly supported bump: exp(1 - 1/(1 - s^2)) for |s| < 1, else 0.

    Exactly zero (not merely small) outside the unit ball, which is what
    makes the localized-inhomogeneity hypothesis checkable in exact
    arithmetic.
    """
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    t = s[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - t * t))
    return out


@dataclass(frozen=True)
class Reaction:
    """Growth law f(x, u) = r0 + A*bump(|x|/L0) - slope*u.

    Both documented base families are affine in u and share this single
    canonical form: the linear family r0 - b*u has slope = b, the
    logistic family r0*(1 - u/K) has slope = r0/K.  The perturbation is
    u-independent, so the construction states the KPP hypotheses:

    H1  d_u f = -slope < 0 everywhere, and f(x, beta0) < 0 because
        bump <= 1 (checked in floating point at construction);
    H2  f(x, u) = f0(u) exactly for |x| >= L0, where the bump is 0.

    The positive equilibrium of f0 is u0_star = r0 / slope.
    """

    r0: float
    slope: float
    amplitude: float = 0.0
    radius: float = 1.0

    def __post_init__(self):
        if not (self.r0 > 0):
            raise ValueError("r0 = f0(0) must be positive")
        if not (self.slope > 0):
            raise ValueError("slope must be positive (f must be decreasing in u)")
        if not (self.radius > 0):
            raise ValueError("perturbation radius must be positive")
        for x in (self.r0, self.slope, self.amplitude, self.radius):
            if not math.isfinite(x):
                raise ValueError("reaction parameters must be finite")
        f_beta0 = self.r0 + max(self.amplitude, 0.0) - self.slope * self.beta0
        if not (f_beta0 < 0.0 and math.isfinite(self.beta0)):
            raise ValueError(
                f"f(x, beta0) = {f_beta0:.3g} is not negative at beta0 = {self.beta0:.17g} "
                "(H1 fails in floating point; reduce r0 / slope or amplitude / r0)"
            )

    @classmethod
    def linear(cls, r0, b, amplitude=0.0, radius=1.0):
        return cls(float(r0), float(b), float(amplitude), float(radius))

    @classmethod
    def logistic(cls, r0, carrying_capacity, amplitude=0.0, radius=1.0):
        r0 = float(r0)
        return cls(r0, r0 / float(carrying_capacity), float(amplitude), float(radius))

    def f0(self, u):
        """Homogeneous base growth rate f0(u)."""
        return self.r0 - self.slope * np.asarray(u, dtype=float)

    @property
    def u0_star(self) -> float:
        """The positive root of f0, exact up to one rounding."""
        return self.r0 / self.slope

    @property
    def beta0(self) -> float:
        """A level above which f(x, u) < 0 strictly, for every x: the root
        of the largest f(x, .) plus a margin of 1e-6 u0*."""
        return (self.r0 + max(self.amplitude, 0.0)) / self.slope + 1e-6 * self.u0_star

    def ceiling(self, height: float) -> float:
        """The invariant-region bound M = max(height, beta0) + u0* of a flow
        from data of the given max height; the one statement of M."""
        return max(height, self.beta0) + self.u0_star

    def perturbation(self, habitat: Habitat):
        """A * bump(|x|/L0) sampled on the habitat grid (exact zeros outside L0)."""
        if self.amplitude == 0.0:
            return np.zeros(habitat.shape)
        return self.amplitude * mollifier_bump(habitat.radius() / self.radius)

    def bind(self, habitat: Habitat):
        """Vectorized u -> f(x, u) on the habitat grid."""
        base = self.r0 + self.perturbation(habitat)
        slope = self.slope

        def growth(u):
            return base - slope * u

        return growth

    def evaluate(self, habitat: Habitat, u):
        return self.bind(habitat)(np.asarray(u, dtype=float))


def make_front_initial(habitat: Habitat, xi, sigma0: float) -> Field:
    """Front-like initial data: sigma0 behind the origin (x.xi <= 0),
    linear ramp to zero on 0 <= x.xi <= 1, zero ahead."""
    if not (sigma0 > 0):
        raise ValueError("sigma0 must be positive")
    proj = habitat.projection(xi)
    return Field(habitat, sigma0 * np.clip(1.0 - proj, 0.0, 1.0))


def check_support_radius(r: float, habitat: Habitat):
    """The compact data's rule on its support radius: DomainSizeError
    unless 0 < r and the ramp to zero at r + 1 ends inside the habitat."""
    if not (0.0 < r and r + 1.0 < habitat.half_extent):
        raise DomainSizeError(f"support radius {r} must be positive with r + 1 below "
                              f"half_extent = {habitat.half_extent}")


def make_compact_initial(habitat: Habitat, r: float, sigma: float) -> Field:
    """Radial plateau: sigma on |x| <= r, continuous ramp to zero at r + 1."""
    check_support_radius(r, habitat)
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    return Field(habitat, sigma * np.clip(r + 1.0 - habitat.radius(), 0.0, 1.0))


def _profile_uniform(rho, d0):
    return np.where(rho < d0, 1.0, 0.0)


def _profile_triangle(rho, d0):
    return np.maximum(0.0, 1.0 - rho / d0)


def _profile_mollifier(rho, d0):
    return mollifier_bump(rho / d0)


_PROFILES = {
    "uniform": _profile_uniform,
    "triangle": _profile_triangle,
    "mollifier": _profile_mollifier,
}


@dataclass(eq=False)
class Kernel:
    """Compactly supported convolution kernel, discretized on a grid.

    offsets are integer index offsets (m, dim); weights are the sampled
    profile values renormalized so that sum(weights) * spacing^dim == 1
    exactly (up to roundoff), which in turn makes constants exactly
    dispersal-neutral.
    """

    delta0: float
    dim: int
    spacing: float
    offsets: np.ndarray
    weights: np.ndarray
    profile: str  # the name of the profile, which resample samples again

    def __post_init__(self):
        self.offsets = _frozen(self.offsets, dtype=int)
        self.weights = _frozen(self.weights)

    def __reduce__(self):  # unpickle by the constructor: frozen again
        return Kernel, (self.delta0, self.dim, self.spacing, self.offsets, self.weights,
                        self.profile)

    @classmethod
    def from_profile(cls, profile: str, delta0, spacing, dim):
        try:
            fn = _PROFILES[profile]
        except KeyError:
            raise ValueError(f"unknown kernel profile {profile!r}") from None
        if not (delta0 > 0 and spacing > 0):
            raise ValueError("delta0 and spacing must be positive")
        half = int(math.ceil(delta0 / spacing))
        axes = [np.arange(-half, half + 1)] * dim
        mesh = np.meshgrid(*axes, indexing="ij")
        offsets = np.stack([m.ravel() for m in mesh], axis=-1)
        z = offsets * spacing
        rho = np.sqrt(np.sum(z * z, axis=-1))
        vals = np.asarray(fn(rho, delta0), dtype=float)
        vals = np.where(rho >= delta0, 0.0, vals)
        if np.any(vals < 0):
            raise ValueError("kernel profile must be nonnegative")
        keep = vals > 0.0
        offsets, vals = offsets[keep], vals[keep]
        if len(vals) < 2:
            raise ValueError("kernel support contains no grid neighbor; decrease spacing")
        vals = vals / (vals.sum() * spacing ** dim)
        k = cls(
            delta0=float(delta0),
            dim=dim,
            spacing=float(spacing),
            offsets=offsets,
            weights=vals,
            profile=profile,
        )
        assert abs(k.mass - 1.0) <= 1e-15 * len(vals)
        return k

    @property
    def mass(self) -> float:
        return float(self.weights.sum() * self.spacing ** self.dim)

    @property
    def half_width(self) -> int:
        return int(np.max(np.abs(self.offsets)))

    def displacements(self):
        return self.offsets * self.spacing

    def resample(self, spacing) -> "Kernel":
        return Kernel.from_profile(self.profile, self.delta0, spacing, self.dim)

    def halfspace_mass(self, xi) -> float:
        """Quadrature of kappa over {z . xi <= 0}; the dividing plane
        counts with half weight so symmetric kernels give exactly 1/2."""
        v = unit_direction(xi, self.dim)
        zdot = self.displacements() @ v
        w = self.weights * self.spacing ** self.dim
        side = np.where(zdot < 0, 1.0, np.where(zdot == 0.0, 0.5, 0.0))
        return float(np.sum(w * side))


@dataclass(eq=False)
class LatticeWeights:
    """Positive exchange rates a_k on the 2*dim unit offsets of Z^dim."""

    dim: int
    offsets: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        offsets = np.array(self.offsets, dtype=int)
        values = np.array(self.values, dtype=float)
        expected = {tuple(v) for v in _unit_offsets(self.dim)}
        got = {tuple(o) for o in offsets}
        if got != expected:
            raise ValueError(f"offsets must be exactly the {2 * self.dim} unit vectors")
        if len(offsets) != 2 * self.dim:
            raise ValueError("duplicate offsets")
        if not np.all(values > 0):
            raise ValueError("all rates a_k must be positive")
        object.__setattr__(self, "offsets", _frozen(offsets, dtype=int))
        object.__setattr__(self, "values", _frozen(values))

    def __reduce__(self):  # unpickle by the constructor: checked and frozen again
        return LatticeWeights, (self.dim, self.offsets, self.values)

    @classmethod
    def symmetric(cls, dim, a=1.0):
        offs = _unit_offsets(dim)
        return cls(dim, offs, np.full(len(offs), float(a)))

    @classmethod
    def from_rates(cls, rates: dict):
        offs = sorted(rates.keys())
        dim = len(offs[0])
        return cls(dim, np.array(offs), np.array([rates[o] for o in offs]))

    @property
    def rate_sum(self) -> float:
        return float(self.values.sum())


def _unit_offsets(dim):
    offs = []
    for d in range(dim):
        for s in (1, -1):
            e = [0] * dim
            e[d] = s
            offs.append(tuple(e))
    return np.array(offs, dtype=int)

"""Time integration of u_t = (dispersal)u + u f(x, u) and the order
structure that KPP flows preserve: comparison of ordered solutions,
the part metric on strictly positive states, and exponential-envelope
super-solution checks.

Classical fourth-order Runge-Kutta (rk4) only.  Step sizes are refused
up front when they violate the documented stability bound, negatives
produced by roundoff are clipped to zero with systematic negativity
counted, and divergence is reported with the first bad time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dispersal import RANDOM, DispersalOperator
from .domain import Field, Habitat, Reaction, unit_direction

RK4 = "rk4"

_CLIP_NOISE = 1e-14  # negatives beyond this magnitude count as systematic
_STABILITY_SAFETY = 0.2
_COMPARISON_TOL = 5e-10


class StabilityError(ValueError):
    """Requested dt violates the explicit stability bound."""


class IntegrationDivergedError(RuntimeError):
    """Solution left the comparison bound or turned non-finite."""


@dataclass(eq=False)
class Trajectory:
    """Recorded evolution: strictly increasing times and one snapshot each."""

    habitat: Habitat
    times: np.ndarray
    snapshots: list
    clip_count: int = 0

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("trajectory times must be strictly increasing")

    @property
    def initial(self) -> Field:
        return self.snapshots[0]

    @property
    def final(self) -> Field:
        return self.snapshots[-1]


def stability_dt_bound(op: DispersalOperator, reaction: Reaction, u0: Field) -> float:
    """Largest admissible dt for explicit stepping.

    every kind:  dt <= 0.25 / (mass + max|f| + 1), a bounded-operator bound
                 with mass = sum of a_k (discrete) or 1 (nonlocal, random)
    random:      also dt <= h^2 / (2 dim (1 + safety)), the Laplacian's bound

    max|f| is evaluated at u in {0, M} with M = max(max u0, beta0) + 1;
    f is monotone in u so the endpoints dominate.
    """
    h = u0.habitat
    m_bound = max(u0.max, reaction.beta0) + 1.0
    f_lo = reaction.evaluate(h, np.full(h.shape, m_bound))
    f_hi = reaction.evaluate(h, np.zeros(h.shape))
    max_f = max(float(np.abs(f_lo).max()), float(np.abs(f_hi).max()))
    bound = 0.25 / (op.operator_mass + max_f + 1.0)
    if op.kind == RANDOM:
        bound = min(bound, h.spacing ** 2 / (2.0 * h.dim * (1.0 + _STABILITY_SAFETY)))
    return bound


def step_size(op: DispersalOperator, reaction: Reaction, u0: Field, dt: float = None) -> float:
    """The given dt, else 0.95 times the stability bound for u0."""
    return dt if dt is not None else 0.95 * stability_dt_bound(op, reaction, u0)


def evolve(
    op: DispersalOperator,
    reaction: Reaction,
    u0: Field,
    T: float,
    dt: float,
    record_every: int = 1,
) -> Trajectory:
    """Integrate by rk4 to final time >= T, recording every record_every
    (at least 1) steps and the last.

    u0 must be nonnegative.  All snapshots are nonnegative (roundoff
    negatives are zeroed; clip_count counts values below -1e-14) and
    bounded by max(max u0, beta0) + 1, the invariant-region bound; any
    excursion past it or a non-finite value aborts with the first bad
    time.
    """
    if not u0.is_nonnegative():
        raise ValueError("initial data must be nonnegative")
    if not (T > 0 and dt > 0):
        raise ValueError("T and dt must be positive")
    if record_every < 1:
        raise ValueError(f"record_every must be at least 1, got {record_every}")
    habitat = u0.habitat
    bound = stability_dt_bound(op, reaction, u0)
    if dt > bound * (1.0 + 1e-12):
        raise StabilityError(
            f"dt={dt} violates the stability bound {bound:.6g} for kind={op.kind}"
        )

    disp = op.bind(habitat)
    growth = reaction.bind(habitat)

    def rhs(u):
        return disp(u) + u * growth(u)

    m_bound = max(u0.max, reaction.beta0) + 1.0
    n_steps = int(math.ceil(T / dt - 1e-12))

    # Allocate and free one untouched 16 MiB block.  Under glibc, freeing a
    # mapped block raises the dynamic mmap threshold to its size, so the
    # stage temporaries below (341 KiB each on a 209 x 209 grid) are then
    # reused from the heap instead of being mapped and page-faulted afresh
    # on every step (about 2,300 minor faults and twice the time per step
    # on that grid).
    np.empty(1 << 21)

    u = u0.values.copy()
    times = [0.0]
    snapshots = [u0]
    clip_count = 0

    for step in range(1, n_steps + 1):
        k1 = rhs(u)
        k2 = rhs(u + (0.5 * dt) * k1)
        k3 = rhs(u + (0.5 * dt) * k2)
        k4 = rhs(u + dt * k3)
        u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = step * dt

        umin = u.min()
        if umin < 0.0:
            clip_count += int(np.count_nonzero(u < -_CLIP_NOISE))
            u = np.maximum(u, 0.0)
        umax = u.max()
        if not np.isfinite(umax) or umax > m_bound:
            raise IntegrationDivergedError(
                f"integration diverged at t={t:.6g} (max={umax!r}, bound={m_bound:.6g})"
            )

        if step % record_every == 0 or step == n_steps:
            times.append(t)
            snapshots.append(Field(habitat, u))

    return Trajectory(
        habitat=habitat,
        times=np.asarray(times),
        snapshots=snapshots,
        clip_count=clip_count,
    )


@dataclass(frozen=True)
class ComparisonReport:
    ok: bool
    violation: float
    worst_time: float
    tolerance: float


def check_comparison(traj1: Trajectory, traj2: Trajectory) -> ComparisonReport:
    """Ordered initial data should stay ordered: reports the largest
    positive part of u1 - u2 over all recorded times (passes up to 5e-10)."""
    if traj1.habitat != traj2.habitat:
        raise ValueError("trajectories live on different habitats")
    if traj1.times.shape != traj2.times.shape or not np.allclose(
        traj1.times, traj2.times, rtol=0.0, atol=1e-12
    ):
        raise ValueError("trajectories have mismatched recording times")
    if np.any(traj1.initial.values > traj2.initial.values):
        raise ValueError("precondition violated: traj1 initial data exceeds traj2")
    violation = 0.0
    worst_time = 0.0
    for t, s1, s2 in zip(traj1.times, traj1.snapshots, traj2.snapshots):
        v = float(np.max(s1.values - s2.values))
        if v > violation:
            violation, worst_time = v, float(t)
    violation = max(violation, 0.0)
    return ComparisonReport(violation <= _COMPARISON_TOL, violation, worst_time, _COMPARISON_TOL)


def part_metric(u: Field, v: Field) -> float:
    """rho(u, v) = max |ln u - ln v| = inf{ln a : u/a <= v <= a u} on
    strictly positive fields."""
    if not (u.is_strictly_positive() and v.is_strictly_positive()):
        raise ValueError("part metric requires strictly positive fields")
    return float(np.max(np.abs(np.log(u.values) - np.log(v.values))))


@dataclass(frozen=True)
class PartMetricReport:
    ok: bool
    rhos: np.ndarray
    times: np.ndarray
    violations: tuple
    slack: float


def check_part_metric_decay(
    op: DispersalOperator,
    reaction: Reaction,
    u0: Field,
    v0: Field,
    T: float,
    dt: float,
    record_every: int = 1,
    slack: float = 1e-8,
) -> PartMetricReport:
    """The part metric between two strictly positive solutions must be
    non-increasing along the flow (up to a per-step roundoff slack)."""
    if not (u0.is_strictly_positive() and v0.is_strictly_positive()):
        raise ValueError("initial data must be strictly positive")
    tu = evolve(op, reaction, u0, T, dt, record_every)
    tv = evolve(op, reaction, v0, T, dt, record_every)
    rhos = np.array([part_metric(a, b) for a, b in zip(tu.snapshots, tv.snapshots)])
    bad = []
    for k in range(1, len(rhos)):
        if rhos[k] > rhos[k - 1] + slack:
            bad.append((float(tu.times[k]), float(rhos[k] - rhos[k - 1])))
    return PartMetricReport(not bad, rhos, tu.times, tuple(bad), slack)


@dataclass(frozen=True)
class EnvelopeReport:
    ok: bool
    violation: float
    worst_time: float
    tolerance: float


def check_exponential_supersolution(
    traj: Trajectory, d: float, mu: float, c: float, xi
) -> EnvelopeReport:
    """Check u(t, x) <= d exp(-mu (x.xi - c t)) along a trajectory.

    The initial data must already sit below the envelope; that is an
    input error, not a dynamics failure.  Passes when the worst excess
    is at most 1e-8 * d.
    """
    proj = traj.habitat.projection(unit_direction(xi, traj.habitat.dim))
    env0 = d * np.exp(np.minimum(-mu * proj, 60.0))
    if np.any(traj.initial.values > env0):
        raise ValueError("input error: initial data exceeds the envelope d exp(-mu x.xi)")
    violation = -np.inf
    worst_time = 0.0
    for t, snap in zip(traj.times, traj.snapshots):
        # cap the exponent: e^60 dwarfs any admissible u, avoids overflow
        env = d * np.exp(np.minimum(-mu * (proj - c * t), 60.0))
        v = float(np.max(snap.values - env))
        if v > violation:
            violation, worst_time = v, float(t)
    tol = 1e-8 * d
    return EnvelopeReport(violation <= tol, violation, worst_time, tol)

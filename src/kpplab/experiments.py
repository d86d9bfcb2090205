"""End-to-end spreading experiments, the pipelines behind the CLI.
run_front is the one front run of front_speed and of each sweep cell.

Front positions are tracked as the farthest level crossing along a
direction, empirical speeds come from a least-squares slope over a
burn-in-trimmed window that stays clear of the boundary, and the
spreading predictions are checked over the last quarter of the recorded
times: the state must hug the stationary profile inside the slower cone
and vanish outside the faster one.  Negative controls (deliberately
wrong theoretical speeds) are expected to fail and the test suite
asserts that they do.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .dispersal import DispersalOperator
from .domain import (
    Field,
    Habitat,
    Reaction,
    check_kpp_hypotheses,
    make_front_initial,
    sampled_directions,
    unit_direction,
)
from .dynamics import RK4, Trajectory, evolve, step_size
from .speeds import SpeedResult, theoretical_speed
from .stationary import FROM_ABOVE, solve_stationary

# speed gates: empirical speed vs theory, and a sweep's pairwise spread
THEORY_TOL = 0.05
PAIRWISE_TOL = 0.02


class ConeEmptyError(RuntimeError):
    """A verification cone contains no grid points (domain/time mismatch)."""


@dataclass(eq=False)
class FrontTrace:
    """Front position per recorded time at a fixed level and direction."""

    habitat: Habitat
    times: np.ndarray
    positions: np.ndarray
    level: float
    xi: np.ndarray


@dataclass(eq=False)
class SpeedEstimate:
    slope: float
    intercept: float
    window: tuple
    rms_residual: float
    n_samples: int
    theoretical: float = None
    rel_error: float = None

    def with_theory(self, c_theory: float) -> "SpeedEstimate":
        return dataclasses.replace(
            self,
            theoretical=c_theory,
            rel_error=abs(self.slope - c_theory) / abs(c_theory),
        )


def _front_position_1d(proj_sorted, u_sorted, level):
    hit = np.nonzero(u_sorted >= level)[0]
    if len(hit) == 0:
        return math.nan
    i = int(hit[-1])
    if i == len(u_sorted) - 1:
        return float(proj_sorted[i])
    u0, u1 = u_sorted[i], u_sorted[i + 1]
    if u0 == u1:
        return float(proj_sorted[i])
    frac = (u0 - level) / (u0 - u1)
    return float(proj_sorted[i] + frac * (proj_sorted[i + 1] - proj_sorted[i]))


def track_front(traj: Trajectory, xi, level: float) -> FrontTrace:
    """Farthest point along xi where u >= level, per recorded time.

    Linear interpolation between the straddling grid points (along the
    axis for axis-aligned directions); NaN encodes an empty level set.
    2-D tracking for non-axis directions falls back to the raw grid
    maximum of x.xi, accurate to one spacing.
    """
    habitat = traj.habitat
    v = unit_direction(xi, habitat.dim)
    if not (level > 0.0):
        raise ValueError("level must be positive")
    if level >= 0.9 * traj.initial.max:
        raise ValueError("level must stay below 0.9 * max of the initial data")

    axis = None
    if habitat.dim == 1:
        axis = 0
    else:
        for d in range(habitat.dim):
            if abs(abs(v[d]) - 1.0) < 1e-12:
                axis = d
                break

    positions = np.empty(len(traj.times))
    if axis is not None:
        sign = float(np.sign(v[axis]))
        proj = habitat.axis_coords() * sign
        order = np.argsort(proj)
        proj_sorted = proj[order]
        for k, snap in enumerate(traj.snapshots):
            u = snap.values
            if habitat.dim == 2:
                u = u.max(axis=1 - axis)
            positions[k] = _front_position_1d(proj_sorted, u[order], level)
    else:
        proj = habitat.projection(v).ravel()
        for k, snap in enumerate(traj.snapshots):
            mask = snap.values.ravel() >= level
            positions[k] = float(proj[mask].max()) if np.any(mask) else math.nan

    return FrontTrace(habitat, traj.times.copy(), positions, float(level), v)


def estimate_speed(
    trace: FrontTrace, burn_in_fraction: float = 0.5, exclusion: float = None
) -> SpeedEstimate:
    """Least-squares front speed over [burn_in * T, T_safe].

    T_safe cuts the window as soon as the front enters the boundary
    margin (default margin 10 spacings; pass delta0 + 10 h for kernels
    with reach).  Needs at least 10 clean samples.
    """
    if exclusion is None:
        exclusion = 10.0 * trace.habitat.spacing
    limit = trace.habitat.half_extent - exclusion
    t_end = float(trace.times[-1])
    t_burn = burn_in_fraction * t_end

    n = len(trace.times)
    t_safe_idx = n
    for k in range(n):
        p = trace.positions[k]
        if np.isfinite(p) and abs(p) > limit:
            t_safe_idx = k
            break
    if t_safe_idx < n and trace.times[t_safe_idx] <= t_burn:
        raise ValueError(
            f"front reached the boundary margin at t={trace.times[t_safe_idx]:.3g}, "
            "before the burn-in window ended"
        )

    sel = (trace.times >= t_burn) & (np.arange(n) < t_safe_idx)
    t = trace.times[sel]
    p = trace.positions[sel]
    if np.any(~np.isfinite(p)):
        raise ValueError("front position undefined (empty level set) inside the fit window")
    if len(t) < 10:
        raise ValueError(f"fit window too short: {len(t)} samples, need >= 10")
    slope, intercept = np.polyfit(t, p, 1)
    rms = float(np.sqrt(np.mean((p - (slope * t + intercept)) ** 2)))
    return SpeedEstimate(
        slope=float(slope),
        intercept=float(intercept),
        window=(float(t[0]), float(t[-1])),
        rms_residual=rms,
        n_samples=int(len(t)),
    )


def _record_every(T, dt, given=None):
    """The given record_every, else one that keeps about 240 snapshots."""
    return given if given is not None else max(1, int(math.ceil(T / dt / 240)))


def _trailing_window(traj: Trajectory):
    """(t, snapshot) pairs over the last quarter of the recorded times."""
    start = 0.75 * float(traj.times[-1])
    return [(t, snap) for t, snap in zip(traj.times, traj.snapshots) if t >= start]


@dataclass(eq=False)
class FrontRun:
    """Trajectory, front trace, speed fit and amplitude-0 theory of a run."""

    traj: Trajectory
    trace: FrontTrace
    estimate: SpeedEstimate
    theory: SpeedResult
    u0_star: float


def run_front(op: DispersalOperator, reaction: Reaction, habitat: Habitat, xi, T: float,
              dt: float = None, record_every: int = None, scheme: str = RK4,
              sigma0: float = 1.0, level_fraction: float = 0.5, burn_in: float = 0.5) -> FrontRun:
    """Evolve front data along xi, track level_fraction * u0* and fit the
    speed after burn_in * T, delta0 + 10 h clear of the boundary.

    Refuses a reaction that violates the KPP hypotheses or makes
    f(x, 0) <= 0 somewhere.
    """
    report = check_kpp_hypotheses(reaction, habitat)
    if not (report.h1_ok and report.h2_ok):
        raise ValueError(f"amplitude {reaction.amplitude} violates the KPP hypotheses")
    if not np.all(reaction.r0 + reaction.perturbation(habitat) > 0.0):
        raise ValueError(f"amplitude {reaction.amplitude} makes f(x, 0) nonpositive somewhere")

    u0 = make_front_initial(habitat, xi, sigma0)
    dt = step_size(op, reaction, u0, dt)
    traj = evolve(op, reaction, u0, T, dt, _record_every(T, dt, record_every), scheme)
    trace = track_front(traj, xi, level_fraction * report.u0_star)
    est = estimate_speed(trace, burn_in, exclusion=op.delta0 + 10.0 * habitat.spacing)
    theory = theoretical_speed(
        op.kind, dataclasses.replace(reaction, amplitude=0.0), xi,
        kernel=op.kernel, weights=op.weights,
    )
    return FrontRun(traj, trace, est.with_theory(theory.c_star), theory, report.u0_star)


@dataclass(frozen=True)
class ConesVerdict:
    ok: bool
    inside_ok: bool
    outside_ok: bool
    inside_min: float
    outside_max: float
    outside_empty: bool
    c_theory: float
    margin: float
    u0_star: float


def verify_spreading_cones(
    traj: Trajectory,
    xi,
    c_theory: float,
    u0_star: float,
    margin: float = 0.2,
) -> ConesVerdict:
    """Finite-horizon surrogate of the spreading-speed dichotomy.

    Over the final quarter of recorded times: inside the cone
    x.xi <= (1 - margin) c t the state must stay above 0.5 u0; outside
    x.xi >= (1 + margin) c t it must stay below 0.01 u0.  An empty
    inside cone is a setup error; an empty outside cone is reported and
    fails the verdict without raising, so deliberately wrong c values
    still produce a clean failure.
    """
    habitat = traj.habitat
    proj = habitat.projection(unit_direction(xi, habitat.dim))

    inside_min = math.inf
    outside_max = -math.inf
    outside_empty = False
    for t, snap in _trailing_window(traj):
        inside = proj <= (1.0 - margin) * c_theory * t
        if not np.any(inside):
            raise ConeEmptyError(f"inside cone empty at t={t:.3g}")
        inside_min = min(inside_min, float(snap.values[inside].min()))
        outside = proj >= (1.0 + margin) * c_theory * t
        if np.any(outside):
            outside_max = max(outside_max, float(snap.values[outside].max()))
        else:
            outside_empty = True
    inside_ok = inside_min >= 0.5 * u0_star
    outside_ok = (not outside_empty) and outside_max <= 0.01 * u0_star
    return ConesVerdict(
        ok=inside_ok and outside_ok,
        inside_ok=inside_ok,
        outside_ok=outside_ok,
        inside_min=inside_min,
        outside_max=outside_max,
        outside_empty=outside_empty,
        c_theory=c_theory,
        margin=margin,
        u0_star=u0_star,
    )


# ----------------------------------------------------------------------
# speed-invariance sweep: localized inhomogeneity must not move the speed
# ----------------------------------------------------------------------


@dataclass(eq=False)
class SweepSetup:
    op: DispersalOperator
    habitat: Habitat
    reaction0: Reaction  # the amplitude-0 base; cells override amplitude
    xi: object
    T: float
    amplitudes: tuple = (-0.5, 0.0, 0.5, 1.0)
    dt: float = None
    record_every: int = None
    sigma0: float = 1.0
    level_fraction: float = 0.5
    burn_in: float = 0.5
    check_profile_convergence: bool = False


@dataclass(eq=False)
class SweepRow:
    amplitude: float
    c_emp: float
    c_theory: float
    rel_error: float
    rms_residual: float
    window: tuple
    profile_deviation: float = None


@dataclass(eq=False)
class SweepReport:
    kind: str
    rows: tuple
    c_theory: float
    pairwise_spread: float
    ok_theory: bool
    ok_pairwise: bool
    ok: bool


def run_invariance_cell(setup: SweepSetup, amplitude: float) -> SweepRow:
    """One amplitude of the invariance sweep (kept top-level so batch
    runners can farm cells out to worker processes)."""
    reaction = dataclasses.replace(setup.reaction0, amplitude=float(amplitude))
    habitat = setup.habitat
    run = run_front(
        setup.op, reaction, habitat, setup.xi, setup.T, setup.dt, setup.record_every,
        sigma0=setup.sigma0, level_fraction=setup.level_fraction, burn_in=setup.burn_in,
    )
    est = run.estimate

    profile_dev = None
    if setup.check_profile_convergence:
        stat = solve_stationary(setup.op, reaction, habitat, route=FROM_ABOVE)
        proj = habitat.projection(unit_direction(setup.xi, habitat.dim))
        behind = proj <= 0.5 * run.theory.c_star * setup.T
        profile_dev = float(
            np.abs(run.traj.final.values[behind] - stat.u_star.values[behind]).max()
        )
    return SweepRow(
        amplitude=float(amplitude),
        c_emp=est.slope,
        c_theory=run.theory.c_star,
        rel_error=est.rel_error,
        rms_residual=est.rms_residual,
        window=est.window,
        profile_deviation=profile_dev,
    )


def run_speed_invariance_sweep(setup: SweepSetup, rows=None) -> SweepReport:
    """Empirical speeds across the amplitude sweep, with two gates:
    every speed within THEORY_TOL of the amplitude-0 theory, and all
    speeds pairwise within PAIRWISE_TOL (the discretization bias is shared,
    so the pairwise gate is the sharper one)."""
    if rows is None:
        rows = [run_invariance_cell(setup, a) for a in setup.amplitudes]
    rows = tuple(sorted(rows, key=lambda r: r.amplitude))
    c_theory = rows[0].c_theory
    speeds = np.array([r.c_emp for r in rows])
    spread = float((speeds.max() - speeds.min()) / speeds.mean())
    ok_theory = all(r.rel_error <= THEORY_TOL for r in rows)
    ok_pairwise = spread <= PAIRWISE_TOL
    return SweepReport(
        kind=setup.op.kind,
        rows=rows,
        c_theory=c_theory,
        pairwise_spread=spread,
        ok_theory=ok_theory,
        ok_pairwise=ok_pairwise,
        ok=ok_theory and ok_pairwise,
    )


# ----------------------------------------------------------------------
# compact-data spreading checks (expanding-region dichotomy, 4 clauses)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ClauseVerdict:
    ok: bool
    clause: int
    kind: str
    worst_value: float
    threshold: float
    c_used: float
    margin: float


def run_compact_spreading_checks(
    op: DispersalOperator,
    reaction: Reaction,
    habitat: Habitat,
    clause: int,
    T: float,
    xi=None,
    r: float = 3.0,
    sigma: float = 1.0,
    dt: float = None,
    margin: float = 0.2,
    u_star: Field = None,
    c_scale: float = 1.0,
) -> ClauseVerdict:
    """Expanding-region checks for compactly supported initial data.

    clause 1/2 use the slab |x.xi| <= r (vanish outside the fast cone /
    match the stationary profile inside the slow cone); clause 3/4 are
    the radial versions with the speed extremized over 8 sampled
    directions (2 in 1-D).  c_scale deliberately rescales the theoretical
    speed so the suite can assert that wrong speeds are caught.
    """
    if clause not in (1, 2, 3, 4):
        raise ValueError("clause must be 1..4")
    report = check_kpp_hypotheses(reaction, habitat)
    u0_star = report.u0_star

    if clause in (1, 2):
        if xi is None:
            xi = np.array([1.0] + [0.0] * (habitat.dim - 1))
        v = unit_direction(xi, habitat.dim)
        coord = np.abs(habitat.projection(v))
        dirs = [v, -v]
    else:
        coord = habitat.radius()
        dirs = sampled_directions(habitat.dim, 8)

    speeds = [
        theoretical_speed(op.kind, reaction, d, kernel=op.kernel, weights=op.weights).c_star
        for d in dirs
    ]
    c_max = max(speeds) * c_scale
    c_min = min(speeds) * c_scale

    if r + 1.0 >= habitat.half_extent:
        raise ValueError("support radius does not fit in the habitat")
    u0 = Field(habitat, sigma * np.clip(r + 1.0 - coord, 0.0, 1.0))

    dt = step_size(op, reaction, u0, dt)
    traj = evolve(op, reaction, u0, T, dt, record_every=_record_every(T, dt))

    if clause in (2, 4) and u_star is None:
        u_star = solve_stationary(op, reaction, habitat, route=FROM_ABOVE).u_star

    worst = -math.inf
    for t, snap in _trailing_window(traj):
        if clause in (1, 3):
            region = coord >= (1.0 + margin) * c_max * t
            if not np.any(region):
                raise ConeEmptyError(f"outer region empty at t={t:.3g}")
            worst = max(worst, float(snap.values[region].max()))
        else:
            region = coord <= (1.0 - margin) * c_min * t
            if not np.any(region):
                raise ConeEmptyError(f"inner region empty at t={t:.3g}")
            dev = np.abs(snap.values[region] - u_star.values[region])
            worst = max(worst, float(dev.max()))

    threshold = 0.01 * u0_star if clause in (1, 3) else 0.05 * u0_star
    return ClauseVerdict(
        ok=worst <= threshold,
        clause=clause,
        kind=op.kind,
        worst_value=worst,
        threshold=threshold,
        c_used=c_max if clause in (1, 3) else c_min,
        margin=margin,
    )

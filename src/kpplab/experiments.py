"""End-to-end spreading experiments, the pipelines behind the CLI.
run_front is the one front run of front_speed and of each sweep cell;
it and the compact-data checks step by dynamics.march (rkc2 for the
random kind where it is the cheaper scheme, rk4 otherwise).

Every height is relative to the carrying capacity u0* = r0 / slope:
front and compact data start at u0*, the front is tracked at 0.5 u0*,
and the gates are fractions of u0*, so rescaling u0* rescales the run
and leaves its verdict alone.  Front positions are tracked as the
farthest level crossing along a direction, empirical speeds come from a
least-squares slope over the second half of the run (clear of the
boundary), and the spreading predictions are checked over the last
quarter of the recorded times: the state must hug the stationary
profile inside the slower cone and vanish outside the faster one.  Negative controls (deliberately
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
    make_front_initial,
    sampled_directions,
    unit_direction,
)
from .dynamics import Trajectory, march
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


def _front_locator(habitat: Habitat, xi, level: float, initial_max: float):
    """values -> the farthest point along xi where values >= level, the
    per-snapshot rule of track_front, after its level guard against the
    initial maximum."""
    v = unit_direction(xi, habitat.dim)
    if not (level > 0.0):
        raise ValueError("level must be positive")
    if level >= 0.9 * initial_max:
        raise ValueError("level must stay below 0.9 * max of the initial data")

    axis = None
    if habitat.dim == 1:
        axis = 0
    else:
        for d in range(habitat.dim):
            if abs(abs(v[d]) - 1.0) < 1e-12:
                axis = d
                break

    if axis is not None:
        sign = float(np.sign(v[axis]))
        proj = habitat.axis_coords() * sign
        order = np.argsort(proj)
        proj_sorted = proj[order]

        def locate(values):
            if habitat.dim == 2:
                values = values.max(axis=1 - axis)
            return _front_position_1d(proj_sorted, values[order], level)
    else:
        proj = habitat.projection(v).ravel()

        def locate(values):
            mask = values.ravel() >= level
            return float(proj[mask].max()) if np.any(mask) else math.nan

    return locate, v


def track_front(traj: Trajectory, xi, level: float) -> FrontTrace:
    """Farthest point along xi where u >= level, per recorded time.

    Linear interpolation between the straddling grid points (along the
    axis for axis-aligned directions); NaN encodes an empty level set.
    2-D tracking for non-axis directions falls back to the raw grid
    maximum of x.xi, accurate to one spacing.
    """
    locate, v = _front_locator(traj.habitat, xi, level, traj.initial.max)
    positions = np.array([locate(snap.values) for snap in traj.snapshots], dtype=float)
    return FrontTrace(traj.habitat, traj.times.copy(), positions, float(level), v)


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


def _window_start(t_end: float) -> float:
    """Start of the trailing window that the spreading checks read: the
    last quarter of the recorded times, up to the final time t_end."""
    return 0.75 * t_end


def _trailing_window(traj: Trajectory):
    """(t, snapshot) pairs over the last quarter of the recorded times."""
    start = _window_start(float(traj.times[-1]))
    return [(t, snap) for t, snap in zip(traj.times, traj.snapshots) if t >= start]


@dataclass(eq=False)
class FrontRun:
    """Trajectory, front trace, speed fit and amplitude-0 theory of a run.
    traj holds the initial snapshot (height u0*) and the records of the
    trailing window (the final one among them), which is all that
    verify_spreading_cones and traj.final read; trace holds the position
    of the level 0.5 u0* at every record, and estimate fits it after T/2."""

    traj: Trajectory
    trace: FrontTrace
    estimate: SpeedEstimate
    theory: SpeedResult


def check_front_reaction(reaction: Reaction, habitat: Habitat):
    """The front run's rule on its reaction, beyond the H1 and H2 that the
    reaction states itself: ValueError unless f(x, 0) > 0 on the habitat."""
    if not np.all(reaction.r0 + reaction.perturbation(habitat) > 0.0):
        raise ValueError(f"amplitude {reaction.amplitude} makes f(x, 0) nonpositive somewhere")


def run_front(op: DispersalOperator, reaction: Reaction, habitat: Habitat, xi, T: float,
              dt: float = None) -> FrontRun:
    """Evolve front data of height u0* along xi, track the level 0.5 u0*
    and fit the speed after T/2, delta0 + 10 h clear of the boundary.  The
    march records by its automatic rule (about 240 records).  The reaction
    must pass check_front_reaction.
    """
    check_front_reaction(reaction, habitat)
    u0 = make_front_initial(habitat, xi, reaction.u0_star)
    level = 0.5 * reaction.u0_star
    locate, v = _front_locator(habitat, xi, level, u0.max)
    times, positions = [], []
    kept_times, kept = [0.0], [u0]

    def record(t, values, t_end):
        times.append(t)
        positions.append(locate(values))
        if t >= _window_start(t_end):
            kept_times.append(t)
            kept.append(Field(habitat, values))

    marched = march(op, reaction, u0, T, dt, observer=record)
    traj = dataclasses.replace(marched, times=np.array(kept_times), snapshots=kept)
    trace = FrontTrace(habitat, np.array(times), np.array(positions, dtype=float), float(level), v)
    est = estimate_speed(trace, 0.5, exclusion=op.delta0 + 10.0 * habitat.spacing)
    theory = theoretical_speed(
        op.kind, dataclasses.replace(reaction, amplitude=0.0), xi,
        kernel=op.kernel, weights=op.weights,
    )
    return FrontRun(traj, trace, est.with_theory(theory.c_star), theory)


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
    """One run_front per amplitude, each from front data of height u0*,
    tracked at 0.5 u0* and fitted after T/2."""

    op: DispersalOperator
    habitat: Habitat
    reaction0: Reaction  # the amplitude-0 base; cells override amplitude
    xi: object
    T: float
    amplitudes: tuple = (-0.5, 0.0, 0.5, 1.0)
    dt: float = None


@dataclass(eq=False)
class SweepRow:
    amplitude: float
    c_emp: float
    c_theory: float
    rel_error: float
    rms_residual: float
    window: tuple
    clip_count: int
    scheme: str
    rhs_evals: int


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
    run = run_front(setup.op, reaction, setup.habitat, setup.xi, setup.T, setup.dt)
    est = run.estimate
    return SweepRow(
        amplitude=float(amplitude),
        c_emp=est.slope,
        c_theory=run.theory.c_star,
        rel_error=est.rel_error,
        rms_residual=est.rms_residual,
        window=est.window,
        clip_count=run.traj.clip_count,
        scheme=run.traj.scheme,
        rhs_evals=run.traj.rhs_evals,
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
    clip_count: int
    scheme: str
    rhs_evals: int


def check_support_radius(r: float, habitat: Habitat):
    """The compact data's rule on its support radius: ValueError unless
    0 < r and the ramp to zero at r + 1 ends inside the habitat."""
    if not (0.0 < r and r + 1.0 < habitat.half_extent):
        raise ValueError(f"support radius {r} must be positive with r + 1 below "
                         f"half_extent = {habitat.half_extent}")


def run_compact_spreading_checks(
    op: DispersalOperator,
    reaction: Reaction,
    habitat: Habitat,
    clause: int,
    T: float,
    r: float = 3.0,
    dt: float = None,
    margin: float = 0.2,
    u_star: Field = None,
    c_scale: float = 1.0,
) -> ClauseVerdict:
    """Expanding-region checks for compactly supported initial data of
    height u0*, ramping to zero between r and r + 1.

    clause 1/2 use the slab |x_1| <= r along e1 (vanish outside the fast
    cone / match the stationary profile inside the slow cone); clause 3/4 are
    the radial versions with the speed extremized over 8 sampled
    directions (2 in 1-D).  c_scale deliberately rescales the theoretical
    speed so the suite can assert that wrong speeds are caught.

    The march hands each record to an observer that folds the worst value
    over the trailing window as it arrives, so no snapshot is kept.  A
    clause 2/4 run without u_star solves for it before the march.
    """
    if clause not in (1, 2, 3, 4):
        raise ValueError("clause must be 1..4")
    u0_star = reaction.u0_star

    if clause in (1, 2):
        v = np.array([1.0] + [0.0] * (habitat.dim - 1))
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

    check_support_radius(r, habitat)
    u0 = Field(habitat, u0_star * np.clip(r + 1.0 - coord, 0.0, 1.0))

    if clause in (2, 4) and u_star is None:
        u_star = solve_stationary(op, reaction, habitat, route=FROM_ABOVE).u_star

    worst = -math.inf

    def fold(t, values, t_end):
        nonlocal worst
        if t < _window_start(t_end):
            return
        if clause in (1, 3):
            region = coord >= (1.0 + margin) * c_max * t
            if not np.any(region):
                raise ConeEmptyError(f"outer region empty at t={t:.3g}")
            worst = max(worst, float(values[region].max()))
        else:
            region = coord <= (1.0 - margin) * c_min * t
            if not np.any(region):
                raise ConeEmptyError(f"inner region empty at t={t:.3g}")
            dev = np.abs(values[region] - u_star.values[region])
            worst = max(worst, float(dev.max()))

    traj = march(op, reaction, u0, T, dt, observer=fold)

    threshold = 0.01 * u0_star if clause in (1, 3) else 0.05 * u0_star
    return ClauseVerdict(
        ok=worst <= threshold,
        clause=clause,
        kind=op.kind,
        worst_value=worst,
        threshold=threshold,
        c_used=c_max if clause in (1, 3) else c_min,
        margin=margin,
        clip_count=traj.clip_count,
        scheme=traj.scheme,
        rhs_evals=traj.rhs_evals,
    )

"""End-to-end experiments, the four pipelines behind the CLI.
run_front is the one front run of front_speed and of each sweep cell;
it and the compact-data checks step by dynamics.march (rkc2 for the
random kind where it is the cheaper scheme, rk4 otherwise).  An
invariance sweep maps run_front over its cells and keeps each FrontRun.
run_stationary_profile solves the stationary state by both monotone
routes and gates their gap, the tail and both stability bounds.

Every height is relative to the carrying capacity u0* = r0 / slope:
front and compact data start at u0*, the front is tracked at 0.5 u0*,
and the gates are fractions of u0*, so rescaling u0* rescales the run
and leaves its verdict alone.  Front positions are tracked as the
farthest level crossing along a direction, empirical speeds come from a
least-squares slope over the second half of the run (clear of the
boundary), and the spreading predictions are checked over the last
quarter of the recorded times: the state must hug the stationary
profile inside the slower cone and vanish outside the faster one.  Each
run folds its checks record by record in one march observer and keeps
no snapshot history; track_front and verify_spreading_cones apply the
same rules to a stored Trajectory.  Negative controls (deliberately
wrong theoretical speeds) are expected to fail and the test suite
asserts that they do.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .dispersal import DispersalOperator
from .domain import (
    Field,
    Habitat,
    Reaction,
    check_support_radius,
    make_front_initial,
    sampled_directions,
    unit_direction,
)
from .dynamics import Trajectory, march
from .speeds import SpeedResult, theoretical_speed
from .stationary import FROM_ABOVE, FROM_BELOW, StationaryResult, check_tail, solve_stationary

# speed gates: empirical speed vs theory, and a sweep's pairwise spread
THEORY_TOL = 0.05
PAIRWISE_TOL = 0.02
# defaults the CLI's keys read too: cone margin, support radius, sweep amplitudes
CONE_MARGIN = 0.2
SUPPORT_RADIUS = 3.0
SWEEP_AMPLITUDES = (-0.5, 0.0, 0.5, 1.0)
# the stationary tail window starts this many patch radii out
TAIL_RADII = 4.0


class ConeEmptyError(RuntimeError):
    """The outer region of a compact-data check contains no grid points:
    its fast cone has left the habitat (a domain/time mismatch)."""


@dataclass(eq=False)
class FrontTrace:
    """Front position per recorded time at a fixed level and direction."""

    habitat: Habitat
    times: np.ndarray
    positions: np.ndarray


@dataclass(eq=False)
class SpeedEstimate:
    slope: float
    window: tuple
    rms_residual: float


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

    axis = next((d for d in range(habitat.dim) if abs(abs(v[d]) - 1.0) < 1e-12), None)
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

    return locate


def track_front(traj: Trajectory, xi, level: float) -> FrontTrace:
    """Farthest point along xi where u >= level, per recorded time.

    Linear interpolation between the straddling grid points (along the
    axis for axis-aligned directions); NaN encodes an empty level set.
    2-D tracking for non-axis directions falls back to the raw grid
    maximum of x.xi, accurate to one spacing.
    """
    locate = _front_locator(traj.habitat, xi, level, traj.initial.max)
    positions = np.array([locate(snap.values) for snap in traj.snapshots], dtype=float)
    return FrontTrace(traj.habitat, traj.times.copy(), positions)


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
    return SpeedEstimate(slope=float(slope), window=(float(t[0]), float(t[-1])), rms_residual=rms)


def _window_start(t_end: float) -> float:
    """Start of the trailing window that the spreading checks read: the
    last quarter of the recorded times, up to the final time t_end."""
    return 0.75 * t_end


def check_cone_scales(margin: float, c: float = 1.0):
    """The cone checks' rule on their scales: ValueError unless 0 < margin < 1
    and the cone speed c (or c_scale) is finite and positive.  Both cones then
    advance, and the inner one x.xi <= (1 - margin) c t always holds the origin."""
    if not 0.0 < margin < 1.0:
        raise ValueError(f"margin {margin} must lie strictly between 0 and 1")
    if not 0.0 < c < math.inf:
        raise ValueError(f"cone speed {c} must be positive and finite")


@dataclass(frozen=True)
class ConesVerdict:
    ok: bool
    inside_ok: bool
    outside_ok: bool
    inside_min: float
    outside_max: float
    outside_empty: bool


def _cone_fold(habitat: Habitat, xi, c_theory: float, u0_star: float, margin: float):
    """(fold, verdict): fold(t, values, t_end) is the per-record rule of
    verify_spreading_cones, a march observer that folds each record of the
    trailing window into the cone extrema and skips the earlier ones;
    verdict() states the ConesVerdict of the records folded so far."""
    check_cone_scales(margin, c_theory)
    proj = habitat.projection(xi)
    inside_min, outside_max, outside_empty = math.inf, -math.inf, False

    def fold(t, values, t_end):
        nonlocal inside_min, outside_max, outside_empty
        if t < _window_start(t_end):
            return
        inside = proj <= (1.0 - margin) * c_theory * t
        inside_min = min(inside_min, float(values[inside].min()))
        outside = proj >= (1.0 + margin) * c_theory * t
        if np.any(outside):
            outside_max = max(outside_max, float(values[outside].max()))
        else:
            outside_empty = True

    def verdict():
        inside_ok = inside_min >= 0.5 * u0_star
        outside_ok = (not outside_empty) and outside_max <= 0.01 * u0_star
        return ConesVerdict(inside_ok and outside_ok, inside_ok, outside_ok, inside_min,
                            outside_max, outside_empty)

    return fold, verdict


def verify_spreading_cones(traj: Trajectory, xi, c_theory: float, u0_star: float,
                           margin: float = CONE_MARGIN) -> ConesVerdict:
    """Finite-horizon surrogate of the spreading-speed dichotomy.

    Over the final quarter of recorded times: inside the cone
    x.xi <= (1 - margin) c t the state must stay above 0.5 u0; outside
    x.xi >= (1 + margin) c t it must stay below 0.01 u0.  margin and c
    must pass check_cone_scales.  An empty outside cone is reported and
    fails the verdict without raising, so deliberately wrong c values
    still produce a clean failure.  The stored-trajectory driver of the
    rule that run_front folds while it marches.
    """
    fold, verdict = _cone_fold(traj.habitat, xi, c_theory, u0_star, margin)
    t_end = float(traj.times[-1])
    for t, snap in zip(traj.times, traj.snapshots):
        fold(t, snap.values, t_end)
    return verdict()


@dataclass(eq=False)
class FrontRun:
    """A front run's verdict, folded while it marched.  reaction is the
    reaction it marched.  traj is the march's own Trajectory: the initial
    snapshot (height u0*) and the final one.  trace holds the position of
    the level 0.5 u0* at every record, estimate fits it after T/2, theory
    is the amplitude-0 c* it is gated against, and cones is the verdict of
    verify_spreading_cones over the same records."""

    reaction: Reaction
    traj: Trajectory
    trace: FrontTrace
    estimate: SpeedEstimate
    theory: SpeedResult
    cones: ConesVerdict

    @property
    def rel_error(self) -> float:
        """|c_emp - c*| / c*, the fitted speed against the amplitude-0 c*."""
        return abs(self.estimate.slope - self.theory.c_star) / abs(self.theory.c_star)

    @property
    def ok_theory(self) -> bool:
        """The theory gate: the fitted speed lies within THEORY_TOL of c*."""
        return self.rel_error <= THEORY_TOL

    @property
    def ok(self) -> bool:
        """The front_speed verdict: the theory gate and the cone check."""
        return self.ok_theory and self.cones.ok


def check_front_reaction(reaction: Reaction, habitat: Habitat):
    """The front run's rule on its reaction, beyond the H1 and H2 that the
    reaction states itself: ValueError unless f(x, 0) > 0 on the habitat."""
    if not np.all(reaction.r0 + reaction.perturbation(habitat) > 0.0):
        raise ValueError(f"amplitude {reaction.amplitude} makes f(x, 0) nonpositive somewhere")


def run_front(op: DispersalOperator, reaction: Reaction, habitat: Habitat, xi, T: float,
              dt: float = None, margin: float = CONE_MARGIN) -> FrontRun:
    """Evolve front data of height u0* along xi.  One observer folds each of
    the march's records (about 240) into the position of the level 0.5 u0*
    and into the cone check of verify_spreading_cones against the
    amplitude-0 c* at the given margin; the speed is then fitted after T/2,
    delta0 + 10 h clear of the boundary.  The reaction must pass
    check_front_reaction and the margin check_cone_scales.
    """
    check_front_reaction(reaction, habitat)
    theory = theoretical_speed(
        op.kind, dataclasses.replace(reaction, amplitude=0.0), xi,
        kernel=op.kernel, weights=op.weights,
    )
    u0 = make_front_initial(habitat, xi, reaction.u0_star)
    level = 0.5 * reaction.u0_star
    locate = _front_locator(habitat, xi, level, u0.max)
    cone, cones = _cone_fold(habitat, xi, theory.c_star, reaction.u0_star, margin)
    times, positions = [], []

    def record(t, values, t_end):
        times.append(t)
        positions.append(locate(values))
        cone(t, values, t_end)

    traj = march(op, reaction, u0, T, dt, observer=record)
    trace = FrontTrace(habitat, np.array(times), np.array(positions, dtype=float))
    est = estimate_speed(trace, 0.5, exclusion=op.delta0 + 10.0 * habitat.spacing)
    return FrontRun(reaction, traj, trace, est, theory, cones())


# ----------------------------------------------------------------------
# speed-invariance sweep: localized inhomogeneity must not move the speed
# ----------------------------------------------------------------------


@dataclass(eq=False)
class SweepReport:
    runs: tuple  # each cell's FrontRun, in increasing amplitude
    c_theory: float
    pairwise_spread: float
    ok_theory: bool
    ok_pairwise: bool
    ok: bool


def check_sweep_amplitudes(amplitudes):
    """ValueError unless the amplitudes hold two distinct values, a spread to gate."""
    if len(set(amplitudes)) < 2:
        raise ValueError(f"{tuple(amplitudes)} holds fewer than two distinct amplitudes")


def run_speed_invariance_sweep(op: DispersalOperator, reaction: Reaction, habitat: Habitat, xi,
                               T: float, dt: float = None, amplitudes=SWEEP_AMPLITUDES,
                               map=map) -> SweepReport:
    """Empirical speeds across the amplitude sweep, one run_front per
    amplitude with the reaction's amplitude replaced, and two gates:
    every speed within THEORY_TOL of the amplitude-0 theory, and all
    speeds pairwise within PAIRWISE_TOL (the discretization bias is shared,
    so the pairwise gate is the sharper one).  map (a process pool's, say)
    runs run_front over the cell reactions in increasing amplitude; the
    amplitudes must pass check_sweep_amplitudes."""
    check_sweep_amplitudes(amplitudes)
    cell = functools.partial(run_front, op, habitat=habitat, xi=xi, T=T, dt=dt)
    runs = tuple(map(cell, [dataclasses.replace(reaction, amplitude=float(a))
                            for a in sorted(amplitudes)]))
    speeds = np.array([run.estimate.slope for run in runs])
    spread = float((speeds.max() - speeds.min()) / speeds.mean())
    ok_theory = all(run.ok_theory for run in runs)
    ok_pairwise = spread <= PAIRWISE_TOL
    return SweepReport(
        runs=runs,
        c_theory=runs[0].theory.c_star,
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
    worst_value: float
    threshold: float
    c_used: float
    clip_count: int
    scheme: str
    rhs_evals: int


def run_compact_spreading_checks(
    op: DispersalOperator,
    reaction: Reaction,
    habitat: Habitat,
    clause: int,
    T: float,
    r: float = SUPPORT_RADIUS,
    dt: float = None,
    margin: float = CONE_MARGIN,
    u_star: Field = None,
    c_scale: float = 1.0,
) -> ClauseVerdict:
    """Expanding-region checks for compactly supported initial data of
    height u0*, ramping to zero between r and r + 1.

    clause 1/2 use the slab |x_1| <= r along e1 (vanish outside the fast
    cone / match the stationary profile inside the slow cone); clause 3/4 are
    the radial versions with the speed extremized over 8 sampled
    directions (2 in 1-D).  c_scale deliberately rescales the theoretical
    speed so the suite can assert that wrong speeds are caught.  r must
    pass domain.check_support_radius, margin and c_scale check_cone_scales.

    The march hands each record to an observer that folds the worst value
    over the trailing window as it arrives, so no snapshot is kept.  A
    clause 2/4 run without u_star solves for it before the march.
    """
    if clause not in (1, 2, 3, 4):
        raise ValueError("clause must be 1..4")
    check_support_radius(r, habitat)
    check_cone_scales(margin, c_scale)
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
            dev = np.abs(values[region] - u_star.values[region])
            worst = max(worst, float(dev.max()))

    traj = march(op, reaction, u0, T, dt, observer=fold)

    threshold = 0.01 * u0_star if clause in (1, 3) else 0.05 * u0_star
    return ClauseVerdict(
        ok=worst <= threshold,
        clause=clause,
        worst_value=worst,
        threshold=threshold,
        c_used=c_max if clause in (1, 3) else c_min,
        clip_count=traj.clip_count,
        scheme=traj.scheme,
        rhs_evals=traj.rhs_evals,
    )


# ----------------------------------------------------------------------
# stationary profile: both monotone routes must meet at one stable state
# ----------------------------------------------------------------------


@dataclass(eq=False)
class StationaryProfile:
    """Both routes' StationaryResult, the max-norm gap between their
    profiles, and the tail deviation of the from-above profile from u0*
    beyond tail_radius."""

    above: StationaryResult
    below: StationaryResult
    gap: float
    tail: float
    tail_radius: float
    ok: bool


def run_stationary_profile(op: DispersalOperator, reaction: Reaction,
                           habitat: Habitat) -> StationaryProfile:
    """Solve from above and from below.  The verdict needs a routes gap of
    at most 1e-6 u0* (uniqueness), a tail within 0.01 u0* of u0* from
    TAIL_RADII patch radii out (the patch is localized), and a negative
    stability bound on both routes."""
    above = solve_stationary(op, reaction, habitat, FROM_ABOVE)
    below = solve_stationary(op, reaction, habitat, FROM_BELOW)
    gap = float(np.abs(above.u_star.values - below.u_star.values).max())
    tail_radius = TAIL_RADII * reaction.radius
    tail = check_tail(above.u_star, reaction.u0_star, tail_radius, delta0=op.delta0)
    ok = (gap <= 1e-6 * reaction.u0_star and tail < 0.01 * reaction.u0_star
          and above.stability_bound < 0.0 and below.stability_bound < 0.0)
    return StationaryProfile(above, below, gap, tail, tail_radius, ok)

"""Slow reference implementations that the fast paths are tested against."""

import math
from dataclasses import dataclass

import numpy as np

from kpplab import Field
from kpplab.domain import make_front_initial, sampled_directions
from kpplab.dispersal import DispersalOperator
from kpplab.domain import Reaction
from kpplab.dynamics import (
    _COMPARISON_TOL,
    _PART_METRIC_SLACK,
    RK4,
    RKC2,
    MarchPlan,
    PartMetricReport,
    Trajectory,
    ViolationReport,
    _reaction_maxima,
    _rkc2_stages,
    evolve,
    march,
    part_metric,
    spectral_bound,
    stability_dt_bound,
)
from kpplab.experiments import ConeEmptyError, track_front
from kpplab.speeds import (
    _MU_MIN,
    _MU_TOL,
    _SCAN_POINTS,
    BracketEdgeError,
    SpeedResult,
    _brent,
    theoretical_speed,
)
from kpplab.stationary import (
    FROM_ABOVE,
    FROM_BELOW,
    StationaryConvergenceError,
    solve_stationary,
    sub_solution,
)


def power_iteration(operator, max_iter=1_000_000):
    """(lambda, phi) of a CellOperator by plain shifted power iteration
    from the constant vector, phi normalized to max 1.  It stops when the
    max norm of (L + s I) v - lambda v falls to 1e-13 (lambda + s), a few
    hundred roundings above its floor: phi is then accurate to about
    1e-13 (lambda + s) / gap, where gap is the spectral gap, far below
    the 1e-8 eigenfunction gates that read it (a 1e-10 stop left 1.2e-8
    on an 11-point cell with gap 0.0087).  It shares no code with
    kpplab.principal_eigenvalue."""
    s = operator.shift
    v = np.ones(operator.shape)
    for _ in range(max_iter):
        w = operator.matvec(v) + s * v
        top = float(w.max())
        if np.max(np.abs(w - top * v)) <= 1e-13 * top:
            return top - s, v / v.max()
        v = w / top
    raise RuntimeError(f"oracle power iteration: no convergence in {max_iter} iterations")


def scalar_scan_speed(rel):
    """kpplab.minimize_speed with its scan evaluated one mu at a time:
    60 log-spaced points on [1e-3, mu_max], each by its own call of rel,
    then kpplab's Brent refinement (speeds._brent) from the best point.
    It shares the module's constants, refinement and result type, not
    its scan."""
    evals = 0

    def c_of(mu):
        nonlocal evals
        evals += 1
        return float(rel(mu)) / mu

    lam0 = float(rel(1e-6))
    evals += 1
    if not (lam0 > 0.0):
        raise ValueError(f"lambda(0+) = {lam0:.3e} <= 0: speed is not well posed")

    grid = np.geomspace(_MU_MIN, rel.mu_max, _SCAN_POINTS)
    vals = np.array([c_of(m) for m in grid])
    i = int(np.argmin(vals))
    if i == len(grid) - 1:
        raise BracketEdgeError(
            f"minimizer at bracket edge mu_max={rel.mu_max}: dispersion relation "
            "is still decreasing at the right boundary"
        )
    if i == 0:
        raise BracketEdgeError("minimizer at bracket edge mu_min")
    lo, hi = float(grid[i - 1]), float(grid[i + 1])
    mu_star, c_star, lo, hi = _brent(c_of, lo, hi, float(grid[i]), float(vals[i]))
    return SpeedResult(c_star, mu_star, (lo, hi), evals)


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_speed(rel):
    """kpplab.minimize_speed as it was before Brent's method: the same
    scan in one call of rel, then golden-section refinement of the scan's
    bracket [grid[i-1], grid[i+1]] to relative width 1e-8, from two fresh
    interior points.  About 38 refinement evaluations where Brent takes
    9-18; it shares the module's constants and result type, not its
    refinement."""
    if not rel.mu_max > _MU_MIN:
        raise ValueError(f"mu_max = {rel.mu_max} must exceed the scan's first point "
                         f"mu = {_MU_MIN}")
    evals = 0

    def c_of(mu):
        nonlocal evals
        evals += 1
        return float(rel(mu)) / mu

    lam0 = float(rel(1e-6))
    evals += 1
    if not (lam0 > 0.0):
        raise ValueError(f"lambda(0+) = {lam0:.3e} <= 0: speed is not well posed")

    grid = np.geomspace(_MU_MIN, rel.mu_max, _SCAN_POINTS)
    vals = np.asarray(rel(grid), dtype=float) / grid
    evals += grid.size
    i = int(np.argmin(vals))
    if i == len(grid) - 1:
        raise BracketEdgeError(
            f"minimizer at bracket edge mu_max={rel.mu_max}: dispersion relation "
            "is still decreasing at the right boundary"
        )
    if i == 0:
        raise BracketEdgeError("minimizer at bracket edge mu_min")
    lo, hi = float(grid[i - 1]), float(grid[i + 1])

    # golden-section: unimodal on the verified bracket
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = c_of(x1), c_of(x2)
    while (hi - lo) > _MU_TOL * max(abs(lo), abs(hi)):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = c_of(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = c_of(x2)
    mu_star = x1 if f1 <= f2 else x2
    c_star = f1 if f1 <= f2 else f2
    return SpeedResult(c_star, mu_star, (lo, hi), evals)


def fmt(x):
    """The value formatter kpplab.exports.write_csv used before it took
    one "%.17e" format per row, in its first branch order (bool, int,
    then float)."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17e")
    return str(x)


def kind_gated_plan(op, reaction, u0, dt=None):
    """kpplab.dynamics.march_plan as it was when a kind gate let only the
    random kind weigh rkc2 against rk4, with the dispersal bound rho_D
    and the clause mass restated here by kind: 4 dim / h^2 and 1 for the
    random kind, 2 and 1 for the nonlocal kind, twice the rate sum and
    the rate sum for the discrete kind."""
    habitat = u0.habitat
    max_f, max_df = _reaction_maxima(reaction.bind(habitat), reaction.ceiling(u0.max))
    mass = op.weights.rate_sum if op.kind == "discrete" else 1.0
    rho_d = 4.0 * habitat.dim / habitat.spacing ** 2 if op.kind == "random" else 2.0 * mass
    rho = rho_d + max_df
    rk4 = 0.6 * 2.785 / rho
    rk4_dt = 0.95 * rk4
    if op.kind == "random":
        clause = 0.25 / (mass + max_f + 1.0)
        auto = 0.5 * (0.95 * clause)
        if _rkc2_stages(auto, rho) * rk4_dt < 4.0 * auto:
            step = auto if dt is None else dt
            return MarchPlan(RKC2, step, _rkc2_stages(min(step, clause), rho), clause)
    return MarchPlan(RK4, rk4_dt if dt is None else dt, 4, rk4)


def clamp_apply(op, habitat, u):
    """A dispersal operator on a clamp habitat term by term: for each
    offset z, w_z (u(x + z) - u(x)) added over the in-domain overlap, each
    difference taken on its own, nonlocal rows then divided by their
    in-domain mass.  It shares no pairing with kpplab's bound closure."""
    st = op._stencil(habitat.dim, habitat.spacing)
    acc = np.zeros_like(u)
    for off, w in zip(st.offsets, st.weights):
        if any(off):
            dst, src = _difference_slices(off, habitat.shape)
            acc[dst] += w * (u[src] - u[dst])
    if not st.renormalize:
        return acc
    row_mass = np.zeros(habitat.shape)
    for off, w in zip(st.offsets, st.weights):
        row_mass[_difference_slices(off, habitat.shape)[0]] += w
    return acc / row_mass


def _difference_slices(off, shape):
    """Destination/source index slices for the in-domain overlap of an
    integer offset (clamp semantics: out-of-domain terms contribute 0),
    empty on an axis shorter than the offset."""
    dst, src = [], []
    for o, n in zip(off, shape):
        lo = max(0, -o)
        hi = max(lo, n - max(0, o))
        dst.append(slice(lo, hi))
        src.append(slice(lo + o, hi + o))
    return tuple(dst), tuple(src)


def even_extension_resolvent(op, habitat, r, c):
    """(c I - D0)^{-1} r on a clamp habitat by the FFT of the even
    extension, of length 2n per axis: D0 is the stencil as a convolution
    on that torus, its symbol is taken by its real part and divided by the
    interior row mass for nonlocal rows, and the result is the extension's
    solve restricted to the grid.  This is how bind_resolvent inverted on
    every clamp habitat before the cosine transforms; it builds its own
    symbol by full complex FFTs and shares no code with kpplab's."""
    st = op._stencil(habitat.dim, habitat.spacing)
    lengths = tuple(2 * n for n in habitat.shape)
    cells = np.zeros(lengths)
    for off, w in zip(st.offsets, st.weights):
        cells[tuple(np.mod(off, lengths))] += w
    cells.flat[0] -= st.weights.sum()
    symbol = np.fft.fftn(cells).real
    if st.renormalize:
        symbol /= st.weights.sum()
    for ax in range(habitat.dim):
        r = np.concatenate((r, np.flip(r, ax)), axis=ax)
    out = np.fft.ifftn(np.fft.fftn(r) / (c - symbol)).real
    return out[tuple(slice(0, n) for n in habitat.shape)]


_T_MAX = 500.0
_RECORD_SPACING = 1.0
_MONOTONE_SLACK = 1e-10
_CONVERGENCE_TOL = 1e-9
_RESIDUAL_TOL = 1e-7
_ROUNDING = 4.0  # the residual's rounding floor is below 4 eps rho max(u)


def _unit(reaction):
    """min(1, u0*): the oracle's gates are absolute at u0* >= 1 and
    relative to u0* below it."""
    return min(1.0, reaction.u0_star)


def _scale(op, reaction, u):
    """max(1, 4 eps rho max(u) / (1e-7 min(1, u0*))), rho the march's
    spectral bound at u: the factor that lifts the convergence and
    residual gates to the residual's rounding floor at large carrying
    capacities."""
    floor = _ROUNDING * np.finfo(float).eps * spectral_bound(op, reaction, u) * u.max
    return max(1.0, floor / (_RESIDUAL_TOL * _unit(reaction)))


@dataclass(eq=False)
class MarchResult:
    u_star: Field
    residual: float
    iterations: int  # marching chunks of one time unit
    clip_count: int  # negative values clipped to zero, summed over the chunks


def march_stationary(op, reaction, habitat, route=FROM_ABOVE):
    """Long-time rk4 integration to the positive stationary state, from
    the same starts as kpplab.solve_stationary.

    Stops when consecutive snapshots (spacing 1.0) differ by less than
    1e-9 in max norm, then certifies the result by the equation residual
    (must be <= 1e-7); the route's monotonicity (non-increasing from
    above, non-decreasing from below) is checked per snapshot with 1e-10
    slack.  All three gates are multiplied by min(1, u0*), and the first
    two by _scale, which is 1 unless the carrying capacity lifts the
    residual's rounding floor 4 eps rho max(u) above the scaled residual
    gate.  Failure to converge by t = 500 raises with the residual.
    """
    if route not in (FROM_ABOVE, FROM_BELOW):
        raise ValueError(f"unknown route {route!r}")
    if route == FROM_ABOVE:
        u = habitat.full(reaction.ceiling(reaction.beta0))  # a super-solution by H1
    else:
        u = sub_solution(op, reaction, habitat)

    dt = 0.95 * stability_dt_bound(op, reaction, u)
    unit = _unit(reaction)
    slack = _MONOTONE_SLACK * unit

    disp = op.bind(habitat)
    growth = reaction.bind(habitat)
    n_chunks = int(math.ceil(_T_MAX / _RECORD_SPACING))
    monotone_ok = True
    prev = u
    converged = False
    k = clip_count = 0
    for k in range(1, n_chunks + 1):
        (traj,) = evolve(op, [reaction], [prev], _RECORD_SPACING, dt, record_every=10 ** 9)
        clip_count += traj.clip_count
        cur = traj.final
        step = cur.values - prev.values
        if route == FROM_ABOVE and float(step.max()) > slack:
            monotone_ok = False
        if route == FROM_BELOW and float(-step.min()) > slack:
            monotone_ok = False
        diff = float(np.abs(step).max())
        prev = cur
        if diff < _CONVERGENCE_TOL * unit * _scale(op, reaction, cur):
            converged = True
            break

    u_star = prev
    residual = float(np.abs(disp(u_star.values) + u_star.values * growth(u_star.values)).max())
    tolerance = _RESIDUAL_TOL * unit * _scale(op, reaction, u_star)
    if not converged:
        raise StationaryConvergenceError(
            f"no convergence by t = {_T_MAX} (last residual {residual:.3e})"
        )
    if not monotone_ok:
        raise StationaryConvergenceError(
            f"{route} iterates violated monotonicity beyond {slack:.3e}"
        )
    if residual > tolerance:
        raise StationaryConvergenceError(
            f"stationary residual {residual:.3e} exceeds {tolerance:.3e}"
        )
    if not u_star.is_strictly_positive():
        raise StationaryConvergenceError("stationary state is not strictly positive")
    return MarchResult(
        u_star=u_star,
        residual=residual,
        iterations=k,
        clip_count=clip_count,
    )


@dataclass(frozen=True)
class ReconvergeReport:
    ok: bool
    distances: tuple
    tolerance: float
    horizon: float


def reconverge(op, reaction, u_star, perturbations, T=200.0):
    """March strictly positive perturbations by dynamics.march in chunks
    of one time unit, each until its max-norm distance to u_star stops
    falling (its rounding floor, once it has converged) or time T is
    reached, and report the last distance of each; passes when all are
    below 1e-4 u0*.  horizon is the longest time marched.  The slow
    oracle for StationaryResult.stability_bound."""
    tolerance = 1e-4 * reaction.u0_star
    distances = []
    horizon = 0.0
    for u0 in perturbations:
        if not u0.is_strictly_positive():
            raise ValueError("perturbations must be strictly positive")
        u, t = u0, 0.0
        distance = float(np.abs(u.values - u_star.values).max())
        while t < T:
            (traj,) = march(op, [reaction], [u], min(1.0, T - t), record_every=10 ** 9)
            u, t = traj.final, t + float(traj.times[-1])
            previous, distance = distance, float(np.abs(u.values - u_star.values).max())
            if distance >= previous:
                break
        distances.append(distance)
        horizon = max(horizon, t)
    return ReconvergeReport(all(d < tolerance for d in distances), tuple(distances),
                            tolerance, horizon)


def _trailing_window(traj):
    """(t, snapshot) pairs over the last quarter of the recorded times."""
    start = 0.75 * float(traj.times[-1])
    return [(t, snap) for t, snap in zip(traj.times, traj.snapshots) if t >= start]


def front_history(op, reaction, habitat, xi, T, dt=None):
    """(trajectory, trace) of a front run by the snapshot history: march
    front data of height u0* without an observer, keeping every record,
    then track_front at 0.5 u0* over it.  It shares no observer with
    kpplab.experiments.run_front."""
    (traj,) = march(op, [reaction], [make_front_initial(habitat, xi, reaction.u0_star)], T, dt)
    return traj, track_front(traj, xi, 0.5 * reaction.u0_star)


def compact_spreading_worst(op, reaction, habitat, clause, T, r=3.0, dt=None,
                            margin=0.2, u_star=None, c_scale=1.0):
    """(worst_value, clip_count, rhs_evals) of
    kpplab.run_compact_spreading_checks by the snapshot history: march
    without an observer, keeping every record, then fold the worst value
    over _trailing_window of the kept trajectory.  The data have height
    u0*, as there."""
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
    u0 = Field(habitat, reaction.u0_star * np.clip(r + 1.0 - coord, 0.0, 1.0))

    (traj,) = march(op, [reaction], [u0], T, dt)
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
            worst = max(worst, float(np.abs(snap.values[region] - u_star.values[region]).max()))
    return worst, traj.clip_count, traj.rhs_evals


def check_part_metric_decay(
    op: DispersalOperator,
    reaction: Reaction,
    u0: Field,
    v0: Field,
    T: float,
    dt: float,
    record_every: int = 1,
) -> PartMetricReport:
    """The part metric between two strictly positive solutions must be
    non-increasing along the flow (up to a roundoff slack of 1e-8 per
    recorded step).  kpplab.dynamics.check_part_metric_decay as it was
    before the pair marched as one stack: two evolve histories."""
    if not (u0.is_strictly_positive() and v0.is_strictly_positive()):
        raise ValueError("initial data must be strictly positive")
    (tu,) = evolve(op, [reaction], [u0], T, dt, record_every)
    (tv,) = evolve(op, [reaction], [v0], T, dt, record_every)
    rhos = np.array([part_metric(a, b) for a, b in zip(tu.snapshots, tv.snapshots)])
    bad = []
    for k in range(1, len(rhos)):
        if rhos[k] > rhos[k - 1] + _PART_METRIC_SLACK:
            bad.append((float(tu.times[k]), float(rhos[k] - rhos[k - 1])))
    return PartMetricReport(not bad, rhos, tu.times, tuple(bad), _PART_METRIC_SLACK)


def check_comparison(traj1: Trajectory, traj2: Trajectory) -> ViolationReport:
    """Ordered initial data should stay ordered: reports the largest
    positive part of u1 - u2 over all recorded times (passes up to 5e-10).
    kpplab.dynamics.check_comparison as it was before it marched its own
    pair: two stored trajectories."""
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
    return ViolationReport(violation <= _COMPARISON_TOL, violation, worst_time, _COMPARISON_TOL)

"""Slow reference implementations that the fast paths are tested against."""

import math
from dataclasses import dataclass

import numpy as np

from kpplab import Field
from kpplab.dispersal import _difference_slices
from kpplab.domain import make_front_initial, sampled_directions
from kpplab.dynamics import evolve, march, spectral_bound, stability_dt_bound
from kpplab.experiments import ConeEmptyError, _trailing_window, track_front
from kpplab.speeds import theoretical_speed
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


def fmt(x):
    """kpplab.exports.fmt in its former branch order (bool, int, then
    float), before floats were tested first."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17e")
    return str(x)


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


_T_MAX = 500.0
_RECORD_SPACING = 1.0
_MONOTONE_SLACK = 1e-10
_CONVERGENCE_TOL = 1e-9
_RESIDUAL_TOL = 1e-7
_ROUNDING = 4.0  # the residual's rounding floor is below 4 eps rho max(u)


def _scale(op, reaction, u):
    """max(1, 4 eps rho max(u) / 1e-7), rho the march's spectral bound at u:
    the factor that lifts both tolerances to the residual's rounding floor
    at large carrying capacities."""
    floor = _ROUNDING * np.finfo(float).eps * spectral_bound(op, reaction, u) * u.max
    return max(1.0, floor / _RESIDUAL_TOL)


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
    (must be <= 1e-7); both tolerances are multiplied by _scale, which is 1
    unless the carrying capacity lifts the residual's rounding floor
    4 eps rho max(u) above 1e-7.  The route's monotonicity (non-increasing from
    above, non-decreasing from below) is checked per snapshot with 1e-10
    slack; failure to converge by t = 500 raises with the residual.
    """
    if route not in (FROM_ABOVE, FROM_BELOW):
        raise ValueError(f"unknown route {route!r}")
    if route == FROM_ABOVE:
        u = habitat.full(reaction.beta0 + 1.0)  # a super-solution by H1
    else:
        u = sub_solution(op, reaction, habitat)

    dt = 0.95 * stability_dt_bound(op, reaction, u)

    disp = op.bind(habitat)
    growth = reaction.bind(habitat)
    n_chunks = int(math.ceil(_T_MAX / _RECORD_SPACING))
    monotone_ok = True
    prev = u
    converged = False
    k = clip_count = 0
    for k in range(1, n_chunks + 1):
        traj = evolve(op, reaction, prev, _RECORD_SPACING, dt, record_every=10 ** 9)
        clip_count += traj.clip_count
        cur = traj.final
        step = cur.values - prev.values
        if route == FROM_ABOVE and float(step.max()) > _MONOTONE_SLACK:
            monotone_ok = False
        if route == FROM_BELOW and float(-step.min()) > _MONOTONE_SLACK:
            monotone_ok = False
        diff = float(np.abs(step).max())
        prev = cur
        if diff < _CONVERGENCE_TOL * _scale(op, reaction, cur):
            converged = True
            break

    u_star = prev
    residual = float(np.abs(disp(u_star.values) + u_star.values * growth(u_star.values)).max())
    tolerance = _RESIDUAL_TOL * _scale(op, reaction, u_star)
    if not converged:
        raise StationaryConvergenceError(
            f"no convergence by t = {_T_MAX} (last residual {residual:.3e})"
        )
    if not monotone_ok:
        raise StationaryConvergenceError(
            f"{route} iterates violated monotonicity beyond {_MONOTONE_SLACK}"
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


def front_history(op, reaction, habitat, xi, T, dt=None):
    """(trajectory, trace) of a front run by the snapshot history: march
    front data of height u0* without an observer, keeping every record,
    then track_front at 0.5 u0* over it.  It shares no observer with
    kpplab.experiments.run_front."""
    traj = march(op, reaction, make_front_initial(habitat, xi, reaction.u0_star), T, dt)
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

    traj = march(op, reaction, u0, T, dt)
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

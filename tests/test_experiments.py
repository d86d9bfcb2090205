import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

from kpplab import (
    ConeEmptyError,
    DispersalOperator,
    Field,
    FrontTrace,
    Habitat,
    Kernel,
    LatticeWeights,
    Reaction,
    estimate_speed,
    evolve,
    make_front_initial,
    run_compact_spreading_checks,
    run_speed_invariance_sweep,
    solve_stationary,
    stability_dt_bound,
    track_front,
    unit_direction,
    verify_spreading_cones,
)
from kpplab.dynamics import march, march_plan
from kpplab.experiments import run_front
from kpplab.stationary import FROM_ABOVE


def test_tracker_on_step_data():
    hab = Habitat("continuum", 1, 20.0, 0.5)
    x = hab.grid()[0]
    sigma0 = 1.0
    u = Field(hab, np.where(x <= 0.0, sigma0, 0.0))
    traj_like = _single_snapshot_traj(hab, u)
    trace = track_front(traj_like, 1.0, sigma0 / 2.0)
    assert abs(trace.positions[0] - 0.0) <= hab.spacing


def test_tracker_encodes_empty_level_set_as_nan():
    from kpplab.dynamics import Trajectory

    hab = Habitat("continuum", 1, 20.0, 0.5)
    start = make_front_initial(hab, 1.0, 1.0)
    collapsed = Field(hab, np.full(hab.shape, 1e-9))
    traj = Trajectory(hab, np.array([0.0, 1.0]), [start, collapsed])
    trace = track_front(traj, 1.0, 0.5)
    assert np.isfinite(trace.positions[0])
    assert np.isnan(trace.positions[1])


def _single_snapshot_traj(hab, field):
    from kpplab.dynamics import Trajectory

    return Trajectory(hab, np.array([0.0, 1.0]), [field, field])


def test_tracker_translation_equivariance():
    hab = Habitat("continuum", 1, 20.0, 0.5)
    x = hab.grid()[0]
    prof = 1.0 / (1.0 + np.exp(x))
    shifted = np.roll(prof, 6)  # translation by 6 h = 3.0
    t1 = track_front(_single_snapshot_traj(hab, Field(hab, prof)), 1.0, 0.5)
    t2 = track_front(_single_snapshot_traj(hab, Field(hab, shifted)), 1.0, 0.5)
    assert abs((t2.positions[0] - t1.positions[0]) - 3.0) < 1e-12


def test_tracker_level_guard():
    hab = Habitat("continuum", 1, 20.0, 0.5)
    u = make_front_initial(hab, 1.0, 0.5)
    traj = _single_snapshot_traj(hab, u)
    with pytest.raises(ValueError, match="level"):
        track_front(traj, 1.0, 0.46)  # above 0.9 * max initial
    with pytest.raises(ValueError, match="level"):
        track_front(traj, 1.0, -0.1)


def test_estimate_speed_synthetic():
    hab = Habitat("continuum", 1, 1000.0, 0.5)
    rng = np.random.default_rng(12)
    times = np.linspace(0.0, 100.0, 201)
    positions = 2.0 * times + 1e-3 * rng.standard_normal(times.shape)
    trace = FrontTrace(hab, times, positions)
    est = estimate_speed(trace, burn_in_fraction=0.5)
    assert abs(est.slope - 2.0) < 1e-2
    assert est.rms_residual < 5e-3


def test_estimate_speed_errors():
    hab = Habitat("continuum", 1, 100.0, 0.5)
    times = np.linspace(0.0, 10.0, 6)
    trace = FrontTrace(hab, times, 2.0 * times)
    with pytest.raises(ValueError, match="too short"):
        estimate_speed(trace, 0.5)
    # boundary hit before burn-in
    times = np.linspace(0.0, 10.0, 101)
    fast = FrontTrace(hab, times, 50.0 * times)
    with pytest.raises(ValueError, match="boundary"):
        estimate_speed(fast, 0.5)
    # NaN inside the window
    pos = 2.0 * times
    pos[80] = math.nan
    trace = FrontTrace(hab, times, pos)
    with pytest.raises(ValueError, match="empty level set"):
        estimate_speed(trace, 0.5)


FISHER = Reaction.linear(1.0, 1.0)


@pytest.fixture(scope="module")
def small_fisher_run():
    hab = Habitat("continuum", 1, 100.0, 0.1)
    op = DispersalOperator.random()
    u0 = make_front_initial(hab, 1.0, 1.0)
    dt = 0.95 * stability_dt_bound(op, FISHER, u0)
    (traj,) = evolve(op, [FISHER], [u0], T=30.0, dt=dt, record_every=60)
    return hab, traj


def test_cone_verdict_and_negative_controls(small_fisher_run):
    hab, traj = small_fisher_run
    v = verify_spreading_cones(traj, 1.0, 2.0, 1.0)
    assert v.ok, v
    doubled = verify_spreading_cones(traj, 1.0, 4.0, 1.0)
    assert not doubled.ok and not doubled.inside_ok
    halved = verify_spreading_cones(traj, 1.0, 1.0, 1.0)
    assert not halved.ok and not halved.outside_ok and halved.inside_ok


def test_speed_levels_are_robust(small_fisher_run):
    # pulled front: levels 0.25, 0.5, 0.75 of u0 give slopes pairwise
    # within 2 percent
    hab, traj = small_fisher_run
    slopes = []
    for frac in (0.25, 0.5, 0.75):
        tr = track_front(traj, 1.0, frac)
        slopes.append(estimate_speed(tr, 0.5, exclusion=1.0).slope)
    spread = (max(slopes) - min(slopes)) / np.mean(slopes)
    assert spread < 0.02, slopes


def test_invariance_cell_and_profile_convergence():
    hab = Habitat("continuum", 1, 150.0, 0.1)
    op = DispersalOperator.random()
    amplitudes, T = (0.0, 1.0), 50.0
    report = run_speed_invariance_sweep(op, Reaction.linear(1.0, 1.0, radius=1.0), hab, 1.0, T,
                                        amplitudes=amplitudes)
    assert report.ok_theory
    assert report.ok_pairwise
    for amplitude in amplitudes:
        # behind the half-speed cone the state has locked onto u*
        reaction = Reaction.linear(1.0, 1.0, amplitude=amplitude, radius=1.0)
        (run,) = run_front(op, [reaction], hab, 1.0, T)
        u_star = solve_stationary(op, reaction, hab, FROM_ABOVE).u_star
        behind = hab.projection(unit_direction(1.0, 1)) <= 0.5 * run.theory.c_star * T
        deviation = np.abs(run.traj.final.values[behind] - u_star.values[behind]).max()
        assert deviation < 0.05, (amplitude, deviation)


def test_invariance_rejects_nonpositive_growth_at_zero():
    hab = Habitat("continuum", 1, 60.0, 0.1)
    with pytest.raises(ValueError, match="nonpositive"):
        run_speed_invariance_sweep(DispersalOperator.random(),
                                   Reaction.linear(1.0, 1.0, radius=1.0), hab, 1.0, 10.0,
                                   amplitudes=(0.0, -1.2))


def test_sweep_runs_are_its_front_runs():
    # the cells march as one stack in increasing amplitude, at the one plan
    # of the stack, and each cell is run_front on its reaction at that
    # plan's step, and that reaction's march, bit for bit
    op = DispersalOperator.discrete(LatticeWeights.symmetric(1, 1.0))
    hab = Habitat("lattice", 1, 80)
    base = Reaction.linear(1.0, 1.0, radius=2.0)
    report = run_speed_invariance_sweep(op, base, hab, 1.0, 20.0, amplitudes=(1.0, -0.5, 0.0))
    assert [run.reaction.amplitude for run in report.runs] == [-0.5, 0.0, 1.0]
    u0 = make_front_initial(hab, 1.0, base.u0_star)
    plan = march_plan(op, [run.reaction for run in report.runs], [u0] * 3)
    # the amplitudes' own steps differ, so the stack's is the smallest
    steps = [march_plan(op, [run.reaction], [u0]).dt for run in report.runs]
    assert plan.dt == min(steps) < max(steps)
    for run in report.runs:
        (alone,) = run_front(op, [run.reaction], hab, 1.0, 20.0, dt=plan.dt)
        assert alone.traj.scheme == run.traj.scheme == plan.scheme
        assert run.traj.rhs_evals == alone.traj.rhs_evals == report.runs[0].traj.rhs_evals
        assert run.estimate.slope == alone.estimate.slope
        assert np.array_equal(run.trace.times, alone.trace.times)
        assert np.array_equal(run.trace.positions, alone.trace.positions, equal_nan=True)
        assert run.traj.final.values.tobytes() == alone.traj.final.values.tobytes()
        assert run.traj.clip_count == alone.traj.clip_count
        assert run.rel_error == alone.rel_error and run.ok_theory == alone.ok_theory
        assert run.cones == alone.cones
        # and the march of its own reaction, outside the front runs
        (marched,) = march(op, [run.reaction], [u0], 20.0, dt=plan.dt)
        assert run.traj.final.values.tobytes() == marched.final.values.tobytes()
        assert np.array_equal(run.trace.positions, track_front(marched, 1.0, 0.5).positions,
                              equal_nan=True)
    assert report.c_theory == report.runs[0].theory.c_star
    for amplitudes in ((1.0,), (0.5, 0.5), ()):
        with pytest.raises(ValueError, match="distinct"):
            run_speed_invariance_sweep(op, base, hab, 1.0, 20.0, amplitudes=amplitudes)


def test_compact_checks_small_nonlocal():
    hab = Habitat("continuum", 1, 60.0, 0.1)
    op = DispersalOperator.nonlocal_(Kernel.from_profile("triangle", 1.0, 0.1, 1))
    rea = Reaction.linear(1.0, 1.0, amplitude=0.5, radius=1.0)
    v = run_compact_spreading_checks(op, rea, hab, 1, T=50.0)
    assert v.ok
    bad = run_compact_spreading_checks(op, rea, hab, 1, T=50.0, c_scale=0.5)
    assert not bad.ok


def test_compact_checks_large_carrying_capacity():
    # u0* = r0 / slope is read, not searched for: K = 1e9 costs nothing extra
    op = DispersalOperator.discrete(LatticeWeights.symmetric(1, 1.0))
    rea = Reaction.logistic(1.0, 1e9)
    v = run_compact_spreading_checks(op, rea, Habitat("lattice", 1, 80), 1, T=25.0)
    assert v.ok and v.threshold == 0.01 * rea.u0_star


def test_cone_empty_error():
    hab = Habitat("continuum", 1, 20.0, 0.25)
    op = DispersalOperator.random()
    with pytest.raises(ConeEmptyError):
        run_compact_spreading_checks(op, FISHER, hab, 1, T=15.0)


def test_cone_empty_error_matches_the_snapshot_oracle():
    # the streamed check raises from inside the march, at the same record
    # and with the same message as the check over the kept history
    hab = Habitat("continuum", 1, 20.0, 0.25)
    op = DispersalOperator.random()
    with pytest.raises(ConeEmptyError) as oracle:
        oracles.compact_spreading_worst(op, FISHER, hab, 1, T=15.0)
    with pytest.raises(ConeEmptyError) as streamed:
        run_compact_spreading_checks(op, FISHER, hab, 1, T=15.0)
    assert str(streamed.value) == str(oracle.value)
    assert str(streamed.value).startswith("outer region empty at t=")


_BUMP = Reaction.linear(1.0, 1.0, amplitude=0.5, radius=1.0)


@functools.lru_cache(maxsize=None)
def _small_setup(kind, dim):
    """(op, habitat, u_star) on a grid of at most 81 x 81 points."""
    h = 0.25 if dim == 1 else 0.5
    if kind == "random":
        op, hab = DispersalOperator.random(), Habitat("continuum", dim, 20.0, h)
    elif kind == "nonlocal":
        op = DispersalOperator.nonlocal_(Kernel.from_profile("triangle", 1.0, h, dim))
        hab = Habitat("continuum", dim, 20.0, h)
    else:
        op, hab = DispersalOperator.discrete(LatticeWeights.symmetric(dim, 1.0)), \
            Habitat("lattice", dim, 20.0)
    return op, hab, solve_stationary(op, _BUMP, hab, FROM_ABOVE).u_star


def _outcome(check):
    """The check's result, or the message of the ConeEmptyError it raised."""
    try:
        return check()
    except ConeEmptyError as err:
        return str(err)


@settings(deadline=None, derandomize=True, max_examples=30)
@given(kind=st.sampled_from(["random", "nonlocal", "discrete"]), dim=st.sampled_from([1, 2]),
       clause=st.sampled_from([1, 2, 3, 4]), c_scale=st.sampled_from([0.5, 1.0, 2.0]))
def test_streamed_checks_match_the_snapshot_oracle(kind, dim, clause, c_scale):
    """The observers of run_compact_spreading_checks and run_front fold
    exactly what the kept snapshot history gives: the same worst value
    (or the same empty-region error), clip count and right-hand sides,
    the same front position at every record and the same cone verdict."""
    op, hab, u_star = _small_setup(kind, dim)
    oracle = _outcome(lambda: oracles.compact_spreading_worst(
        op, _BUMP, hab, clause, T=4.0, r=2.0, u_star=u_star, c_scale=c_scale))
    streamed = _outcome(lambda: run_compact_spreading_checks(
        op, _BUMP, hab, clause, T=4.0, r=2.0, c_scale=c_scale))
    if not isinstance(streamed, str):
        streamed = (streamed.worst_value, streamed.clip_count, streamed.rhs_evals)
    assert streamed == oracle

    xi = (1.0,) + (0.0,) * (dim - 1)
    (run,) = run_front(op, [_BUMP], hab, xi, 6.0)
    traj, trace = oracles.front_history(op, _BUMP, hab, xi, 6.0)
    assert np.array_equal(run.trace.times, trace.times)
    assert np.array_equal(run.trace.positions, trace.positions, equal_nan=True)
    assert np.array_equal(run.traj.final.values, traj.final.values)
    assert np.array_equal(run.traj.initial.values, traj.initial.values)
    assert (run.traj.clip_count, run.traj.rhs_evals) == (traj.clip_count, traj.rhs_evals)
    assert run.cones == verify_spreading_cones(traj, xi, run.theory.c_star, _BUMP.u0_star)


def test_compact_checks_keep_no_snapshot_history():
    # spread_random's 209 x 209 grid: the check used to keep every one of
    # about 210 recorded grids for a window of the last quarter.  Streamed,
    # the traced peak is about 51 grids, 48 of them the untouched 16 MiB
    # heap block of the stepping loop.
    hab = Habitat("continuum", 2, 26.0, 0.25)
    rea = Reaction.linear(1.0, 1.0, amplitude=0.5, radius=1.5)
    grid_bytes = hab.full(0.0).values.nbytes
    tracemalloc.start()
    try:
        v = run_compact_spreading_checks(DispersalOperator.random(), rea, hab, 3, T=7.0,
                                         margin=0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v.ok
    assert peak <= 64 * grid_bytes, peak / grid_bytes


def test_front_run_keeps_no_snapshot_history():
    # a 209 x 209 random front run folds the front and the cones as the
    # march goes: it used to keep the initial grid and the 60 records of
    # the trailing window, a traced peak of 72 grids; now the march's own
    # two snapshots remain and the peak is about 54 grids
    hab = Habitat("continuum", 2, 26.0, 0.25)
    rea = Reaction.linear(1.0, 1.0, amplitude=0.5, radius=1.5)
    grid_bytes = hab.full(0.0).values.nbytes
    tracemalloc.start()
    try:
        (run,) = run_front(DispersalOperator.random(), [rea], hab, (1.0, 0.0), 8.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(run.traj.snapshots) == 2 and run.traj.times[0] == 0.0
    assert peak <= 64 * grid_bytes, peak / grid_bytes


def test_cone_scales_are_checked_before_the_march():
    # 0 < margin < 1 and a positive cone speed or c_scale, refused by every
    # entry point up front: the inner cone then always holds the origin
    hab = Habitat("continuum", 1, 20.0, 0.25)
    op = DispersalOperator.random()
    traj = oracles.front_history(op, FISHER, hab, 1.0, 1.0)[0]
    for margin in (0.0, 1.0, 1.5, -0.2, math.nan):
        with pytest.raises(ValueError, match="margin"):
            run_front(op, [FISHER], hab, 1.0, 5.0, margin=margin)
        with pytest.raises(ValueError, match="margin"):
            run_compact_spreading_checks(op, FISHER, hab, 2, T=5.0, margin=margin)
        with pytest.raises(ValueError, match="margin"):
            verify_spreading_cones(traj, 1.0, 2.0, 1.0, margin)
    for c in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="cone speed"):
            run_compact_spreading_checks(op, FISHER, hab, 2, T=5.0, c_scale=c)
        with pytest.raises(ValueError, match="cone speed"):
            verify_spreading_cones(traj, 1.0, c, 1.0)


def test_rkc2_front_speed_matches_rk4():
    # the random kind's front march at h = 0.1 is rkc2; evolve (rk4) at
    # its automatic step, tracked and fitted as run_front does, is the
    # oracle.  Fisher front: speeds agree within 1e-3.
    hab = Habitat("continuum", 1, 120.0, 0.1)
    op = DispersalOperator.random()
    (fast,) = run_front(op, [FISHER], hab, 1.0, 40.0)
    u0 = make_front_initial(hab, 1.0, 1.0)
    dt = 0.95 * stability_dt_bound(op, FISHER, u0)
    (oracle,) = evolve(op, [FISHER], [u0], 40.0, dt, record_every=math.ceil(40.0 / dt / 240))
    trace = track_front(oracle, 1.0, 0.5 * FISHER.u0_star)
    slope = estimate_speed(trace, 0.5, exclusion=op.delta0 + 10.0 * hab.spacing).slope
    assert (fast.traj.scheme, oracle.scheme) == ("rkc2", "rk4")
    assert fast.traj.clip_count == 0 and oracle.clip_count == 0
    assert fast.traj.rhs_evals < oracle.rhs_evals / 5
    gap = abs(fast.estimate.slope - slope) / slope
    assert gap <= 1e-3, gap


@pytest.mark.parametrize("kind", ["nonlocal", "discrete"])
@pytest.mark.parametrize("amplitude", [-0.5, 0.0, 1.0])
def test_rk4_march_front_speed_matches_evolve(kind, amplitude):
    # the bounded kinds' front march is rk4 at its stability step; evolve
    # at 0.95 * stability_dt_bound, the order-preserving step, tracked and
    # fitted as run_front does, is the oracle: speeds agree within 1e-3,
    # and the march spends under a third of the oracle's right-hand sides
    if kind == "discrete":
        hab, T = Habitat("lattice", 1, 200.0), 100.0
        op = DispersalOperator.discrete(LatticeWeights.symmetric(1, 1.0))
    else:
        hab, T = Habitat("continuum", 1, 120.0, 0.25), 40.0
        op = DispersalOperator.nonlocal_(Kernel.from_profile("triangle", 1.0, 0.25, 1))
    rea = Reaction.linear(1.0, 1.0, amplitude=amplitude, radius=2.0)
    (fast,) = run_front(op, [rea], hab, 1.0, T)
    u0 = make_front_initial(hab, 1.0, 1.0)
    dt = 0.95 * stability_dt_bound(op, rea, u0)
    (oracle,) = evolve(op, [rea], [u0], T, dt, record_every=math.ceil(T / dt / 240))
    trace = track_front(oracle, 1.0, 0.5 * rea.u0_star)
    slope = estimate_speed(trace, 0.5, exclusion=op.delta0 + 10.0 * hab.spacing).slope
    assert (fast.traj.scheme, oracle.scheme) == ("rk4", "rk4")
    assert fast.traj.clip_count == 0 and oracle.clip_count == 0
    assert fast.traj.rhs_evals < oracle.rhs_evals / 3
    gap = abs(fast.estimate.slope - slope) / slope
    assert gap <= 1e-3, gap


def test_rkc2_compact_ramp_in_two_dimensions_does_not_clip():
    # clause 3 on a 2-D Laplacian habitat from the compact ramp: the rkc2
    # march keeps every value nonnegative without clipping
    hab = Habitat("continuum", 2, 26.0, 0.25)
    rea = Reaction.linear(1.0, 1.0, amplitude=0.5, radius=1.5)
    v = run_compact_spreading_checks(DispersalOperator.random(), rea, hab, 3, T=7.0, margin=0.5)
    assert v.scheme == "rkc2" and v.clip_count == 0
    assert v.ok, v

import math
import os
import platform
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles

import kpplab
from kpplab import (
    DispersalOperator,
    Field,
    Habitat,
    IntegrationDivergedError,
    Kernel,
    LatticeWeights,
    Reaction,
    StabilityError,
    check_comparison,
    check_exponential_supersolution,
    check_part_metric_decay,
    evolve,
    make_front_initial,
    part_metric,
    stability_dt_bound,
)
from kpplab.dynamics import (
    RK4,
    RKC2,
    MarchPlan,
    _step_loop,
    march,
    march_plan,
    rkc2_coefficients,
)

HAB = Habitat("continuum", 1, 10.0, 0.25)
FISHER = Reaction.linear(1.0, 1.0)


def _dt(op, reaction, u0):
    return 0.95 * stability_dt_bound(op, reaction, u0)


def _three_ops():
    return [
        (DispersalOperator.random(), HAB),
        (DispersalOperator.nonlocal_(Kernel.from_profile("triangle", 1.0, 0.25, 1)), HAB),
        (DispersalOperator.discrete(LatticeWeights.symmetric(1, 1.0)), Habitat("lattice", 1, 10)),
    ]


def logistic_exact(u0, r0, K, t):
    # closed form of u' = r0 u (1 - u/K)
    return K * u0 * math.exp(r0 * t) / (K + u0 * (math.exp(r0 * t) - 1.0))


def test_constant_equilibrium_is_preserved():
    op = DispersalOperator.random()
    (traj,) = evolve(op, [FISHER], [HAB.full(1.0)], T=2.0, dt=_dt(op, FISHER, HAB.full(1.0)),
                     record_every=20)
    for snap in traj.snapshots:
        assert np.abs(snap.values - 1.0).max() < 1e-10


def test_zero_is_invariant_exactly():
    for op, hab in _three_ops():
        (traj,) = evolve(op, [FISHER], [hab.zeros()], T=1.0, dt=_dt(op, FISHER, hab.zeros()))
        assert np.all(traj.final.values == 0.0)


def test_matches_scalar_logistic_closed_form():
    rea = Reaction.logistic(1.0, 2.0)
    op = DispersalOperator.random()
    u0 = HAB.full(0.1)
    (traj,) = evolve(op, [rea], [u0], T=1.0, dt=0.01, record_every=10)
    exact = logistic_exact(0.1, 1.0, 2.0, 1.0)
    assert np.abs(traj.final.values - exact).max() < 1e-4


def test_step_refinement_orders():
    # error against the scalar logistic closed form scales like dt^4
    rea = Reaction.logistic(1.0, 2.0)
    op = DispersalOperator.random()
    u0 = HAB.full(0.1)
    exact = logistic_exact(0.1, 1.0, 2.0, 1.0)

    def err(dt):
        (traj,) = evolve(op, [rea], [u0], T=1.0, dt=dt, record_every=10 ** 9)
        return abs(traj.final.values.max() - exact)

    r1, r2 = err(0.02), err(0.01)
    assert 10.0 < r1 / r2 < 22.0


def test_stability_bound_refusal():
    op = DispersalOperator.random()
    bound = stability_dt_bound(op, FISHER, HAB.full(1.0))
    with pytest.raises(StabilityError, match="stability bound"):
        evolve(op, [FISHER], [HAB.full(1.0)], T=1.0, dt=bound * 1.5)


def test_record_every_below_one_is_refused():
    op = DispersalOperator.random()
    for record_every in (0, -7):
        with pytest.raises(ValueError, match="record_every"):
            evolve(op, [FISHER], [HAB.full(1.0)], T=1.0, dt=0.01, record_every=record_every)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's mmap threshold")
def test_large_grid_steps_do_not_page_fault():
    # the 209 x 209 grid of perfbench/configs/spread_random.cfg: every rk4
    # or rkc2 step makes a dozen 341 KiB temporaries, which must come from
    # the heap and not from fresh mappings (about 2,300 minor faults a
    # step).  The 105 x 105 nonlocal march of spread_nonlocal.cfg holds
    # up to 22 pair differences at once in each apply.  A fresh process,
    # since what other tests import moves glibc's threshold; a one-step
    # warm-up first grows the heap.
    code = textwrap.dedent("""
        import resource
        from kpplab import (DispersalOperator, Habitat, Kernel, Reaction, evolve,
                            stability_dt_bound)
        from kpplab.dynamics import march, march_plan
        hab = Habitat("continuum", 2, 26.0, 0.25)
        op, rea = DispersalOperator.random(), Reaction.linear(1.0, 1.0, 0.5, 1.5)
        u0 = hab.full(0.5)
        dt = 0.95 * stability_dt_bound(op, rea, u0)
        evolve(op, [rea], [u0], T=dt, dt=dt)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        evolve(op, [rea], [u0], T=20 * dt, dt=dt, record_every=10 ** 9)
        print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
        dt = march_plan(op, [rea], [u0]).dt
        march(op, [rea], [u0], T=dt)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert march(op, [rea], [u0], T=20 * dt, record_every=10 ** 9)[0].scheme == "rkc2"
        print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
        hab = Habitat("continuum", 2, 26.0, 0.5)
        op = DispersalOperator.nonlocal_(Kernel.from_profile("triangle", 2.0, 0.5, 2))
        u0 = hab.full(0.5)
        dt = march_plan(op, [rea], [u0]).dt
        march(op, [rea], [u0], T=dt)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert march(op, [rea], [u0], T=20 * dt, record_every=10 ** 9)[0].scheme == "rk4"
        print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
    """)
    src = os.path.dirname(os.path.dirname(kpplab.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    rk4_faults, rkc2_faults, nonlocal_faults = map(float, out.stdout.split())
    assert rk4_faults < 100.0
    assert rkc2_faults < 100.0
    assert nonlocal_faults < 100.0


def test_divergence_is_reported_with_time(monkeypatch):
    # rk4 at twice the Laplacian's bound h^2 / (2 dim 1.2), forced past
    # the bound check, amplifies the grid's checkerboard mode until it
    # escapes the invariant region [0, M], M = beta0 + u0* = 2; the guard
    # must catch it and name the first bad time
    op = DispersalOperator.random()
    u0 = Field(HAB, 0.5 + 1e-3 * (-1.0) ** np.arange(HAB.n_per_axis))
    dt = 2.0 * HAB.spacing ** 2 / (2.0 * HAB.dim * 1.2)
    monkeypatch.setattr("kpplab.dynamics.stability_dt_bound", lambda *args: dt)
    with pytest.raises(IntegrationDivergedError) as err:
        evolve(op, [FISHER], [u0], T=1.0, dt=dt)
    # t, max and bound all print as plain %g numbers, never a numpy repr
    found = re.fullmatch(r"integration diverged at t=(\S+) \(max=(\S+), bound=2\)",
                         str(err.value))
    assert found, str(err.value)
    t, top = map(float, found.groups())
    assert 0.0 < t <= 1.0 + dt and not top <= 2.0


def test_random_step_bound_includes_reaction():
    # f = 20 - 20u at h = 1: the Laplacian bound alone (0.417) lets rk4
    # clip over a thousand negatives; the reaction term must shrink it
    hab = Habitat("continuum", 1, 20.0, 1.0)
    rea = Reaction.linear(20.0, 20.0)
    op = DispersalOperator.random()
    u0 = make_front_initial(hab, 1.0, 1.0)
    max_f = float(np.abs(rea.evaluate(hab, np.full(hab.shape, rea.beta0 + 1.0))).max())
    bound = stability_dt_bound(op, rea, u0)
    assert bound <= 0.25 / (1.0 + max_f + 1.0)  # the random kind's clause mass is 1
    (traj,) = evolve(op, [rea], [u0], T=20.0, dt=_dt(op, rea, u0), record_every=10 ** 9)
    assert traj.clip_count == 0
    # where the Laplacian is the stiffer part, its bound is unchanged
    assert stability_dt_bound(op, FISHER, HAB.full(0.5)) == HAB.spacing ** 2 / 2.4


def test_positivity_and_bounds_on_fixture_suite():
    # u0 >= 0 stays >= 0 with zero clips for rk4 at the prescribed dt,
    # and u0 <= M with f(.,M) < 0 keeps snapshots <= M + 1e-8
    rng = np.random.default_rng(5)
    for op, hab in _three_ops():
        u0 = Field(hab, 2.0 * rng.random(hab.shape))
        dt = _dt(op, FISHER, u0)
        (traj,) = evolve(op, [FISHER], [u0], T=3.0, dt=dt, record_every=25)
        assert traj.clip_count == 0
        for snap in traj.snapshots:
            assert snap.values.min() >= 0.0
            assert snap.values.max() <= 2.0 + 1e-8


def test_comparison_identical_and_scaled():
    op = DispersalOperator.random()
    u0 = make_front_initial(HAB, 1.0, 0.5)
    dt = _dt(op, FISHER, u0)
    rep = check_comparison(op, FISHER, u0, u0, T=2.0, dt=dt, record_every=10)
    assert rep.ok and rep.violation == 0.0

    u1 = Field(HAB, 1.1 * u0.values)
    rep = check_comparison(op, FISHER, u0, u1, T=2.0, dt=dt, record_every=10)
    assert rep.ok, rep

    rep = check_comparison(op, FISHER, u0, HAB.full(2.0), T=2.0, dt=dt, record_every=10)
    assert rep.ok, rep

    # strict-ordering spot check: distinct ordered data leaves a strictly
    # positive gap at an interior point after t = 1
    t1, t2 = evolve(op, [FISHER] * 2, [u0, u1], T=2.0, dt=dt, record_every=10)
    center = HAB.half_points
    k = int(np.argmin(np.abs(t1.times - 1.0)))
    assert t2.snapshots[k].values[center] - t1.snapshots[k].values[center] > 0.0


@st.composite
def _order_problems(draw):
    """(op, reaction, habitat): kind, dimension, clamp or periodic boundary,
    kernel profile and delta0, symmetric or asymmetric lattice rates and a
    localized growth law, on grids small enough for many rk4 marches."""
    kind = draw(st.sampled_from(["random", "nonlocal", "discrete"]))
    dim = draw(st.integers(1, 2))
    boundary = draw(st.sampled_from(["clamp", "periodic"]))
    r0 = draw(st.floats(0.5, 2.0))
    amplitude = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.0, 0.8)) * r0
    reaction = Reaction.linear(r0, draw(st.floats(0.5, 2.0)), amplitude=amplitude, radius=1.0)
    if kind == "discrete":
        offsets = LatticeWeights.symmetric(dim).offsets
        if draw(st.booleans()):
            rates = [draw(st.floats(0.3, 2.0))] * (2 * dim)
        else:
            rates = draw(st.lists(st.floats(0.2, 2.0), min_size=2 * dim, max_size=2 * dim))
        op = DispersalOperator.discrete(LatticeWeights(dim, offsets, rates))
        return op, reaction, Habitat("lattice", dim, 6 if dim == 1 else 3, boundary=boundary)
    spacing = draw(st.sampled_from([0.25, 0.5]))
    habitat = Habitat("continuum", dim, 3.0 if dim == 1 else 2.0, spacing, boundary=boundary)
    if kind == "random":
        return DispersalOperator.random(), reaction, habitat
    profile = draw(st.sampled_from(["uniform", "triangle", "mollifier"]))
    kernel = Kernel.from_profile(profile, draw(st.floats(2.0 * spacing, 1.5)), spacing, dim)
    return DispersalOperator.nonlocal_(kernel), reaction, habitat


def _fixed_order_examples(seeds):
    """@example entries that always run: each _three_ops case with Fisher
    growth, one per seed."""
    def decorate(test):
        for op, hab in _three_ops():
            for seed in seeds:
                test = example((op, FISHER, hab), seed)(test)
        return test

    return decorate


@settings(deadline=None, derandomize=True, max_examples=100)
@given(_order_problems(), st.integers(0, 2 ** 16))
@_fixed_order_examples(seeds=(17, 18, 19, 20, 21))
def test_comparison_across_kinds_random_pairs(problem, seed):
    """The comparison principle under rk4 at the automatic step, 0.95
    times the bound: rough ordered data lo <= hi stay ordered."""
    op, rea, hab = problem
    rng = np.random.default_rng(seed)
    lo = rng.random(hab.shape) * rea.u0_star
    hi = lo + rng.random(hab.shape)
    dt = _dt(op, rea, Field(hab, hi))
    rep = check_comparison(op, rea, Field(hab, lo), Field(hab, hi), T=1.0, dt=dt, record_every=10)
    assert rep.ok, (op.kind, rep)


def test_comparison_input_errors():
    op = DispersalOperator.random()
    lo, hi = HAB.full(1.0), HAB.full(0.5)
    dt = _dt(op, FISHER, lo)
    with pytest.raises(ValueError, match="precondition"):
        check_comparison(op, FISHER, lo, hi, T=1.0, dt=dt)
    coarse = Habitat("continuum", 1, 10.0, 0.5)
    with pytest.raises(ValueError, match="share one habitat"):
        check_comparison(op, FISHER, hi, coarse.full(1.0), T=1.0, dt=dt)


@pytest.mark.parametrize("boundary", ["clamp", "periodic"])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("kind", ["random", "nonlocal", "discrete"])
def test_comparison_matches_the_two_evolve_oracle(kind, dim, boundary):
    # the pair marched as one stack reports the violation and its time,
    # bit for bit, as the check of two single-row evolve histories did;
    # hi sits one ulp above lo, so 8 of the 12 cases see a roundoff
    # violation of an ulp or two, at a time the oracle must match
    op, hab = _stack_setup(kind, dim, boundary)
    rea = Reaction.linear(1.0, 1.0, amplitude=0.5, radius=1.5)
    lo = Field(hab, 0.3 + np.random.default_rng(13).random(hab.shape))
    hi = Field(hab, np.nextafter(lo.values, np.inf))
    dt = _dt(op, rea, hi)
    got = check_comparison(op, rea, lo, hi, T=2.0, dt=dt, record_every=7)
    (t_lo,) = evolve(op, [rea], [lo], T=2.0, dt=dt, record_every=7)
    (t_hi,) = evolve(op, [rea], [hi], T=2.0, dt=dt, record_every=7)
    want = oracles.check_comparison(t_lo, t_hi)
    assert (got.ok, got.violation, got.worst_time) == (want.ok, want.violation, want.worst_time)


@pytest.mark.parametrize("op, hab", [
    (DispersalOperator.random(), Habitat("continuum", 1, 10.0, 1.0)),
    *_three_ops()[1:],
], ids=["random", "nonlocal", "discrete"])
def test_a_stack_steps_within_every_rows_bound(op, hab):
    # the second row has the larger max and so the smaller bound, which
    # the first row's alone would step past
    lo, hi = hab.full(0.5), hab.full(3.0)
    bound = stability_dt_bound(op, FISHER, hi)
    assert 1.01 * bound < stability_dt_bound(op, FISHER, lo)
    with pytest.raises(StabilityError):
        evolve(op, [FISHER] * 2, [lo, hi], T=1.0, dt=1.01 * bound)
    with pytest.raises(StabilityError):
        check_comparison(op, FISHER, lo, hi, T=1.0, dt=1.01 * bound)
    assert check_comparison(op, FISHER, lo, hi, T=1.0, dt=bound).ok


def test_part_metric_basics():
    u = HAB.full(0.8)
    assert part_metric(u, u) == 0.0
    v = Field(HAB, 2.0 * u.values)
    assert abs(part_metric(u, v) - math.log(2.0)) < 1e-14
    with pytest.raises(ValueError):
        part_metric(HAB.zeros(), u)


def part_metric_bisection_oracle(u, v, tol=1e-12):
    """Independent oracle: bisect the smallest alpha >= 1 with
    u/alpha <= v <= alpha u."""

    def admissible(alpha):
        return np.all(u / alpha <= v) and np.all(v <= alpha * u)

    lo, hi = 1.0, 2.0
    while not admissible(hi):
        hi *= 2.0
    while hi - lo > tol * hi:
        mid = 0.5 * (lo + hi)
        if admissible(mid):
            hi = mid
        else:
            lo = mid
    return math.log(hi)


def test_part_metric_matches_bisection_oracle():
    rng = np.random.default_rng(23)
    hab = Habitat("continuum", 1, 4.0, 0.5)  # 17 points
    for _ in range(10):
        u = 0.2 + rng.random(hab.shape)
        v = 0.2 + rng.random(hab.shape)
        got = part_metric(Field(hab, u), Field(hab, v))
        want = part_metric_bisection_oracle(u, v)
        assert abs(got - want) < 1e-10


def test_part_metric_decay():
    op = DispersalOperator.random()
    u0 = HAB.full(0.5)
    rep = check_part_metric_decay(op, FISHER, u0, u0, T=1.0,
                                  dt=_dt(op, FISHER, u0), record_every=10)
    assert rep.ok and np.all(rep.rhos == 0.0)

    v0 = HAB.full(1.5)
    rep = check_part_metric_decay(op, FISHER, u0, v0, T=4.0,
                                  dt=_dt(op, FISHER, v0), record_every=10)
    assert rep.ok
    assert rep.rhos[-1] < 0.05 * rep.rhos[0]  # decreasing toward 0


@settings(deadline=None, derandomize=True, max_examples=100)
@given(_order_problems(), st.integers(0, 2 ** 16))
@example((DispersalOperator.random(), Reaction.linear(1.0, 1.0, amplitude=0.5, radius=2.0), HAB),
         31)
@_fixed_order_examples(seeds=(31,))
def test_part_metric_decay_across_kinds(problem, seed):
    """The part metric between two rough strictly positive solutions does
    not increase under rk4 at the automatic step, 0.95 times the bound."""
    op, rea, hab = problem
    rng = np.random.default_rng(seed)
    a = Field(hab, 0.3 + rng.random(hab.shape))
    b = Field(hab, 0.3 + rng.random(hab.shape))
    dt = _dt(op, rea, Field(hab, np.maximum(a.values, b.values)))
    rep = check_part_metric_decay(op, rea, a, b, T=2.0, dt=dt, record_every=10)
    assert rep.ok, (op.kind, rep.violations)


def test_exponential_envelope():
    op = DispersalOperator.random()
    hab = Habitat("continuum", 1, 40.0, 0.1)
    u0 = hab.zeros()
    (traj,) = evolve(op, [FISHER], [u0], T=1.0, dt=_dt(op, FISHER, u0), record_every=50)
    rep = check_exponential_supersolution(traj, d=1.0, mu=1.0, c=2.0, xi=1.0)
    assert rep.ok  # zero data is trivially bounded

    front = make_front_initial(hab, 1.0, 0.5)
    proj = hab.projection(1.0)
    d = float((front.values * np.exp(np.minimum(proj, 60.0))).max()) * (1.0 + 1e-12)
    (traj,) = evolve(op, [FISHER], [front], T=10.0, dt=_dt(op, FISHER, front), record_every=100)
    ok_rep = check_exponential_supersolution(traj, d=d, mu=1.0, c=2.0, xi=1.0)
    assert ok_rep.ok, ok_rep
    # negative control: c below the spreading speed must be caught
    bad_rep = check_exponential_supersolution(traj, d=d, mu=1.0, c=1.0, xi=1.0)
    assert not bad_rep.ok

    with pytest.raises(ValueError, match="input error"):
        check_exponential_supersolution(traj, d=1e-6, mu=1.0, c=2.0, xi=1.0)


# ---------------------------------------------------------------- rkc2


def _scalar_amplification(dt, s, z):
    """R_s(z) from one step of the stage code on y' = (z / dt) y, y(0) = 1."""
    step = kpplab.dynamics._rkc2_stepper(dt, s)
    return step(lambda y: (z / dt) * y, np.ones_like(z))


def _max_linearized_reaction(reaction, habitat, top):
    """max |d_u(u f)| = max |f(x, 0) - 2 slope u| over the grid and u in
    [0, top], from f(x, 0) alone: the expression is linear in u."""
    f_zero = reaction.r0 + reaction.perturbation(habitat)
    return float(max(np.abs(f_zero).max(), np.abs(f_zero - 2.0 * reaction.slope * top).max()))


def _rk4_amplification(z):
    """R_4(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, the rk4 stability polynomial."""
    return 1.0 + z + z ** 2 / 2.0 + z ** 3 / 6.0 + z ** 4 / 24.0


def _beta(s):
    """The rkc2 stability interval (1 + w0) / w1 from numpy's Chebyshev
    polynomials, independently of the recurrences in kpplab.dynamics."""
    w0 = 1.0 + (2.0 / 13.0) / s ** 2
    cheb = np.polynomial.Chebyshev.basis(s)
    return (1.0 + w0) * cheb.deriv(2)(w0) / cheb.deriv(1)(w0)


@settings(deadline=None, derandomize=True)
@given(dim=st.sampled_from([1, 2]), spacing=st.sampled_from([0.05, 0.1, 0.25, 0.5, 1.0]),
       r0=st.floats(0.1, 20.0), slope=st.floats(0.05, 20.0), amplitude=st.floats(-2.0, 2.0),
       fraction=st.one_of(st.none(), st.floats(0.01, 1.0)))
def test_rkc2_stage_rule(dim, spacing, r0, slope, amplitude, fraction):
    """The stage count the march picks, at its automatic step or at an
    explicit one up to the bounded-operator clause, is stable and the
    smallest that is: |R_s(z)| <= 1 on [-dt rho, 0] (sampled from the
    stage code itself, and equal to the closed form a_s + b_s T_s(w0 +
    w1 z)), while s - 1 stages would leave beta(s - 1) < 1.05 dt rho.
    The rkc2 stage rule is checked on every draw; where march_plan picks
    rkc2, its plan is that step, that stage count and the clause, and
    where it picks rk4, the stability clause 0.6 * 2.785 / rho."""
    hab = Habitat("continuum", dim, 8.0 * spacing, spacing)
    rea = Reaction.linear(r0, slope, amplitude=amplitude * r0, radius=2.0 * spacing)
    op = DispersalOperator.random()
    u0 = make_front_initial(hab, (1.0,) + (0.0,) * (dim - 1), rea.u0_star)
    top = max(u0.max, rea.beta0) + rea.u0_star
    max_f = max(float(np.abs(rea.evaluate(hab, np.full(hab.shape, u))).max()) for u in (0.0, top))
    clause = 0.25 / (1.0 + max_f + 1.0)
    given_dt = None if fraction is None else fraction * clause
    rho = 4.0 * dim / spacing ** 2 + _max_linearized_reaction(rea, hab, top)
    dt = 0.5 * 0.95 * clause if given_dt is None else given_dt
    s = kpplab.dynamics._rkc2_stages(dt, rho)
    plan = march_plan(op, [rea], [u0], given_dt)
    if plan.scheme == RKC2:
        if given_dt is None:
            assert plan.dt == pytest.approx(0.5 * 0.95 * clause, rel=1e-12)
        else:
            assert plan.dt == given_dt
        assert plan.stages == kpplab.dynamics._rkc2_stages(plan.dt, rho)
        assert plan.bound == pytest.approx(clause, rel=1e-12)
    else:
        assert plan.stages == 4 and plan.bound == pytest.approx(0.6 * 2.785 / rho, rel=1e-12)

    assert rkc2_coefficients(s)[2] == pytest.approx(_beta(s), rel=1e-12)
    assert _beta(s) >= 1.05 * dt * rho
    assert s == 2 or _beta(s - 1) < 1.05 * dt * rho

    z = np.linspace(-dt * rho, 0.0, 4001)
    amp = _scalar_amplification(dt, s, z)
    assert np.abs(amp).max() <= 1.0
    w0 = 1.0 + (2.0 / 13.0) / s ** 2
    cheb = np.polynomial.Chebyshev.basis(s)
    b_s = cheb.deriv(2)(w0) / cheb.deriv(1)(w0) ** 2
    w1 = cheb.deriv(1)(w0) / cheb.deriv(2)(w0)
    closed = 1.0 - b_s * cheb(w0) + b_s * cheb(w0 + w1 * z)
    assert np.abs(amp - closed).max() <= 1e-12


@settings(deadline=None, derandomize=True, max_examples=60)
@given(kind=st.sampled_from(["random", "nonlocal", "discrete"]), dim=st.sampled_from([1, 2]),
       boundary=st.sampled_from(["clamp", "periodic"]),
       spacing=st.sampled_from([0.05, 0.1, 0.25, 0.5, 1.0]), r0=st.floats(0.1, 20.0),
       slope=st.floats(0.05, 20.0), amplitude=st.floats(-0.9, 2.0), height=st.floats(0.0, 10.0),
       seed=st.integers(0, 2 ** 32 - 1), fraction=st.one_of(st.none(), st.floats(0.01, 1.5)))
def test_march_plan_reads_only_the_max(kind, dim, boundary, spacing, r0, slope, amplitude,
                                       height, seed, fraction):
    """march_plan reads u0 only through its habitat and max(u0), so a
    constant field of that max gets the same plan, at the automatic step
    and at an explicit one on either side of the bound.  This is what
    lets the CLI check solver.dt before it builds the initial data."""
    if kind == "discrete":
        hab = Habitat("lattice", dim, 6.0, boundary=boundary)
        op = DispersalOperator.discrete(LatticeWeights.symmetric(dim, 1.0))
    else:
        hab = Habitat("continuum", dim, 6.0 * spacing, spacing, boundary=boundary)
        op = (DispersalOperator.random() if kind == "random" else
              DispersalOperator.nonlocal_(Kernel.from_profile("triangle", 2.0 * spacing,
                                                              spacing, dim)))
    rea = Reaction.linear(r0, slope, amplitude=amplitude * r0, radius=2.0 * hab.spacing)
    u0 = Field(hab, height * np.random.default_rng(seed).random(hab.shape))
    dt = None if fraction is None else fraction * march_plan(op, [rea], [u0]).bound
    assert march_plan(op, [rea], [u0], dt) == march_plan(op, [rea], [hab.full(u0.max)], dt)


def _plan_problems(kind, dim):
    """(operator, habitat) over fixed grids: every spacing, profile and
    radius delta0 of a continuum kind, every lattice rate."""
    if kind == "discrete":
        for rate in (0.25, 1.0, 4.0):
            yield (DispersalOperator.discrete(LatticeWeights.symmetric(dim, rate)),
                   Habitat("lattice", dim, 6.0))
        return
    for h in (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.5, 1.0):
        hab = Habitat("continuum", dim, 6.0 * h, h)
        if kind == "random":
            yield DispersalOperator.random(), hab
            continue
        for profile in ("uniform", "triangle", "mollifier"):
            for delta0 in (2.0 * h, 4.0 * h):
                yield DispersalOperator.nonlocal_(Kernel.from_profile(profile, delta0, h, dim)), hab


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("kind", ["random", "nonlocal", "discrete"])
def test_march_plan_matches_the_kind_gated_rule(kind, dim):
    """Without its kind gate march_plan picks every plan the gated rule
    did, field by field, at the automatic step and at an explicit one, so
    no bounded kind gets rkc2.  evolve's step bound is the clause for the
    bounded kinds and, for the random kind, the smaller of the clause and
    h^2 / (2.4 dim) to within 1 ulp."""
    compared = 0
    for op, hab in _plan_problems(kind, dim):
        for amplitude in (-0.9, 0.0, 3.0):
            for capacity in (2.0 ** -20, 1e-2, 1.0, 1e3, 1e6):
                rea = Reaction.logistic(1.0, capacity, amplitude=amplitude,
                                        radius=2.0 * hab.spacing)
                u0 = hab.full(rea.u0_star)
                expected = oracles.kind_gated_plan(op, rea, u0)
                for dt in (None, 0.5 * expected.bound):
                    plan = march_plan(op, [rea], [u0], dt)
                    assert plan == oracles.kind_gated_plan(op, rea, u0, dt), (op.kind, hab, rea)
                    assert plan.scheme == RK4 or kind == "random"
                    compared += 1
                max_f = kpplab.dynamics._reaction_maxima(rea.bind(hab), rea.ceiling(u0.max))[0]
                mass = op.weights.rate_sum if kind == "discrete" else 1.0
                clause = 0.25 / (mass + max_f + 1.0)
                bound = stability_dt_bound(op, rea, u0)
                if kind == "random":
                    laplacian = hab.spacing ** 2 / (2.4 * dim)
                    assert abs(bound - min(clause, laplacian)) <= math.ulp(laplacian)
                else:
                    assert bound == clause
    assert compared >= 90


def _operator_matrix(op, hab):
    """The dispersal operator on hab as a dense matrix, one apply per column."""
    disp = op.bind(hab)
    eye = np.eye(hab.n_points)
    return np.stack([disp(col.reshape(hab.shape)).ravel() for col in eye], axis=1)


@settings(deadline=None, derandomize=True, max_examples=60)
@given(kind=st.sampled_from(["random", "nonlocal", "discrete"]), dim=st.sampled_from([1, 2]),
       boundary=st.sampled_from(["clamp", "periodic"]),
       spacing=st.sampled_from([0.05, 0.1, 0.25, 0.5, 1.0]), r0=st.floats(0.1, 20.0),
       slope=st.floats(0.05, 20.0), amplitude=st.floats(-0.9, 2.0), height=st.floats(0.0, 10.0))
def test_march_step_is_stable(kind, dim, boundary, spacing, r0, slope, amplitude, height):
    """The march's automatic step lies in its scheme's stability region for
    rho = rho_D + max|f(x, 0) - 2 slope u| over u in [0, M], with rho_D =
    4 dim / h^2 (random) or 2 mass.  The assembled operator D shows why
    rho is a Gershgorin bound of the linearized right-hand side D +
    diag(f(x, 0) - 2 slope u): each row's disc lies in |z + rho_D / 2| <=
    rho_D / 2, and every row of the Jacobian at u = 0 and at u = M has
    absolute sum at most rho.  rk4 plans take dt rho <= 0.95 * 0.6 *
    2.785, and |R_4| <= 1 on [-dt rho, 0] and on the circle |z + dt rho /
    2| = dt rho / 2, hence on the scaled discs of D, which nest inside it;
    rkc2 plans take beta(s) >= 1.05 dt rho."""
    if kind == "discrete":
        hab = Habitat("lattice", dim, 6.0, boundary=boundary)
        op = DispersalOperator.discrete(LatticeWeights.symmetric(dim, 1.0))
        rho_d = 2.0 * 2.0 * dim
    else:
        hab = Habitat("continuum", dim, 6.0 * spacing, spacing, boundary=boundary)
        op = (DispersalOperator.random() if kind == "random" else
              DispersalOperator.nonlocal_(Kernel.from_profile("triangle", 2.0 * spacing,
                                                              spacing, dim)))
        rho_d = 4.0 * dim / spacing ** 2 if kind == "random" else 2.0
    rea = Reaction.linear(r0, slope, amplitude=amplitude * r0, radius=2.0 * hab.spacing)
    u0 = hab.full(height)
    top = max(height, rea.beta0) + rea.u0_star
    rho = rho_d + _max_linearized_reaction(rea, hab, top)

    d = _operator_matrix(op, hab)
    centre = -np.diag(d)
    assert np.all(np.abs(d).sum(axis=1) - centre <= centre * (1.0 + 1e-12))
    assert centre.max() <= 0.5 * rho_d * (1.0 + 1e-12)
    for u in (0.0, top):
        jac = d + np.diag(rea.evaluate(hab, np.zeros(hab.shape)).ravel() - 2.0 * slope * u)
        assert np.abs(jac).sum(axis=1).max() <= rho * (1.0 + 1e-12)

    plan = march_plan(op, [rea], [u0])
    if plan.scheme == RK4:
        assert plan.dt * rho <= 0.95 * 0.6 * 2.785 * (1.0 + 1e-12)
        r = 0.5 * plan.dt * rho
        line = np.linspace(-2.0 * r, 0.0, 4001)
        circle = -r + r * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 4001))
        for z in (line, circle):
            assert np.abs(_rk4_amplification(z)).max() <= 1.0 + 1e-12
    else:
        assert _beta(plan.stages) >= 1.05 * plan.dt * rho


def test_rk4_stability_region_holds_the_left_tangent_discs():
    # the discs |z + r| <= r nest as r grows; rk4's region holds them up to
    # r = 1.3926, whose diameter is the real stability interval 2.785, and
    # the march's rk4 step keeps r = dt rho / 2 <= 0.95 * 0.6 * 2.785 / 2
    theta = np.linspace(0.0, 2.0 * np.pi, 20001)
    for r in (0.95 * 0.6 * 2.785 / 2.0, 1.3926):
        assert np.abs(_rk4_amplification(-r + r * np.exp(1j * theta))).max() <= 1.0 + 1e-12
    assert np.abs(_rk4_amplification(-2.0 * 1.3926)) <= 1.0
    assert np.abs(_rk4_amplification(-2.0 * 1.3935)) > 1.0


@pytest.mark.parametrize("kind", ["nonlocal", "discrete"])
@pytest.mark.parametrize("dim", [1, 2])
def test_march_does_not_clip_under_a_strong_reaction(kind, dim):
    # f = 20 - 20 u with a bump of 0.5: rho is dominated by the reaction
    # (|f(x, 0) - 2 * 20 M| = 60.5 against rho_D = 2 mass), and the rk4
    # march from front data and from u = beta0 clips nothing and ends
    # inside the invariant region [0, max(max u0, beta0)]
    rea = Reaction.linear(20.0, 20.0, amplitude=0.5, radius=2.0)
    if kind == "discrete":
        hab = Habitat("lattice", dim, 40.0 if dim == 1 else 10.0)
        op = DispersalOperator.discrete(LatticeWeights.symmetric(dim, 1.0))
    else:
        hab = Habitat("continuum", dim, 20.0 if dim == 1 else 5.0, 0.25)
        op = DispersalOperator.nonlocal_(Kernel.from_profile("triangle", 1.0, 0.25, dim))
    xi = (1.0,) + (0.0,) * (dim - 1)
    for u0 in (make_front_initial(hab, xi, rea.u0_star), hab.full(rea.beta0)):
        (traj,) = march(op, [rea], [u0], T=5.0)
        assert traj.scheme == RK4 and traj.clip_count == 0
        assert traj.final.max <= max(u0.max, rea.beta0)


def test_rkc2_is_second_order():
    # the stage code against the scalar logistic closed form: halving dt
    # divides the error by about 4
    rea = Reaction.logistic(1.0, 2.0)
    exact = logistic_exact(0.1, 1.0, 2.0, 1.0)

    def err(dt, s):
        step = kpplab.dynamics._rkc2_stepper(dt, s)
        growth = rea.bind(HAB)
        u = np.full(HAB.shape, 0.1)
        for _ in range(int(round(1.0 / dt))):
            u = step(lambda v: v * growth(v), u)
        return abs(u.max() - exact)

    for s in (2, 3, 6):
        ratio = err(0.1, s) / err(0.05, s)
        assert 3.5 < ratio < 4.5, (s, ratio)


@settings(deadline=None, derandomize=True, max_examples=20)
@given(dim=st.sampled_from([1, 2]), spacing=st.sampled_from([0.05, 0.1, 0.25]),
       boundary=st.sampled_from(["clamp", "periodic"]), r0=st.floats(0.1, 5.0),
       slope=st.floats(0.05, 5.0))
def test_rkc2_keeps_constant_equilibria_exactly(dim, spacing, boundary, r0, slope):
    """u = 0 and u = u0* are equilibria; the increment form keeps them bit
    for bit (the stencil maps constants to exact zeros).  With max|f| <= 5
    rk4's h^2 clause binds at these spacings, so march steps by rkc2."""
    hab = Habitat("continuum", dim, 6.0 * spacing, spacing, boundary=boundary)
    rea = Reaction.linear(r0, slope)
    op = DispersalOperator.random()
    for level in (0.0, rea.u0_star):
        (traj,) = march(op, [rea], [hab.full(level)], T=1.0, record_every=1)
        assert traj.scheme == RKC2
        for snap in traj.snapshots:
            assert np.all(snap.values == level), (level, np.abs(snap.values - level).max())


def test_march_scheme_follows_the_grid():
    # rkc2 only where it needs fewer right-hand sides per unit time than
    # rk4 at their automatic steps.  Fisher at h = 0.5: rho = 16 + 3 and
    # rk4's step is 0.95 * 0.6 * 2.785 / 19 = 0.0836, 4 / 0.0836 = 47.9 a
    # unit time; rkc2's is 0.0396 with s = 2, 50.5, so rk4 keeps it.  At
    # h = 0.1 rkc2 takes s = 6 at 0.0396 against rk4's 4 at 0.0039.  The
    # scheme does not follow dt: an explicit dt sets the step of the same
    # scheme, and under rkc2 answers to the bounded-operator clause only.
    op = DispersalOperator.random()
    coarse, fine = Habitat("continuum", 1, 20.0, 0.5), Habitat("continuum", 1, 20.0, 0.1)
    for hab, scheme in ((coarse, RK4), (fine, RKC2)):
        u0 = make_front_initial(hab, 1.0, 1.0)
        assert march_plan(op, [FISHER], [u0]).scheme == scheme
        for dt in (None, 0.02):
            (traj,) = march(op, [FISHER], [u0], T=1.0, dt=dt)
            assert traj.scheme == scheme and traj.clip_count == 0
    u0 = make_front_initial(fine, 1.0, 1.0)
    s = march_plan(op, [FISHER], [u0], 0.02).stages
    assert march(op, [FISHER], [u0], T=1.0, dt=0.02)[0].rhs_evals == 50 * s
    clause = 0.25 / (1.0 + 1.0 + 1.0)  # max|f| is about 1 for Fisher from u <= 1
    march(op, [FISHER], [u0], T=1.0, dt=0.99 * clause)
    with pytest.raises(StabilityError, match="stability bound"):
        march(op, [FISHER], [u0], T=1.0, dt=1.01 * clause)
    # nonlocal and discrete kinds are not h^2-limited and keep rk4
    for op, hab in _three_ops()[1:]:
        assert march_plan(op, [FISHER], [hab.full(0.5)]).scheme == RK4


def test_march_shorter_than_the_step_tolerance_takes_one_step():
    # T below 1e-12 dt used to round to no step at all, a final time 0 < T
    op, u0 = DispersalOperator.random(), HAB.full(0.5)
    plan = march_plan(op, [FISHER], [u0])
    (traj,) = march(op, [FISHER], [u0], T=1e-13 * plan.dt)
    assert list(traj.times) == [0.0, plan.dt]
    assert traj.rhs_evals == plan.stages
    horizons = []
    march(op, [FISHER], [u0], T=1e-13 * plan.dt,
          observers=[lambda t, v, t_end: horizons.append(t_end)])
    assert horizons == [plan.dt, plan.dt]


@pytest.mark.parametrize("which", range(3))
def test_march_observer_sees_each_record_once_in_time_order(which):
    # the observer gets the (t, values) bits of every snapshot that the
    # unobserved march keeps, with the final time t_end from the first
    # call on; the arrays it is handed are read-only and never change
    # afterwards, and the observed march keeps only [initial, final]
    op, hab = _three_ops()[which]
    u0 = make_front_initial(hab, 1.0, 1.0)
    (full,) = march(op, [FISHER], [u0], T=3.0, record_every=7)
    seen = []
    (observed,) = march(op, [FISHER], [u0], T=3.0, record_every=7,
                        observers=[lambda t, values, t_end: seen.append((t, values, t_end))])
    assert [t for t, _, _ in seen] == list(full.times)
    assert {t_end for _, _, t_end in seen} == {full.times[-1]}
    for (_, values, _), snap in zip(seen, full.snapshots):
        assert not values.flags.writeable
        assert values.tobytes() == snap.values.tobytes()
    assert list(observed.times) == [0.0, full.times[-1]]
    assert observed.initial is u0
    assert observed.final.values.tobytes() == full.final.values.tobytes()
    assert (observed.clip_count, observed.scheme, observed.rhs_evals) == \
        (full.clip_count, full.scheme, full.rhs_evals)


@pytest.mark.parametrize("route", ["rk4", "rkc2", "evolve"])
def test_handed_out_arrays_never_change_afterwards(route, monkeypatch):
    # each array is compared with a copy taken when it was handed out, so
    # a stage buffer that aliased a returned step shows here, where a
    # second march by the same code would be corrupted alike
    kept, copies = [], []

    def keep(values):
        kept.append(values)
        copies.append(values.copy())

    if route == "evolve":
        op, hab = _three_ops()[1]
    else:
        op = DispersalOperator.random()
        hab = Habitat("continuum", 1, 20.0, 0.5 if route == RK4 else 0.1)
    u0 = make_front_initial(hab, 1.0, 1.0)
    u0_copy = u0.values.copy()
    if route == "evolve":
        # evolve hands each record to Field(habitat, values) as it arrives
        field = kpplab.dynamics.Field

        def recording_field(habitat, values):
            keep(values)
            return field(habitat, values)

        monkeypatch.setattr(kpplab.dynamics, "Field", recording_field)
        (traj,) = evolve(op, [FISHER], [u0], T=1.0, dt=_dt(op, FISHER, u0), record_every=3)
        assert len(kept) == len(traj.snapshots) - 1  # u0 is kept as given
    else:
        (traj,) = march(op, [FISHER], [u0], T=1.0, record_every=3,
                        observers=[lambda t, values, t_end: keep(values)])
        assert traj.scheme == route and kept[0] is u0.values
    assert len(kept) > 3
    for values, copy in zip(kept, copies):
        assert np.array_equal(values, copy)
    assert np.array_equal(u0.values, u0_copy)


# ---------------------------------------------------------------- stacks


def _stack_setup(kind, dim, boundary):
    """(op, habitat) on a fixed grid of at most 17 x 17 points."""
    h, L = (0.25, 6.0) if dim == 1 else (0.5, 4.0)
    if kind == "random":
        return DispersalOperator.random(), Habitat("continuum", dim, L, h, boundary)
    if kind == "nonlocal":
        return (DispersalOperator.nonlocal_(Kernel.from_profile("triangle", 1.0, h, dim)),
                Habitat("continuum", dim, L, h, boundary))
    return (DispersalOperator.discrete(LatticeWeights.symmetric(dim, 1.0)),
            Habitat("lattice", dim, L, 1.0, boundary))


def _first_rk4_step(op, reaction, u0, dt):
    """One rk4 step through the Field-level apply and evaluate, outside
    the stepping loop: an oracle that sees the reaction's own amplitude."""
    def rhs(v):
        return op.apply(Field(u0.habitat, v)).values + v * reaction.evaluate(u0.habitat, v)

    u = u0.values
    k1 = rhs(u)
    k2 = rhs(u + 0.5 * dt * k1)
    k3 = rhs(u + 0.5 * dt * k2)
    k4 = rhs(u + dt * k3)
    return u + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@pytest.mark.parametrize("scheme", [RK4, RKC2])
@pytest.mark.parametrize("boundary", ["clamp", "periodic"])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("kind", ["random", "nonlocal", "discrete"])
def test_each_row_of_a_stack_is_its_march_alone(kind, dim, boundary, scheme):
    # a 3-row stack under one plan: every record, the final state and the
    # clip count of each row are bitwise those of the row's own reaction
    # and data marched alone under that plan (same scheme, dt and stages);
    # the rough rows clip under the random kind's long steps
    op, hab = _stack_setup(kind, dim, boundary)
    rows = [Reaction.linear(1.0, 1.0, amplitude=a, radius=1.5) for a in (-0.5, 0.0, 1.0)]
    rng = np.random.default_rng(3)
    u0s = [Field(hab, np.where(rng.random(hab.shape) < 0.3, 1.0, 0.0)),
           make_front_initial(hab, (1.0,) + (0.0,) * (dim - 1), 1.0),
           Field(hab, 2.0 * rng.random(hab.shape))]
    rho = kpplab.dynamics._step_inputs(op, rows, u0s)[2]
    if scheme == RK4:
        plan = MarchPlan(RK4, 2.5 / rho, 4, 2.5 / rho)
    else:
        plan = MarchPlan(RKC2, 0.2, kpplab.dynamics._rkc2_stages(0.2, rho), 0.2)
    stack = _step_loop(op, rows, u0s, 1.0, plan, 1, [None] * 3)
    clips = []
    for reaction, u0, got in zip(rows, u0s, stack):
        (alone,) = _step_loop(op, [reaction], [u0], 1.0, plan, 1, [None])
        assert got.times.tobytes() == alone.times.tobytes()
        assert [s.values.tobytes() for s in got.snapshots] == \
            [s.values.tobytes() for s in alone.snapshots]
        assert (got.clip_count, got.scheme, got.rhs_evals) == \
            (alone.clip_count, alone.scheme, alone.rhs_evals)
        clips.append(got.clip_count)
        if scheme == RK4:
            # the row marched its own amplitude, not another row's
            want = np.maximum(_first_rk4_step(op, reaction, u0, plan.dt), 0.0)
            assert np.abs(got.snapshots[1].values - want).max() <= 1e-12 * np.abs(want).max()
    if (kind, dim, scheme) in (("random", 1, RK4), ("random", 2, RKC2)):
        assert sum(clips) > 0  # the rows' clips are counted, and counted apart


def test_stack_rows_differ_in_amplitude_only():
    op, u0 = DispersalOperator.random(), HAB.full(0.5)
    bump = Reaction.linear(1.0, 1.0, amplitude=2.0)
    # the stack steps at the smallest step of its rows
    steps = [march_plan(op, [r], [u0]).dt for r in (FISHER, bump)]
    assert march_plan(op, [FISHER, bump], [u0, u0]).dt == min(steps) < max(steps)
    for rows, data in (([FISHER, Reaction.linear(1.0, 2.0)], [u0, u0]),
                       ([FISHER, FISHER], [u0, Habitat("continuum", 1, 10.0, 0.5).full(0.5)])):
        with pytest.raises(ValueError, match="amplitudes only"):
            march_plan(op, rows, data)


@pytest.mark.parametrize("which", range(3))
def test_part_metric_decay_matches_the_two_evolve_oracle(which):
    # the pair marched as one stack folds the metric of the same records,
    # bit for bit, as two evolve histories did
    op, hab = _three_ops()[which]
    rea = Reaction.linear(1.0, 1.0, amplitude=0.5, radius=2.0)
    rng = np.random.default_rng(11)
    a = Field(hab, 0.3 + rng.random(hab.shape))
    b = Field(hab, 0.3 + rng.random(hab.shape))
    dt = _dt(op, rea, Field(hab, np.maximum(a.values, b.values)))
    got = check_part_metric_decay(op, rea, a, b, T=2.0, dt=dt, record_every=7)
    want = oracles.check_part_metric_decay(op, rea, a, b, T=2.0, dt=dt, record_every=7)
    assert got.rhos.tobytes() == want.rhos.tobytes()
    assert got.times.tobytes() == want.times.tobytes()
    assert (got.ok, got.violations) == (want.ok, want.violations)
    assert len(got.rhos) > 3
    # a step above either datum's order-preserving bound is refused
    with pytest.raises(StabilityError):
        check_part_metric_decay(op, rea, a, b, T=2.0, dt=1.01 * dt / 0.95)

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

from kpplab import (
    DispersalOperator,
    Field,
    Habitat,
    Kernel,
    LatticeWeights,
    PeriodTooLargeError,
    Reaction,
    check_tail,
    evolve,
    part_metric,
    periodic_minorant,
    solve_stationary,
    stability_dt_bound,
    sub_solution,
)
from kpplab import stationary
from kpplab.domain import make_front_initial
from kpplab.dynamics import march, march_plan, spectral_bound
from kpplab.stationary import FROM_ABOVE, FROM_BELOW, extend_periodic, smooth_cutoff

HAB = Habitat("continuum", 1, 10.0, 0.25)
LAT = Habitat("lattice", 1, 10)
FISHER = Reaction.linear(1.0, 1.0)
DIP = Reaction.linear(1.0, 1.0, amplitude=-0.5, radius=1.0)
BUMP = Reaction.linear(1.0, 1.0, amplitude=0.5, radius=1.0)


def _ops(habitat=HAB):
    return [
        (DispersalOperator.random(), habitat),
        (DispersalOperator.nonlocal_(
            Kernel.from_profile("triangle", 1.0, habitat.spacing, 1)), habitat),
        (DispersalOperator.discrete(LatticeWeights.symmetric(1, 1.0)), LAT),
    ]


def test_smooth_cutoff_shape():
    s = np.linspace(0.0, 3.0, 301)
    v = smooth_cutoff(s)
    assert np.all(v[s <= 1.0] == 1.0)
    assert np.all(v[s >= 2.0] == 0.0)
    assert np.all(np.diff(v) <= 1e-12)  # monotone down


def test_minorant_homogeneous():
    # no dip: h is the constant f0(0) and any admissible period works
    p, coeff = periodic_minorant(FISHER, 0.2, HAB)
    assert np.all(coeff.values == 1.0)
    assert coeff.average == pytest.approx(1.0)
    assert p[0] > 4.0 * FISHER.radius


def test_minorant_dip_average_and_pointwise():
    hab = Habitat("continuum", 1, 40.0, 0.25)
    rea = Reaction.linear(1.0, 1.0, amplitude=-0.5, radius=2.0)
    p, coeff = periodic_minorant(rea, 0.1, hab)
    assert coeff.average >= 1.0 - 0.1
    assert coeff.values.min() == pytest.approx(0.5, abs=1e-12)  # dips to M0
    # pointwise minorant on the habitat
    ext = extend_periodic(coeff, hab)
    f_at_zero = rea.r0 + rea.perturbation(hab)
    assert float((f_at_zero - ext).min()) >= -1e-12
    # shrinking eps grows the period
    p2, _ = periodic_minorant(rea, 0.05, hab)
    assert p2[0] > p[0]


def test_minorant_period_too_large():
    with pytest.raises(PeriodTooLargeError):
        periodic_minorant(Reaction.linear(1.0, 1.0, amplitude=-0.9, radius=2.0), 1e-4, HAB)


def test_sub_solution_homogeneous():
    # flat eigenfunction: delta phi = 0.1 and the inequality value is
    # delta f0(delta) > 0, so no halving happens
    op = DispersalOperator.random()
    u = sub_solution(op, FISHER, HAB)
    assert np.allclose(u.values, 0.1, atol=1e-12)


def test_sub_solution_dip_validates_and_grows():
    for op, hab in _ops():
        u = sub_solution(op, DIP, hab)
        assert u.is_strictly_positive()
        disp = op.bind(hab)
        grow = DIP.bind(hab)
        assert float((disp(u.values) + u.values * grow(u.values)).min()) >= -1e-10
        # monotone increase along the flow (pointwise, 1e-10 slack)
        dt = 0.95 * stability_dt_bound(op, DIP, u)
        (traj,) = evolve(op, [DIP], [u], T=2.0, dt=dt, record_every=10)
        for a, b in zip(traj.snapshots[:-1], traj.snapshots[1:]):
            assert float((b.values - a.values).min()) >= -1e-10, op.kind


def test_stationary_homogeneous_is_equilibrium():
    for op, hab in _ops():
        res = solve_stationary(op, FISHER, hab, route=FROM_ABOVE)
        assert np.abs(res.u_star.values - 1.0).max() < 1e-7, op.kind
        assert res.residual <= 1e-7


def test_routes_agree_and_bump_shape():
    op = DispersalOperator.random()
    above = solve_stationary(op, BUMP, HAB, route=FROM_ABOVE)
    below = solve_stationary(op, BUMP, HAB, route=FROM_BELOW)
    gap = np.abs(above.u_star.values - below.u_star.values).max()
    assert gap < 1e-6
    x = HAB.grid()[0]
    u = above.u_star.values
    assert u[x == 0.0][0] > 1.0  # extra growth lifts the hump
    assert abs(u[np.abs(x) >= 8.0] - 1.0).max() < 2e-3  # tail heads to u0


def test_sandwich_between_routes():
    op = DispersalOperator.random()
    star = solve_stationary(op, DIP, HAB, route=FROM_ABOVE).u_star
    lo = sub_solution(op, DIP, HAB)
    hi = HAB.full(DIP.beta0 + 1.0)
    dt = 0.95 * stability_dt_bound(op, DIP, hi)
    tlo, thi = evolve(op, [DIP] * 2, [lo, hi], T=6.0, dt=dt, record_every=40)
    for a, b in zip(tlo.snapshots, thi.snapshots):
        assert float((a.values - star.values).max()) <= 1e-9
        assert float((star.values - b.values).max()) <= 1e-9


def test_residual_is_a_real_certificate():
    op = DispersalOperator.random()
    res = solve_stationary(op, BUMP, HAB, route=FROM_ABOVE)
    disp = op.bind(HAB)
    grow = BUMP.bind(HAB)
    shifted = res.u_star.values + 0.01
    bad = np.abs(disp(shifted) + shifted * grow(shifted)).max()
    assert bad > 1e-4  # negative control: perturbing u* must blow the residual


def test_tail_window():
    op = DispersalOperator.random()
    res = solve_stationary(op, FISHER, HAB, route=FROM_ABOVE)
    assert check_tail(res.u_star, 1.0, R=2.0) < 1e-7
    with pytest.raises(ValueError, match="tail window"):
        check_tail(res.u_star, 1.0, R=9.9)


def test_tail_deviation_decreases_with_radius():
    hab = Habitat("continuum", 1, 20.0, 0.25)
    op = DispersalOperator.random()
    res = solve_stationary(op, BUMP, hab, route=FROM_ABOVE)
    devs = [check_tail(res.u_star, 1.0, R=r) for r in (2.0, 4.0, 8.0)]
    assert devs[0] >= devs[1] >= devs[2]


def test_stability_of_stationary_state():
    op = DispersalOperator.random()
    res = solve_stationary(op, BUMP, HAB, route=FROM_ABOVE)
    u = res.u_star
    bump = np.exp(-HAB.radius() ** 2)
    perturbations = [
        Field(HAB, 0.5 * u.values),
        Field(HAB, 2.0 * u.values),
        Field(HAB, u.values + bump),
    ]
    rep = oracles.reconverge(op, BUMP, u, perturbations, T=200.0)
    assert rep.ok, rep.distances
    # feeding u* itself stays at residual level
    rep0 = oracles.reconverge(op, BUMP, u, [u], T=5.0)
    assert rep0.distances[0] < 1e-6
    assert res.stability_bound < 0.0


def test_stability_check_refuses_a_wrong_state_at_a_small_capacity():
    # u0* = 2^-17: the wrong state u*/2 lies 4.7e-6 from u*, below an
    # absolute 1e-4, so only a distance gate in units of u0* refuses it
    rea = Reaction.logistic(1.0, 2.0 ** -17, amplitude=0.5, radius=1.0)
    op = DispersalOperator.random()
    u = solve_stationary(op, rea, HAB, route=FROM_ABOVE).u_star
    rep = oracles.reconverge(op, rea, Field(HAB, 0.5 * u.values), [u], T=5.0)
    assert not rep.ok, rep.distances
    assert oracles.reconverge(op, rea, u, [u], T=5.0).ok


def test_uniqueness_via_part_metric():
    op = DispersalOperator.random()
    rea = BUMP
    star = solve_stationary(op, rea, HAB, route=FROM_ABOVE).u_star
    u0 = Field(HAB, 0.4 * star.values)
    v0 = Field(HAB, 2.5 * star.values)
    dt = 0.95 * stability_dt_bound(op, rea, v0)
    tu, tv = evolve(op, [rea] * 2, [u0, v0], T=200.0, dt=dt, record_every=10 ** 9)
    assert part_metric(tu.final, tv.final) < 1e-4


def test_two_dimensional_routes_agree():
    hab = Habitat("continuum", 2, 8.0, 0.25)
    rea = Reaction.linear(1.0, 1.0, amplitude=-0.5, radius=1.0)
    op = DispersalOperator.random()
    above = solve_stationary(op, rea, hab, route=FROM_ABOVE)
    below = solve_stationary(op, rea, hab, route=FROM_BELOW)
    gap = np.abs(above.u_star.values - below.u_star.values).max()
    assert gap < 1e-6
    # the hostile patch dents the profile at the origin only
    c = hab.half_points
    assert above.u_star.values[c, c] < 1.0
    assert abs(above.u_star.values[0, 0] - 1.0) < 0.05


def test_clip_counts_are_summed_over_chunks(monkeypatch):
    real = oracles.evolve

    def clip_once(*args, **kwargs):
        return tuple(dataclasses.replace(traj, clip_count=1) for traj in real(*args, **kwargs))

    monkeypatch.setattr(oracles, "evolve", clip_once)
    op, hab = _ops()[2]
    for route in (FROM_ABOVE, FROM_BELOW):
        res = oracles.march_stationary(op, BUMP, hab, route=route)
        assert res.clip_count == res.iterations, route


@st.composite
def _stationary_problems(draw):
    """(op, reaction, habitat): kind, dimension, boundary, kernel, rates
    and growth law drawn on grids small enough for the marching oracle."""
    kind = draw(st.sampled_from(["random", "nonlocal", "discrete"]))
    dim = draw(st.integers(1, 2))
    boundary = draw(st.sampled_from(["clamp", "periodic"]))
    r0 = draw(st.floats(0.5, 2.0))
    slope = draw(st.floats(0.5, 2.0))
    amplitude = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.1, 0.8)) * r0
    reaction = Reaction.linear(r0, slope, amplitude=amplitude, radius=1.0)
    if kind == "discrete":
        offsets = LatticeWeights.symmetric(dim).offsets
        if draw(st.booleans()):
            rates = [draw(st.floats(0.3, 2.0))] * (2 * dim)
        else:
            rates = draw(st.lists(st.floats(0.2, 2.0), min_size=2 * dim, max_size=2 * dim))
        op = DispersalOperator.discrete(LatticeWeights(dim, offsets, rates))
        return op, reaction, Habitat("lattice", dim, 6, boundary=boundary)
    spacing, half_extent = (0.25, 6.0) if dim == 1 else (0.5, 4.0)
    habitat = Habitat("continuum", dim, half_extent, spacing, boundary=boundary)
    if kind == "random":
        return DispersalOperator.random(), reaction, habitat
    profile = draw(st.sampled_from(["uniform", "triangle", "mollifier"]))
    delta0 = draw(st.floats(2.0 * spacing, 1.5))
    kernel = Kernel.from_profile(profile, delta0, spacing, dim)
    return DispersalOperator.nonlocal_(kernel), reaction, habitat


@settings(deadline=None, derandomize=True, max_examples=20)
@given(_stationary_problems())
def test_routes_match_the_marching_oracle(problem):
    op, reaction, habitat = problem
    for route in (FROM_ABOVE, FROM_BELOW):
        fast = solve_stationary(op, reaction, habitat, route=route)
        slow = oracles.march_stationary(op, reaction, habitat, route=route)
        gap = np.abs(fast.u_star.values - slow.u_star.values).max()
        assert gap <= 1e-8, (op.kind, habitat, route, gap)
        assert fast.residual <= slow.residual
        assert fast.newton_steps >= 1 and fast.matvecs > 0


@pytest.mark.parametrize("capacity", [1e-2, 1e6])
def test_routes_match_the_oracle_at_extreme_carrying_capacities(capacity):
    # the step limits scale with max(u): u0* = 1e-2 must not hand over
    # to Newton near zero, and u0* = 1e6 must stop above its rounding floor;
    # below u0* = 1 the gap gate, like the oracle's, is relative to u0*
    hab1 = Habitat("continuum", 1, 6.0, 0.25)
    cases = [
        (DispersalOperator.nonlocal_(Kernel.from_profile("triangle", 1.0, 0.25, 1)), hab1, -0.5),
        (DispersalOperator.discrete(LatticeWeights.symmetric(2, 1.0)),
         Habitat("lattice", 2, 6), 0.5),
    ]
    for op, habitat, amplitude in cases:
        reaction = Reaction.logistic(1.0, capacity, amplitude=amplitude, radius=1.0)
        for route in (FROM_ABOVE, FROM_BELOW):
            fast = solve_stationary(op, reaction, habitat, route=route)
            slow = oracles.march_stationary(op, reaction, habitat, route=route)
            gap = np.abs(fast.u_star.values - slow.u_star.values).max()
            assert gap <= 1e-8 * min(1.0, reaction.u0_star), (op.kind, route, gap)


@pytest.mark.parametrize("capacity", [1e8, 1e10])
def test_residual_certificate_scales_with_the_carrying_capacity(capacity):
    # the certificate is 1e-7 u0*, which its rounding floor 4 eps rho max(u)
    # stays below on these grids at every u0*; both routes still land
    # within a few rounding units of the marching oracle
    hab1 = Habitat("continuum", 1, 6.0, 0.25)
    cases = [
        (DispersalOperator.random(), hab1),
        (DispersalOperator.nonlocal_(Kernel.from_profile("triangle", 1.0, 0.25, 1)), hab1),
        (DispersalOperator.discrete(LatticeWeights.symmetric(2, 1.0)), Habitat("lattice", 2, 6)),
    ]
    reaction = Reaction.logistic(1.0, capacity, amplitude=0.5, radius=1.0)
    for op, habitat in cases:
        for route in (FROM_ABOVE, FROM_BELOW):
            fast = solve_stationary(op, reaction, habitat, route=route)
            slow = oracles.march_stationary(op, reaction, habitat, route=route)
            gap = np.abs(fast.u_star.values - slow.u_star.values).max()
            assert gap <= 1e-12 * fast.u_star.max, (op.kind, route, gap)
            assert fast.residual <= stationary.residual_tolerance(op, reaction, fast.u_star)


def test_residual_certificate_follows_its_rounding_floor():
    # h = 1e-4: rho_D = 4 / h^2 = 4e8 lifts the floor 4 eps rho max(u) to
    # 4.4e-7, above the gate 1e-7 u0*, and the certificate follows it
    habitat = Habitat("continuum", 1, 2.0, 1e-4)
    op = DispersalOperator.random()
    res = solve_stationary(op, BUMP, habitat, route=FROM_ABOVE)
    u = res.u_star
    floor = 4.0 * np.finfo(float).eps * spectral_bound(op, BUMP, u) * u.max
    tolerance = stationary.residual_tolerance(op, BUMP, u)
    assert tolerance == floor > 1e-7 * BUMP.u0_star
    assert res.residual <= tolerance


def _small_problem(kind, dim, boundary="clamp", reach=6):
    """(op, habitat) of one dispersal kind on a small grid, of half extent
    reach in 1-D and 4 (6 on the lattice) in 2-D."""
    if kind == "discrete":
        return DispersalOperator.discrete(LatticeWeights.symmetric(dim, 1.0)), Habitat(
            "lattice", dim, reach if dim == 1 else 6, boundary=boundary)
    spacing, half_extent = (0.25, float(reach)) if dim == 1 else (0.5, 4.0)
    habitat = Habitat("continuum", dim, half_extent, spacing, boundary=boundary)
    if kind == "random":
        return DispersalOperator.random(), habitat
    kernel = Kernel.from_profile("triangle", 1.0, spacing, dim)
    return DispersalOperator.nonlocal_(kernel), habitat


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("kind", ["random", "nonlocal", "discrete"])
def test_runs_scale_exactly_with_the_carrying_capacity(kind, dim):
    """Every height of the march and of the stationary solver is a fraction
    of u0*, so at K = 2^m, where scaling by K is exact in floating point,
    the march plan, the stability bounds of both routes and the oracle's
    reconvergence verdict are those of K = 1, and the final state of a
    march and the u* of both routes are K times those of K = 1, bit for
    bit."""
    op, habitat = _small_problem(kind, dim)

    def run(capacity):
        rea = Reaction.logistic(1.0, capacity, amplitude=-0.5, radius=1.0)
        u0 = make_front_initial(habitat, (1.0,) + (0.0,) * (dim - 1), rea.u0_star)
        above = solve_stationary(op, rea, habitat, route=FROM_ABOVE)
        below = solve_stationary(op, rea, habitat, route=FROM_BELOW)
        stability = oracles.reconverge(op, rea, above.u_star,
                                       [Field(habitat, 0.5 * above.u_star.values)], T=20.0)
        states = (march(op, [rea], [u0], 2.0)[0].final.values, above.u_star.values,
                  below.u_star.values)
        bounds = (above.stability_bound, below.stability_bound)
        return march_plan(op, [rea], [u0]), states, bounds, stability

    plan, states, bounds, stability = run(1.0)
    assert stability.ok and max(bounds) < 0.0
    for m in (-20, -10, 10, 20):
        K = 2.0 ** m
        scaled_plan, scaled_states, scaled_bounds, scaled_stability = run(K)
        assert scaled_plan == plan, m
        for name, got, want in zip(("march", FROM_ABOVE, FROM_BELOW), scaled_states, states):
            assert np.array_equal(got, K * want), (m, name)
        assert scaled_bounds == bounds, m
        assert scaled_stability.ok == stability.ok, m
        assert scaled_stability.distances == tuple(K * d for d in stability.distances), m


@pytest.mark.parametrize("amplitude", [0.5, -0.5, -3.0])
@pytest.mark.parametrize("boundary", ["clamp", "periodic"])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("kind", ["random", "nonlocal", "discrete"])
def test_stability_bound_certifies_both_routes(kind, dim, boundary, amplitude):
    """J u* = F(u*) - slope u*^2, so the Collatz-Wielandt bound
    max(J u* / u*) lies within max|F(u*)| / min(u*) of -slope min(u*),
    up to the rounding of the quotient, and is negative.  The slow
    oracle agrees: marched from u*/2, 2 u* and u* plus a bump, every
    case of the grid reconverges to the from-above u*, and there both
    routes' bounds are negative."""
    # at reach 6 no minorant period fits the 1-D dip of depth 3
    op, habitat = _small_problem(kind, dim, boundary, reach=10)
    reaction = Reaction.linear(1.0, 1.0, amplitude=amplitude, radius=1.0)
    disp, growth = op.bind(habitat), reaction.bind(habitat)
    eps = np.finfo(float).eps
    for route in (FROM_ABOVE, FROM_BELOW):
        res = solve_stationary(op, reaction, habitat, route=route)
        u = res.u_star.values
        F = np.abs(disp(u) + u * growth(u)).max()
        rounding = 4.0 * eps * reaction.slope * u.max()
        assert res.stability_bound < 0.0, route
        assert (abs(res.stability_bound + reaction.slope * u.min())
                <= F / u.min() + rounding), route
        if route == FROM_ABOVE:
            perturbations = [Field(habitat, 0.5 * u), Field(habitat, 2.0 * u),
                             Field(habitat, u + np.exp(-habitat.radius() ** 2))]
            stability = oracles.reconverge(op, reaction, res.u_star, perturbations)
            assert stability.ok, stability.distances


def _count_applies(monkeypatch):
    """The list that each stationary Krylov solve appends its applies to."""
    applies = []
    krylov = stationary.krylov

    def counted(apply, b, precondition, rtol):
        x, n = krylov(apply, b, precondition, rtol)
        applies.append(n)
        return x, n

    monkeypatch.setattr(stationary, "krylov", counted)
    return applies


def test_preconditioned_solves_cost_a_few_applies(monkeypatch):
    # the problem of configs/stationary_bump.cfg, where the unpreconditioned
    # from-below route took 5,250 applies: each monotone step solves
    # K I - D exactly in the preconditioner, so it costs one or two applies
    habitat = Habitat("continuum", 1, 40.0, 0.1)
    applies = _count_applies(monkeypatch)
    res = solve_stationary(DispersalOperator.random(), BUMP, habitat, route=FROM_BELOW)
    assert res.matvecs == sum(applies) <= 300
    monotone_steps = res.iterations - res.newton_steps
    assert monotone_steps > 0
    assert max(applies[:monotone_steps]) <= 2


def test_cosine_preconditioned_monotone_steps_take_one_apply(monkeypatch):
    # the 65 x 65 dip problem of the 2-D stationary benchmark unit, whose
    # clamp resolvent inverts by cosine transforms: each monotone step is
    # solved exactly, and the transforms sum their modes from the highest
    # frequency down, so the rounding leaves the first half-step residual
    # at 2.3e-15 to 3.7e-15 relative, below the 1e-14 gate (in increasing
    # order it was 1.1e-14 to 2.2e-14, and every step took two applies)
    habitat = Habitat("continuum", 2, 8.0, 0.25)
    applies = _count_applies(monkeypatch)
    dip = Reaction.linear(1.0, 1.0, amplitude=-0.5, radius=1.0)
    res = solve_stationary(DispersalOperator.random(), dip, habitat, route=FROM_BELOW)
    monotone_steps = res.iterations - res.newton_steps
    assert monotone_steps > 0
    assert applies[:monotone_steps] == [1] * monotone_steps


def test_krylov_breakdown_raises_the_stationary_error(monkeypatch):
    # a preconditioner that returns zero makes BiCGSTAB break down at once;
    # the failure reaches callers as StationaryConvergenceError, step named
    monkeypatch.setattr(DispersalOperator, "bind_resolvent",
                        lambda self, habitat: lambda r, c: np.zeros_like(r))
    for route in (FROM_ABOVE, FROM_BELOW):
        with pytest.raises(stationary.StationaryConvergenceError,
                           match=f"{route} step 1: Krylov solve broke down"):
            solve_stationary(DispersalOperator.random(), BUMP, HAB, route=route)

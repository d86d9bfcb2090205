"""Acceptance suite: each criterion runs at its stated tolerance and
prints one pass/fail line (visible with pytest -s).

The heavy 1-D front run (Laplacian dispersal, f = 1 - u, L = 300,
h = 0.1, T = 100, rk4) is computed once in a module fixture and shared
by the criteria that inspect it.
"""

import math
import time

import numpy as np
import pytest
from oracles import power_iteration, reconverge

from kpplab import (
    DispersalOperator,
    DispersionRelation,
    Field,
    Habitat,
    Kernel,
    LatticeWeights,
    PeriodicCoefficient,
    Reaction,
    assemble_cell_operator,
    check_average_lower_bound,
    check_comparison,
    check_exponential_supersolution,
    check_part_metric_decay,
    check_tail,
    estimate_speed,
    evolve,
    make_front_initial,
    minimize_speed,
    part_metric,
    principal_eigenvalue,
    run_compact_spreading_checks,
    solve_stationary,
    stability_dt_bound,
    track_front,
    verify_spreading_cones,
)
from kpplab.experiments import run_speed_invariance_sweep
from kpplab.stationary import FROM_ABOVE, FROM_BELOW

W1 = LatticeWeights.symmetric(1, 1.0)
FISHER = Reaction.linear(1.0, 1.0)


def _report(num, name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance {num} {name}: {detail}")
    assert ok, f"acceptance {num} {name}: {detail}"


# ---------------------------------------------------------------- oracles


def brute_force_speed(rel, resolution=1e-5, mu_max=20.0):
    mus = np.arange(1e-3, mu_max, resolution)
    vals = np.asarray(rel(mus)) / mus
    return float(vals.min())


def part_metric_alpha_search(u, v, tol=1e-12):
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


# ---------------------------------------------------------------- fixture


@pytest.fixture(scope="module")
def fisher_run():
    habitat = Habitat("continuum", 1, 300.0, 0.1)
    op = DispersalOperator.random()
    u0 = make_front_initial(habitat, 1.0, 1.0)
    dt = 0.95 * stability_dt_bound(op, FISHER, u0)
    t0 = time.perf_counter()
    (traj,) = evolve(op, [FISHER], [u0], T=100.0, dt=dt, record_every=100)
    elapsed = time.perf_counter() - t0
    return habitat, traj, elapsed


def test_criterion_1_fisher_front_speed(fisher_run):
    habitat, traj, elapsed = fisher_run
    trace = track_front(traj, 1.0, 0.5)
    est = estimate_speed(trace, 0.5, exclusion=10.0 * habitat.spacing)
    rel_err = abs(est.slope - 2.0) / 2.0
    ok = rel_err <= 0.05 and elapsed <= 120.0
    _report(1, "fisher front speed",
            ok, f"c_emp={est.slope:.4f}, rel_err={rel_err:.2%}, runtime={elapsed:.1f}s")


def test_criterion_2_speed_invariance_sweeps(fisher_run):
    sweeps = [
        (DispersalOperator.random(), Habitat("continuum", 1, 300.0, 0.1)),
        (DispersalOperator.nonlocal_(Kernel.from_profile("triangle", 1.0, 0.1, 1)),
         Habitat("continuum", 1, 100.0, 0.1)),
        (DispersalOperator.discrete(W1), Habitat("lattice", 1, 300)),
    ]
    details = []
    ok = True
    for op, habitat in sweeps:
        rep = run_speed_invariance_sweep(op, Reaction.linear(1.0, 1.0, radius=2.0), habitat,
                                         1.0, 100.0)
        ok = ok and rep.ok_theory and rep.ok_pairwise
        details.append(f"{op.kind}: spread={rep.pairwise_spread:.2%}, "
                       f"max_rel={max(run.rel_error for run in rep.runs):.2%}")
    # negative controls on the amplitude-0 run: wrong theoretical speeds
    # must be caught by the cone checks
    habitat, traj, _ = fisher_run
    doubled = verify_spreading_cones(traj, 1.0, 4.0, 1.0)
    halved = verify_spreading_cones(traj, 1.0, 1.0, 1.0)
    controls_ok = (not doubled.inside_ok) and (not halved.outside_ok)
    ok = ok and controls_ok
    details.append(f"negative controls caught: {controls_ok}")
    _report(2, "localized inhomogeneity leaves speeds unchanged", ok, "; ".join(details))


def test_criterion_3_speed_minimizer_oracle():
    rng = np.random.default_rng(314)
    rels = []
    for _ in range(4):
        rels.append(("random", DispersionRelation.closed_form("random", 1.0, 0.5 + 2.0 * rng.random())))
    for _ in range(4):
        d0 = 0.5 + rng.random()
        kern = Kernel.from_profile(["triangle", "uniform"][int(rng.integers(2))], d0, d0 / 20.0, 1)
        rels.append(("nonlocal", DispersionRelation.closed_form(
            "nonlocal", 1.0, 0.3 + rng.random(), kernel=kern, resolution=kern.spacing)))
    for _ in range(4):
        w = LatticeWeights.symmetric(1, 0.5 + rng.random())
        rels.append(("discrete", DispersionRelation.closed_form(
            "discrete", 1.0, 0.3 + rng.random(), weights=w)))
    worst = 0.0
    for kind, rel in rels:
        res = minimize_speed(rel)
        c_brute = brute_force_speed(rel)
        worst = max(worst, abs(res.c_star - c_brute) / abs(c_brute))
    sqrt_ok = True
    for _ in range(4):
        r = 0.3 + 3.0 * rng.random()
        res = minimize_speed(DispersionRelation.closed_form("random", 1.0, r))
        sqrt_ok = sqrt_ok and abs(res.c_star - 2.0 * math.sqrt(r)) <= 1e-9
    ok = worst <= 1e-6 and sqrt_ok
    _report(3, "refined speed matches brute-force scan",
            ok, f"worst rel gap={worst:.2e} over 12 draws; 2*sqrt(r) exact: {sqrt_ok}")


def test_criterion_4_eigenvalue_closed_form_oracle():
    positive = True
    oracle_lam = oracle_phi = 0.0

    def solve(op):
        # every eigenpair is also checked against plain power iteration
        nonlocal oracle_lam, oracle_phi
        res = principal_eigenvalue(op)
        lam, phi = power_iteration(op)
        oracle_lam = max(oracle_lam, abs(res.lam - lam))
        oracle_phi = max(oracle_phi, float(np.abs(res.eigenfunction - phi).max()))
        return res

    # lattice: exact to 1e-10
    lattice_err = 0.0
    a = PeriodicCoefficient.constant(0.3, (4.0,), 1.0)
    for mu in (0.0, 0.9, 2.5):
        res = solve(assemble_cell_operator("discrete", mu, 1.0, a, weights=W1))
        positive = positive and res.eigenfunction.min() > 0.0
        lattice_err = max(lattice_err, abs(res.lam - (np.exp(-mu) + np.exp(mu) - 2.0 + 0.3)))
    # continuum Laplacian: constant-coefficient cells reproduce r + mu^2
    random_err = 0.0
    ar = PeriodicCoefficient.constant(0.8, (2.0,), 1.0 / 16.0)
    for mu in (0.0, 0.7, 2.0):
        res = solve(assemble_cell_operator("random", mu, 1.0, ar))
        positive = positive and res.eigenfunction.min() > 0.0
        random_err = max(random_err, abs(res.lam - (0.8 + mu * mu)))
    # continuum kernel quadrature: second-order h-refinement against the
    # exact twisted moment of the triangle kernel
    mu, r = 1.3, 0.4
    exact = 2.0 * (np.cosh(mu) - 1.0) / mu ** 2 - 1.0 + r
    errs = []
    for h in (1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0):
        kern = Kernel.from_profile("triangle", 1.0, h, 1)
        an = PeriodicCoefficient.constant(r, (4.0,), h)
        res = solve(assemble_cell_operator("nonlocal", mu, 1.0, an, kernel=kern))
        positive = positive and res.eigenfunction.min() > 0.0
        errs.append(abs(res.lam - exact))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    orders_ok = all(1.8 <= o <= 2.2 for o in orders)
    ok = (lattice_err <= 1e-10 and random_err <= 1e-10 and orders_ok and positive
          and oracle_lam <= 1e-9 and oracle_phi <= 1e-8)
    _report(4, "principal eigenvalues match closed forms", ok,
            f"lattice_err={lattice_err:.1e}, laplacian_err={random_err:.1e}, "
            f"refinement orders={['%.2f' % o for o in orders]}, eigenfunctions positive: {positive}, "
            f"vs power iteration: lambda {oracle_lam:.1e}, phi {oracle_phi:.1e}")


def test_criterion_5_average_coefficient_lower_bound():
    rng = np.random.default_rng(2718)
    kern = Kernel.from_profile("mollifier", 1.0, 0.25, 1)
    worst_gap = math.inf
    ok = True
    for kind, kwargs, spacing in [
        ("random", {}, 0.25),
        ("nonlocal", {"kernel": kern}, 0.25),
        ("discrete", {"weights": W1}, 1.0),
    ]:
        n = int(round(8.0 / spacing))
        x = np.arange(n) * spacing
        for _ in range(10):
            base = 0.4 + rng.random()
            vals = base + sum(
                (0.3 * rng.standard_normal()) * np.sin(2.0 * np.pi * (k + 1) * x / 8.0 + rng.random())
                for k in range(3)
            )
            a = PeriodicCoefficient((8.0,), spacing, vals)
            for mu in (0.0, 0.5, 2.0):
                rep = check_average_lower_bound(kind, mu, 1.0, a, **kwargs)
                ok = ok and rep.ok
                worst_gap = min(worst_gap, rep.lam - rep.bound)
    _report(5, "spatial variation never lowers the eigenvalue", ok,
            f"min(lambda - bound)={worst_gap:.2e} over 10 coefficients x 3 kinds x 3 mu")


def test_criterion_6_stationary_state():
    bump = Reaction.linear(1.0, 1.0, amplitude=0.5, radius=1.0)
    details = []
    ok = True
    cases = [
        (DispersalOperator.random(), Habitat("continuum", 1, 40.0, 0.1)),
        (DispersalOperator.nonlocal_(Kernel.from_profile("triangle", 1.0, 0.1, 1)),
         Habitat("continuum", 1, 40.0, 0.1)),
        (DispersalOperator.discrete(W1), Habitat("lattice", 1, 40)),
    ]
    for op, habitat in cases:
        above = solve_stationary(op, bump, habitat, route=FROM_ABOVE)
        below = solve_stationary(op, bump, habitat, route=FROM_BELOW)
        gap = float(np.abs(above.u_star.values - below.u_star.values).max())
        tail = check_tail(above.u_star, 1.0, R=4.0 * bump.radius, delta0=op.delta0)
        u = above.u_star
        perturbations = [
            Field(habitat, 0.5 * u.values),
            Field(habitat, 2.0 * u.values),
            Field(habitat, u.values + np.exp(-habitat.radius() ** 2)),
        ]
        stab = reconverge(op, bump, u, perturbations, T=200.0)
        bound = max(above.stability_bound, below.stability_bound)
        case_ok = (gap <= 1e-6 and above.residual <= 1e-7 and below.residual <= 1e-7
                   and tail < 0.01 and stab.ok and bound < 0.0)
        ok = ok and case_ok
        details.append(f"{op.kind}: gap={gap:.1e}, tail={tail:.1e}, bound={bound:.4f}, "
                       f"reconverge={max(stab.distances):.1e}")
    _report(6, "unique globally stable positive stationary state", ok, "; ".join(details))


def test_criterion_7_order_structure_suite():
    rng = np.random.default_rng(99)
    fixtures = [
        (DispersalOperator.random(), Habitat("continuum", 1, 10.0, 0.25)),
        (DispersalOperator.nonlocal_(Kernel.from_profile("triangle", 1.0, 0.25, 1)),
         Habitat("continuum", 1, 10.0, 0.25)),
        (DispersalOperator.discrete(W1), Habitat("lattice", 1, 10)),
    ]
    worst_violation = 0.0
    for op, habitat in fixtures:
        for _ in range(20):
            lo = rng.random(habitat.shape)
            hi = lo + rng.random(habitat.shape)
            dt = 0.9 * stability_dt_bound(op, FISHER, Field(habitat, hi))
            rep = check_comparison(op, FISHER, Field(habitat, lo), Field(habitat, hi),
                                   T=1.5, dt=dt, record_every=20)
            worst_violation = max(worst_violation, rep.violation)
    comparison_ok = worst_violation <= 5e-10

    decay_ok = True
    for k in range(10):
        op, habitat = fixtures[k % 3]
        u0 = Field(habitat, 0.2 + rng.random(habitat.shape))
        v0 = Field(habitat, 0.2 + rng.random(habitat.shape))
        dt = 0.9 * stability_dt_bound(op, FISHER, v0)
        rep = check_part_metric_decay(op, FISHER, u0, v0, T=2.0, dt=dt, record_every=10)
        decay_ok = decay_ok and rep.ok

    habitat = Habitat("continuum", 1, 4.0, 0.5)
    oracle_err = 0.0
    for _ in range(10):
        a = 0.2 + rng.random(habitat.shape)
        b = 0.2 + rng.random(habitat.shape)
        got = part_metric(Field(habitat, a), Field(habitat, b))
        oracle_err = max(oracle_err, abs(got - part_metric_alpha_search(a, b)))
    oracle_ok = oracle_err <= 1e-10
    ok = comparison_ok and decay_ok and oracle_ok
    _report(7, "comparison and part-metric order structure", ok,
            f"worst ordering violation={worst_violation:.1e}, metric decay: {decay_ok}, "
            f"alpha-search gap={oracle_err:.1e}")


def test_criterion_8_exponential_envelope(fisher_run):
    habitat, traj, _ = fisher_run
    proj = habitat.projection(1.0)
    d = float((traj.initial.values * np.exp(np.minimum(proj, 60.0))).max()) * (1.0 + 1e-12)
    good = check_exponential_supersolution(traj, d=d, mu=1.0, c=2.0, xi=1.0)
    bad = check_exponential_supersolution(traj, d=d, mu=1.0, c=1.0, xi=1.0)
    ok = good.ok and not bad.ok
    _report(8, "exponential envelope at the spreading speed", ok,
            f"(mu,c)=(1,2) excess={good.violation:.1e} <= {good.tolerance:.1e}; "
            f"c=1 control violates by {bad.violation:.2f}")


def test_criterion_9_compact_data_spreading():
    bump = Reaction.linear(1.0, 1.0, amplitude=0.5, radius=1.0)
    ok = True
    details = []
    cases = [
        (DispersalOperator.random(), Habitat("continuum", 1, 150.0, 0.1), 50.0),
        (DispersalOperator.nonlocal_(Kernel.from_profile("triangle", 1.0, 0.1, 1)),
         Habitat("continuum", 1, 60.0, 0.1), 50.0),
        (DispersalOperator.discrete(W1), Habitat("lattice", 1, 150), 50.0),
    ]
    for op, habitat, T in cases:
        star = solve_stationary(op, bump, habitat, route=FROM_ABOVE).u_star
        worst = []
        for clause in (1, 2, 3, 4):
            v = run_compact_spreading_checks(op, bump, habitat, clause, T=T, u_star=star)
            ok = ok and v.ok
            worst.append(v.worst_value / v.threshold)
        details.append(f"{op.kind}: max(worst/thr)={max(worst):.2f}")
        if op.kind == "random":
            neg4 = run_compact_spreading_checks(op, bump, habitat, 4, T=T,
                                                u_star=star, c_scale=2.0)
            neg1 = run_compact_spreading_checks(op, bump, habitat, 1, T=T,
                                                u_star=star, c_scale=0.5)
            controls = (not neg4.ok) and (not neg1.ok)
            ok = ok and controls
            details.append(f"negative controls caught: {controls}")
    # one 2-D run with the Laplacian kind: radial data stays confined to
    # the fastest cone (margin 0.2)
    hab2 = Habitat("continuum", 2, 50.0, 0.25)
    v2 = run_compact_spreading_checks(DispersalOperator.random(), FISHER, hab2, 3,
                                      T=16.0, r=2.0)
    ok = ok and v2.ok
    details.append(f"2-D clause 3 worst={v2.worst_value:.1e} (thr {v2.threshold:.0e})")
    _report(9, "spreading features of compact initial data", ok, "; ".join(details))

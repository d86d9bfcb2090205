import numpy as np
import pytest

from kpplab import (
    BracketEdgeError,
    DispersionRelation,
    Habitat,
    Kernel,
    LatticeWeights,
    PeriodicCoefficient,
    Reaction,
    minimize_speed,
    theoretical_speed,
)
from kpplab.stationary import periodic_minorant

W1 = LatticeWeights.symmetric(1, 1.0)


def brute_force_speed(rel, resolution=1e-5, mu_max=20.0):
    """Oracle: dense mu scan of lambda(mu)/mu at fixed resolution."""
    mus = np.arange(1e-3, mu_max, resolution)
    vals = np.asarray(rel(mus)) / mus
    i = int(np.argmin(vals))
    return float(vals[i]), float(mus[i])


def test_fisher_speed_closed_form():
    # inf (r + mu^2)/mu = 2 sqrt(r), at mu = sqrt(r)
    for r, c, mu in [(1.0, 2.0, 1.0), (4.0, 4.0, 2.0)]:
        rel = DispersionRelation.closed_form("random", 1.0, r)
        res = minimize_speed(rel)
        assert abs(res.c_star - c) < 1e-9
        assert abs(res.mu_star - mu) < 1e-6


def test_golden_section_matches_brute_force():
    rng = np.random.default_rng(42)
    rels = []
    for _ in range(4):
        rels.append(DispersionRelation.closed_form("random", 1.0, 0.5 + 2.0 * rng.random()))
    for _ in range(4):
        delta0 = 0.5 + rng.random()
        kern = Kernel.from_profile(("triangle", "uniform")[rng.integers(2)], delta0, delta0 / 20, 1)
        rels.append(
            DispersionRelation.closed_form(
                "nonlocal", 1.0, 0.3 + rng.random(), kernel=kern, resolution=kern.spacing
            )
        )
    for _ in range(4):
        w = LatticeWeights.symmetric(1, 0.5 + rng.random())
        rels.append(DispersionRelation.closed_form("discrete", 1.0, 0.3 + rng.random(), weights=w))
    for rel in rels:
        res = minimize_speed(rel)
        c_brute, _ = brute_force_speed(rel)
        assert abs(res.c_star - c_brute) <= 1e-6 * abs(c_brute), (res.c_star, c_brute)


def test_final_bracket_contains_mu_star():
    kern = Kernel.from_profile("triangle", 1.0, 0.1, 1)
    for kind, payload in [("random", {}), ("nonlocal", {"kernel": kern}),
                          ("discrete", {"weights": W1})]:
        res = theoretical_speed(kind, Reaction.linear(1.0, 1.0), 1.0, **payload)
        lo, hi = res.bracket
        assert lo <= res.mu_star <= hi, kind
        assert hi - lo <= 1e-8 * hi, kind


def test_discrete_speed_against_scan():
    rel = DispersionRelation.closed_form("discrete", 1.0, 1.0, weights=W1)
    res = minimize_speed(rel)
    c_brute, mu_brute = brute_force_speed(rel)
    assert abs(res.c_star - c_brute) < 1e-6
    assert abs(res.mu_star - mu_brute) < 1e-3
    assert res.c_star == pytest.approx(2.0734446, abs=1e-5)


def test_scaling_law_random_kind():
    rng = np.random.default_rng(9)
    for _ in range(5):
        r = 0.3 + 3.0 * rng.random()
        beta = 0.5 + 2.0 * rng.random()
        c1 = minimize_speed(DispersionRelation.closed_form("random", 1.0, r)).c_star
        c2 = minimize_speed(DispersionRelation.closed_form("random", 1.0, beta * r)).c_star
        assert abs(c2 - np.sqrt(beta) * c1) < 1e-9


def test_theoretical_speed_ignores_amplitude():
    for amp in (-0.5, 0.0, 1.0):
        rea = Reaction.linear(1.0, 1.0, amplitude=amp, radius=2.0)
        res = theoretical_speed("random", rea, 1.0)
        assert abs(res.c_star - 2.0) < 1e-9


def test_theoretical_speed_nonlocal_uniform():
    kern = Kernel.from_profile("uniform", 1.0, 0.05, 1)
    rea = Reaction.linear(1.0, 1.0)
    res = theoretical_speed("nonlocal", rea, 1.0, kernel=kern)
    rel = DispersionRelation.closed_form("nonlocal", 1.0, 1.0, kernel=kern)
    c_brute, _ = brute_force_speed(rel)
    assert abs(res.c_star - c_brute) < 1e-6
    # the exact kernel gives inf sinh(mu)/mu^2 ~ 0.9053; quadrature shifts
    # it by O(h/4) only
    assert res.c_star == pytest.approx(0.9053, abs=0.02)


def test_direction_symmetry_discrete():
    rea = Reaction.linear(1.0, 1.0)
    cp = theoretical_speed("discrete", rea, 1.0, weights=W1).c_star
    cm = theoretical_speed("discrete", rea, -1.0, weights=W1).c_star
    assert abs(cp - cm) < 1e-12


def test_bracket_edge_refusal():
    rel = DispersionRelation(lambda mu: np.sqrt(np.asarray(mu)))
    with pytest.raises(BracketEdgeError, match="bracket edge"):
        minimize_speed(rel)


def test_nonpositive_growth_refusal():
    rel = DispersionRelation.closed_form("random", 1.0, -1.0)
    with pytest.raises(ValueError, match="not well posed"):
        minimize_speed(rel)


def test_eigen_backed_matches_closed_form():
    # constant coefficients: eigen-backed dispersion must reproduce the
    # closed-form speed (lattice to 1e-8; the random cell is exact too)
    a = PeriodicCoefficient.constant(1.0, (4.0,), 1.0)
    rel_e = DispersionRelation.eigen_backed("discrete", 1.0, a, weights=W1, mu_max=6.0)
    rel_c = DispersionRelation.closed_form("discrete", 1.0, 1.0, weights=W1, mu_max=6.0)
    ce = minimize_speed(rel_e)
    cc = minimize_speed(rel_c)
    assert abs(ce.c_star - cc.c_star) < 1e-8

    ar = PeriodicCoefficient.constant(1.0, (2.0,), 0.125)
    rel_e = DispersionRelation.eigen_backed("random", 1.0, ar, mu_max=6.0)
    ce = minimize_speed(rel_e)
    assert abs(ce.c_star - 2.0) < 1e-7


def test_eigen_backed_random_scan_stays_in_twist_range():
    # at h = 0.25 the random cell admits only mu < 1/h = 4; the default
    # mu_max = 20 must give the speed found inside that range
    x = np.arange(16) * 0.25
    a = PeriodicCoefficient((4.0,), 0.25, 1.0 + 0.12 * np.sin(np.pi * x / 2.0 + 0.4)
                            + 0.08 * np.sin(np.pi * x + 1.1))
    c_default = minimize_speed(DispersionRelation.eigen_backed("random", 1.0, a)).c_star
    c_inside = minimize_speed(DispersionRelation.eigen_backed("random", 1.0, a, mu_max=3.5)).c_star
    assert abs(c_default - c_inside) < 1e-10
    # a minimizer mu* = sqrt(25) beyond the range sits on the scan edge
    fast = PeriodicCoefficient.constant(25.0, (4.0,), 0.25)
    with pytest.raises(BracketEdgeError, match="mu_max"):
        minimize_speed(DispersionRelation.eigen_backed("random", 1.0, fast))


def test_minorant_speed_average_bound():
    # eigen-backed speed of a periodic minorant dominates the speed of
    # its averaged medium
    habitat = Habitat("continuum", 1, 20.0, 0.125)
    rea = Reaction.linear(1.0, 1.0, amplitude=-0.5, radius=1.0)
    _, coeff = periodic_minorant(rea, 0.3, habitat)
    rel = DispersionRelation.eigen_backed("random", 1.0, coeff, mu_max=6.0)
    c_eig = minimize_speed(rel).c_star
    c_avg = minimize_speed(
        DispersionRelation.closed_form("random", 1.0, coeff.average, mu_max=6.0)
    ).c_star
    assert c_eig >= c_avg - 1e-8

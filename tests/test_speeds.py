import numpy as np
import pytest
from oracles import scalar_scan_speed

from kpplab import (
    BracketEdgeError,
    DispersionRelation,
    Habitat,
    Kernel,
    LatticeWeights,
    PeriodicCoefficient,
    Reaction,
    assemble_cell_operator,
    minimize_speed,
    theoretical_speed,
)
from kpplab.domain import sampled_directions
from kpplab.eigen import DENSE_START_MAX
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


def test_scan_refuses_a_mu_max_at_or_below_its_first_point():
    # below 1e-3 the log-spaced grid would run backwards, and at 1e-3 it
    # would hold 60 copies of one point
    for mu_max in (5e-4, 1e-3):
        rel = DispersionRelation.closed_form("random", 1.0, 1.0, mu_max=mu_max)
        with pytest.raises(ValueError, match="mu_max"):
            minimize_speed(rel)


def test_eigen_backed_array_names_the_mu_beyond_the_twist_limit():
    # h = 0.25: the random cell's twist limit is 1/h = 4
    x = np.arange(16) * 0.25
    a = PeriodicCoefficient((4.0,), 0.25, 1.0 + 0.12 * np.sin(np.pi * x / 2.0))
    rel = DispersionRelation.eigen_backed("random", 1.0, a)
    with pytest.raises(ValueError) as single:
        assemble_cell_operator("random", 4.0, 1.0, a)
    with pytest.raises(ValueError) as scan:
        rel(np.array([0.5, 4.0, 4.5]))
    assert "mu=4.0" in str(scan.value) and str(scan.value) == str(single.value)


def _benchmark_cell(kind):
    """The three 16-point cells of the dispersion benchmark's kinds:
    random and nonlocal at period 4 and h = 0.25, the lattice at period 8."""
    x = np.arange(16) * 0.25
    if kind == "random":
        a = PeriodicCoefficient((4.0,), 0.25, 1.0 + 0.12 * np.sin(np.pi * x / 2.0 + 0.4)
                                + 0.08 * np.sin(np.pi * x + 1.1))
        return DispersionRelation.eigen_backed("random", 1.0, a, mu_max=3.5)
    if kind == "nonlocal":
        a = PeriodicCoefficient((4.0,), 0.25, 1.0 + 0.08 * np.cos(np.pi * x))
        return DispersionRelation.eigen_backed(
            "nonlocal", 1.0, a, kernel=Kernel.from_profile("triangle", 1.0, 0.25, 1), mu_max=3.5)
    a = PeriodicCoefficient((8.0,), 1.0, 1.0 + 0.12 * np.sin(np.arange(8.0)))
    return DispersionRelation.eigen_backed("discrete", 1.0, a, weights=W1, mu_max=3.5)


def _cutoff_cell():
    """A 16 x 16 random cell: DENSE_START_MAX points, one matrix per eig stack."""
    g = np.arange(16) * 0.25
    a = PeriodicCoefficient((4.0, 4.0), 0.25, 1.0 + 0.1 * np.sin(np.pi * g[:, None] / 2.0)
                            * np.cos(np.pi * g[None, :] / 2.0 + 0.3))
    assert a.values.size == DENSE_START_MAX
    return DispersionRelation.eigen_backed("random", (0.6, 0.8), a, mu_max=3.5)


def _long_cell():
    """320 points, above DENSE_START_MAX: Noda from constants."""
    x = np.arange(320) * 0.125
    a = PeriodicCoefficient((40.0,), 0.125, 1.0 + 0.1 * np.sin(np.pi * x / 20.0)
                            + 0.05 * np.cos(np.pi * x / 5.0))
    return DispersionRelation.eigen_backed("random", 1.0, a, mu_max=3.5)


KERNEL_1D = Kernel.from_profile("triangle", 1.0, 0.1, 1)
KERNEL_2D = Kernel.from_profile("triangle", 1.0, 0.25, 2)
SCAN_CASES = {
    "closed random": lambda: DispersionRelation.closed_form("random", 1.0, 1.0),
    "closed nonlocal": lambda: DispersionRelation.closed_form("nonlocal", 1.0, 1.0,
                                                              kernel=KERNEL_1D),
    "closed discrete": lambda: DispersionRelation.closed_form("discrete", 1.0, 1.0, weights=W1),
    **{f"closed 2-D {kind} {k}": (lambda kind=kind, xi=xi: DispersionRelation.closed_form(
        kind, xi, 1.0, **({"kernel": KERNEL_2D} if kind == "nonlocal" else {})))
       for kind in ("nonlocal", "random") for k, xi in enumerate(sampled_directions(2, 8))},
    **{f"eigen {kind} cell": (lambda kind=kind: _benchmark_cell(kind))
       for kind in ("random", "nonlocal", "discrete")},
    "eigen 16x16 cell": _cutoff_cell,
    "eigen 320-point cell": _long_cell,
}


def _recorded(rel):
    """rel, with every call's (mu, lambda) appended to a list."""
    calls = []

    def evaluator(mu):
        lam = rel(mu)
        calls.append((mu, lam))
        return lam

    return DispersionRelation(evaluator, rel.mu_max), calls


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


@pytest.mark.parametrize("name", list(SCAN_CASES))
def test_scan_matches_the_scalar_scan_oracle(name):
    """minimize_speed evaluates its scan in one call rel(grid); the oracle
    calls rel(m) for each m of the grid.  Each scan value, each
    golden-section value and the whole SpeedResult agree bit for bit."""
    rel = SCAN_CASES[name]()
    vectorized, calls = _recorded(rel)
    scalar, oracle_calls = _recorded(rel)
    got, want = minimize_speed(vectorized), scalar_scan_speed(scalar)
    assert (_bits([got.c_star, got.mu_star, *got.bracket]).tolist(), got.evaluations) == (
        _bits([want.c_star, want.mu_star, *want.bracket]).tolist(), want.evaluations)
    grid = np.geomspace(1e-3, rel.mu_max, 60)
    assert np.array_equal(calls[1][0], grid)
    # rel(grid) is [rel(m) for m in grid], bit for bit
    assert np.array_equal(_bits(calls[1][1]), _bits([lam for _, lam in oracle_calls[1:61]]))
    rest = [calls[0], *calls[2:]]
    oracle_rest = [oracle_calls[0], *oracle_calls[61:]]
    assert len(calls) == 2 + len(oracle_calls) - 61 and got.evaluations == len(oracle_calls)
    assert np.array_equal(_bits([mu for mu, _ in rest]), _bits([mu for mu, _ in oracle_rest]))
    assert np.array_equal(_bits([lam for _, lam in rest]), _bits([lam for _, lam in oracle_rest]))

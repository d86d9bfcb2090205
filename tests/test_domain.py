import numpy as np
import pytest

from kpplab import (
    DomainSizeError,
    Field,
    Habitat,
    Kernel,
    LatticeWeights,
    NoEquilibriumError,
    Reaction,
    check_kpp_hypotheses,
    closed_form_eigenvalue,
    make_compact_initial,
    make_front_initial,
    mollifier_bump,
)
from kpplab.domain import bisect_root


def test_habitat_validation():
    h = Habitat("continuum", 1, 10.0, 0.1)
    assert h.n_per_axis == 201
    assert h.axis_coords()[0] == -10.0 and h.axis_coords()[-1] == 10.0
    with pytest.raises(ValueError):
        Habitat("continuum", 1, 10.0, 0.3)  # L/h not integer
    with pytest.raises(ValueError):
        Habitat("lattice", 1, 10.0, 0.5)  # lattice spacing must be 1
    with pytest.raises(ValueError):
        Habitat("continuum", 3, 10.0, 1.0)
    assert Habitat("continuum", 1, 0.5, 0.5).n_per_axis == 3  # minimum size
    Habitat("lattice", 2, 5)


def test_field_guards():
    h = Habitat("continuum", 1, 5.0, 1.0)
    with pytest.raises(ValueError):
        Field(h, np.zeros(7))
    with pytest.raises(ValueError):
        Field(h, np.full(h.shape, np.nan))
    f = h.full(2.0)
    assert f.is_strictly_positive()
    with pytest.raises(ValueError):
        f.values[0] = 1.0  # frozen


def test_equilibrium_roots():
    # f0(u) = 1 - u has root 1; f0(u) = 4 - 2u has root 2
    h = Habitat("continuum", 1, 10.0, 0.5)
    rep = check_kpp_hypotheses(Reaction.linear(1.0, 1.0), h)
    assert abs(rep.u0_star - 1.0) < 1e-10
    rep = check_kpp_hypotheses(Reaction.linear(4.0, 2.0), h)
    assert abs(rep.u0_star - 2.0) < 1e-10
    assert rep.h1_ok and rep.h2_ok


def test_logistic_is_affine():
    r = Reaction.logistic(2.0, 3.0)
    u = np.linspace(0, 4, 9)
    assert np.allclose(r.f0(u), 2.0 * (1.0 - u / 3.0))
    h = Habitat("continuum", 1, 10.0, 0.5)
    assert abs(check_kpp_hypotheses(r, h).u0_star - 3.0) < 1e-10


def test_localized_perturbation_exact_outside():
    # f(x, u) = 1 + 0.5*bump(|x|/5) - u inside |x| < 5, exactly 1 - u outside
    h = Habitat("continuum", 1, 20.0, 0.25)
    rea = Reaction.linear(1.0, 1.0, amplitude=0.5, radius=5.0)
    rep = check_kpp_hypotheses(rea, h)
    assert rep.h2_ok and rep.h1_ok
    x = h.grid()[0]
    u = np.full(h.shape, 0.3)
    f = rea.evaluate(h, u)
    outside = np.abs(x) >= 5.0
    assert np.all(f[outside] == 1.0 - 0.3)  # exact equality, not approximate
    inside = np.abs(x) < 5.0
    expected = 1.0 + 0.5 * mollifier_bump(x[inside] / 5.0) - 0.3
    assert np.allclose(f[inside], expected, rtol=0, atol=0)
    assert f[x == 0.0][0] == pytest.approx(1.0 + 0.5 - 0.3)  # bump(0) = 1


def test_homogeneous_reaction_is_x_independent():
    h = Habitat("continuum", 2, 5.0, 0.5)
    rea = Reaction.linear(1.0, 1.0, amplitude=0.0, radius=2.0)
    f = rea.evaluate(h, np.full(h.shape, 0.4))
    assert np.all(f == f.flat[0])


def test_no_positive_equilibrium_error():
    h = Habitat("continuum", 1, 5.0, 1.0)
    # forge an invalid reaction to exercise the guard (the constructor
    # would reject r0 <= 0)
    bad = object.__new__(Reaction)
    for k, v in [("r0", -1.0), ("slope", 1.0), ("amplitude", 0.0),
                 ("radius", 1.0), ("family", "linear")]:
        object.__setattr__(bad, k, v)
    with pytest.raises(NoEquilibriumError, match="no positive equilibrium"):
        check_kpp_hypotheses(bad, h)


def test_bisection():
    assert abs(bisect_root(lambda u: 4.0 - 2.0 * u, 0.0, 3.0) - 2.0) < 1e-12
    with pytest.raises(ValueError):
        bisect_root(lambda u: 1.0 + u * u, 0.0, 1.0)


def test_front_initial_1d():
    h = Habitat("continuum", 1, 20.0, 0.5)
    u = make_front_initial(h, 1.0, 0.5)
    x = h.grid()[0]
    assert u.values[x == -10.0][0] == 0.5
    assert u.values[x == 2.0][0] == 0.0
    # mirror image under xi = -1: plateau ahead of +x, zero behind -x
    v = make_front_initial(h, -1.0, 1.0)
    assert v.values[x == 10.0][0] == 1.0
    assert v.values[x == -2.0][0] == 0.0
    assert np.allclose(v.values, make_front_initial(h, 1.0, 1.0).values[::-1])
    # non-increasing along xi, bounded by [0, sigma0]
    assert np.all(np.diff(u.values) <= 0)
    assert u.min >= 0.0 and u.max <= 0.5


def test_front_initial_2d_constant_transverse():
    h = Habitat("continuum", 2, 5.0, 0.5)
    u = make_front_initial(h, (1.0, 0.0), 1.0)
    assert np.all(u.values == u.values[:, :1])


def test_compact_initial():
    h = Habitat("continuum", 1, 20.0, 0.5)
    u = make_compact_initial(h, 5.0, 1.0)
    x = h.grid()[0]
    assert u.values[x == 0.0][0] == 1.0
    assert u.values[x == 10.0][0] == 0.0
    v = make_compact_initial(h, 0.5, 2.0)
    assert v.values[x == 0.0][0] == 2.0
    with pytest.raises(DomainSizeError):
        make_compact_initial(h, 19.5, 1.0)
    h2 = Habitat("continuum", 2, 8.0, 0.5)
    w = make_compact_initial(h2, 3.0, 1.0)
    # radially symmetric plateau
    assert np.all(w.values[h2.radius() <= 3.0] == 1.0)
    assert np.all(w.values[h2.radius() >= 4.0] == 0.0)


def test_kernel_normalization_exact():
    for profile in ("uniform", "triangle", "mollifier"):
        k = Kernel.from_profile(profile, 1.0, 0.1, 1)
        assert abs(k.mass - 1.0) <= 1e-15 * len(k.weights)
        assert np.all(k.weights >= 0)
        assert np.all(np.abs(k.displacements()) < 1.0)
    k2 = Kernel.from_profile("mollifier", 1.5, 0.25, 2)
    assert abs(k2.mass - 1.0) <= 1e-14
    with pytest.raises(ValueError):
        Kernel.from_profile("uniform", 0.5, 1.0, 1)  # support too small


def test_kernel_halfspace_mass_symmetric():
    k = Kernel.from_profile("triangle", 1.0, 0.05, 1)
    assert abs(k.halfspace_mass(1.0) - 0.5) < 1e-12
    k2 = Kernel.from_profile("mollifier", 1.0, 0.125, 2)
    assert abs(k2.halfspace_mass((0.6, 0.8)) - 0.5) < 1e-12


def test_lattice_weights():
    w = LatticeWeights.symmetric(2, 1.5)
    assert w.rate_sum == 6.0
    assert abs(closed_form_eigenvalue("discrete", 0.0, (1.0, 0.0), 0.0, weights=w)) == 0.0
    val = closed_form_eigenvalue("discrete", 1.0, (1.0, 0.0), 0.0, weights=w)
    assert val == pytest.approx(1.5 * (np.exp(-1) + np.exp(1) - 2.0))
    with pytest.raises(ValueError):
        LatticeWeights(1, np.array([[1], [2]]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        LatticeWeights.from_rates({(1,): 1.0, (-1,): -0.5})

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpplab import (
    DomainSizeError,
    Field,
    Habitat,
    Kernel,
    LatticeWeights,
    PeriodicCoefficient,
    Reaction,
    closed_form_eigenvalue,
    make_compact_initial,
    make_front_initial,
    mollifier_bump,
)


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


def _unchecked(cls, **fields):
    """An instance of cls holding fields, built without its constructor."""
    obj = cls.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def test_field_unpickles_frozen_and_validated():
    # a value object sent to a worker process unpickles through its
    # constructor: equal, with its arrays frozen again
    h = Habitat("continuum", 2, 3.0, 0.5)
    f = Field(h, np.arange(np.prod(h.shape), dtype=float).reshape(h.shape))
    for obj, arrays in [
        (f, ("values",)),
        (Kernel.from_profile("triangle", 1.0, 0.25, 1), ("offsets", "weights")),
        (LatticeWeights.from_rates({(1, 0): 1.0, (-1, 0): 0.5, (0, 1): 2.0, (0, -1): 1.5}),
         ("offsets", "values")),
        (PeriodicCoefficient((2.0,), 0.5, np.array([0.5, 1.5, 1.0, 1.25])), ("values",)),
    ]:
        g = pickle.loads(pickle.dumps(obj))
        assert type(g) is type(obj)
        for name in arrays:
            a = getattr(g, name)
            assert np.array_equal(a, getattr(obj, name)) and a.dtype == getattr(obj, name).dtype
            with pytest.raises(ValueError):
                a.flat[0] = 1  # frozen again
    assert g.period == (2.0,) and pickle.loads(pickle.dumps(f)).habitat == h
    # the constructor runs on load: a payload it refuses does not load
    for bad, match in [
        (_unchecked(Field, habitat=h, values=np.full(h.shape, np.nan)), "finite"),
        (_unchecked(LatticeWeights, dim=1, offsets=np.array([[1], [-1]]),
                    values=np.array([1.0, -1.0])), "positive"),
        (_unchecked(PeriodicCoefficient, period=(2.0,), spacing=0.5,
                    values=np.array([1.0, np.inf, 1.0, 1.0])), "finite"),
    ]:
        with pytest.raises(ValueError, match=match):
            pickle.loads(pickle.dumps(bad))


def test_equilibrium_roots():
    # f0(u) = 1 - u has root 1; f0(u) = 4 - 2u has root 2
    assert Reaction.linear(1.0, 1.0).u0_star == 1.0
    assert Reaction.linear(4.0, 2.0).u0_star == 2.0


def test_logistic_is_affine():
    r = Reaction.logistic(2.0, 3.0)
    u = np.linspace(0, 4, 9)
    assert np.allclose(r.f0(u), 2.0 * (1.0 - u / 3.0))
    assert r.u0_star == 3.0


def test_localized_perturbation_exact_outside():
    # f(x, u) = 1 + 0.5*bump(|x|/5) - u inside |x| < 5, exactly 1 - u outside
    h = Habitat("continuum", 1, 20.0, 0.25)
    rea = Reaction.linear(1.0, 1.0, amplitude=0.5, radius=5.0)
    assert rea.u0_star == 1.0
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


def test_h1_refused_at_construction():
    # beta0's margin is 1e-6 u0*, so f(x, beta0) = -1e-6 r0 survives the
    # rounding at every finite carrying capacity, K = 1e12 included; it is
    # lost where the amplitude outweighs r0 by about 1e-6 / eps
    large = Reaction.logistic(1.0, 1e12)
    assert large.u0_star < large.beta0
    with pytest.raises(ValueError, match="beta0"):
        Reaction.linear(1.0, 1.0, amplitude=1e12)  # beta0 rounds to 1e12 + 1
    with pytest.raises(ValueError, match="beta0"):
        Reaction.linear(1e300, 1e-300)  # r0 / slope overflows
    with pytest.raises(ValueError, match="r0"):
        Reaction.linear(-1.0, 1.0)  # no positive equilibrium


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    r0=st.floats(1e-2, 1e2),
    slope=st.floats(1e-6, 1e2),
    amplitude=st.floats(-10.0, 10.0),
    radius=st.floats(0.1, 5.0),
    dim=st.sampled_from([1, 2]),
    spacing=st.sampled_from([0.1, 0.25, 0.5, 1.0]),
)
def test_reaction_states_kpp_hypotheses(r0, slope, amplitude, radius, dim, spacing):
    rea = Reaction.linear(r0, slope, amplitude, radius)
    h = Habitat("continuum", dim, int(np.ceil((radius + 1.0) / spacing)) * spacing, spacing)
    # H2: the homogeneous law, exactly, wherever the bump vanishes
    u = np.linspace(0.0, 2.0 * rea.beta0, h.n_points).reshape(h.shape)
    outside = h.radius() >= radius
    assert np.any(outside)
    assert np.all(rea.evaluate(h, u)[outside] == rea.f0(u)[outside])
    # H1: negative at beta0 on every grid point, above the equilibrium
    assert np.all(rea.evaluate(h, h.full(rea.beta0).values) < 0.0)
    assert rea.u0_star < rea.beta0
    assert abs(float(rea.f0(rea.u0_star))) <= 4.0 * np.spacing(r0)


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
    # the one support-radius rule: 0 < r and r + 1 < half_extent
    for r in (19.0, 19.5, 0.0, -1.0):
        with pytest.raises(DomainSizeError):
            make_compact_initial(h, r, 1.0)
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

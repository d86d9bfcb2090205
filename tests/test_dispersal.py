import ast
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

import oracles

from kpplab import (
    DispersalOperator,
    Field,
    Habitat,
    Kernel,
    LatticeWeights,
    PeriodicCoefficient,
    assemble_cell_operator,
    closed_form_eigenvalue,
)
import kpplab
from kpplab import dispersal

HAB = Habitat("continuum", 1, 10.0, 0.1)
LAT = Habitat("lattice", 1, 10)


def _ops():
    return [
        (DispersalOperator.random(), HAB),
        (DispersalOperator.nonlocal_(Kernel.from_profile("triangle", 1.0, 0.1, 1)), HAB),
        (DispersalOperator.discrete(LatticeWeights.symmetric(1, 1.0)), LAT),
    ]


def test_constants_map_to_zero_exactly():
    for op, hab in _ops():
        out = op.apply(hab.full(0.7)).values
        assert np.all(out == 0.0), op.kind


def test_laplacian_of_x_squared():
    x = HAB.grid()[0]
    out = DispersalOperator.random().apply(Field(HAB, x * x)).values
    assert np.allclose(out[1:-1], 2.0, atol=1e-9)


def test_discrete_indicator():
    # a_k = 1, indicator of the origin: -2N at the origin, 1 at neighbors
    for dim, lat in [(1, LAT), (2, Habitat("lattice", 2, 5))]:
        op = DispersalOperator.discrete(LatticeWeights.symmetric(dim, 1.0))
        vals = np.zeros(lat.shape)
        origin = (lat.half_points,) * dim
        vals[origin] = 1.0
        out = op.apply(Field(lat, vals)).values
        assert out[origin] == -2.0 * dim
        assert np.isclose(out.sum(), 0.0)
        neighbors = np.argwhere(out == 1.0)
        assert len(neighbors) == 2 * dim


def _cell(kind, mu, period, spacing, **payload):
    """Twisted 1-D cell operator with a = 0: the stencil on a periodic cell."""
    a = PeriodicCoefficient.constant(0.0, (period,), spacing)
    return assemble_cell_operator(kind, mu, 1.0, a, **payload)


def test_twisted_at_mu_zero_matches_apply():
    rng = np.random.default_rng(3)
    hper = Habitat("continuum", 1, 10.0, 0.1, boundary="periodic")
    lper = Habitat("lattice", 1, 10, boundary="periodic")
    for (op, _), hab in zip(_ops(), [hper, hper, lper]):
        cell = _cell(op.kind, 0.0, hab.n_per_axis * hab.spacing, hab.spacing,
                     kernel=op.kernel, weights=op.weights)
        u = rng.random(hab.shape)
        ref = op.apply(Field(hab, u)).values
        # the cell sums w_j u(x + z_j) - (sum_j w_j) u(x), the habitat
        # operator sum_j w_j (u(x + z_j) - u(x)): different rounding
        assert np.abs(cell.matvec(u) - ref).max() <= 1e-14 * np.abs(ref).max(), op.kind


def test_twisted_random_on_constant():
    cell = _cell("random", 0.5, 10.0, 0.1)
    assert np.allclose(cell.matvec(np.ones(cell.shape)), 0.25, atol=1e-14)


def test_twisted_discrete_on_constant():
    cell = _cell("discrete", 1.0, 10.0, 1.0, weights=LatticeWeights.symmetric(1, 1.0))
    expected = np.exp(-1.0) + np.exp(1.0) - 2.0  # 1.0861612696...
    assert np.allclose(cell.matvec(np.ones(cell.shape)), expected, atol=1e-13)


def test_twisted_on_constant_matches_symbol():
    # closed-form oracle: independent quadrature/sums of the twist factor
    mu = 0.8
    # random: mu^2
    cell = _cell("random", mu, 10.0, 0.1)
    assert np.allclose(cell.matvec(np.ones(cell.shape)), mu * mu, atol=1e-13)
    # nonlocal triangle kernel: exact moment 2 (cosh mu - 1) / mu^2, met
    # at quadrature accuracy
    kern = Kernel.from_profile("triangle", 1.0, 0.1, 1)
    out = _cell("nonlocal", mu, 10.0, 0.1, kernel=kern).matvec(np.ones(100))
    exact = 2.0 * (np.cosh(mu) - 1.0) / mu ** 2 - 1.0
    # midpoint-sum quadrature error bound: h^2/12 * sum of |kink jumps of
    # the integrand derivative| = h^2 (2 cosh mu - 2)/12, with margin 2
    qtol = 2.0 * 0.1 ** 2 * (2.0 * np.cosh(mu) - 2.0) / 12.0
    assert np.allclose(out, exact, atol=qtol)
    symbol = closed_form_eigenvalue("nonlocal", mu, 1.0, 0.0, kernel=kern, resolution=0.1)
    assert np.allclose(out, symbol, atol=1e-13)
    # independent oracle for the discretized moment via scipy.quad
    quad_exact, _ = integrate.quad(lambda z: np.exp(-mu * z) * max(0.0, 1.0 - abs(z)), -1, 1)
    moment = closed_form_eigenvalue("nonlocal", mu, 1.0, 1.0, kernel=kern,
                                    resolution=kern.spacing)
    assert abs(moment - quad_exact) < qtol
    # discrete
    cell = _cell("discrete", mu, 10.0, 1.0, weights=LatticeWeights.symmetric(1, 1.3))
    out = cell.matvec(np.ones(cell.shape))
    assert np.allclose(out, 1.3 * (np.exp(-mu) + np.exp(mu) - 2.0), atol=1e-13)


def test_linearity():
    rng = np.random.default_rng(7)
    for op, hab in _ops():
        u = rng.standard_normal(hab.shape)
        v = rng.standard_normal(hab.shape)
        lhs = op.apply(Field(hab, 1.7 * u - 0.3 * v)).values
        rhs = 1.7 * op.apply(Field(hab, u)).values - 0.3 * op.apply(Field(hab, v)).values
        assert np.abs(lhs - rhs).max() < 1e-12, op.kind


def test_cooperative_off_diagonal():
    # u >= 0 with u(x0) = 0 implies (Au)(x0) >= 0
    rng = np.random.default_rng(11)
    for op, hab in _ops():
        vals = rng.random(hab.shape)
        vals[::3] = 0.0
        out = op.apply(Field(hab, vals)).values
        assert np.all(out[vals == 0.0] >= 0.0), op.kind


def test_habitat_mismatch_errors():
    with pytest.raises(ValueError):
        DispersalOperator.discrete(LatticeWeights.symmetric(1, 1.0)).apply(HAB.full(1.0))
    with pytest.raises(ValueError):
        DispersalOperator.random().apply(LAT.full(1.0))
    wrong_spacing = Kernel.from_profile("triangle", 1.0, 0.05, 1)
    with pytest.raises(ValueError):
        DispersalOperator.nonlocal_(wrong_spacing).apply(HAB.full(1.0))


def test_payload_dimension_must_match_habitat():
    # a kernel or lattice rates of another dimension are refused, never
    # applied as a projected or axis-0 operator
    line = Habitat("continuum", 1, 5.0, 0.25)
    plane = Habitat("continuum", 2, 5.0, 0.25)
    for habitat, payload_dim in ((line, 2), (plane, 1)):
        kernel = Kernel.from_profile("triangle", 1.0, 0.25, payload_dim)
        with pytest.raises(ValueError, match=f"kernel has dimension {payload_dim}, "
                                             f"the habitat has {habitat.dim}"):
            DispersalOperator.nonlocal_(kernel).apply(habitat.full(1.0))
    with pytest.raises(ValueError, match="weights has dimension 2, the habitat has 1"):
        DispersalOperator.discrete(LatticeWeights.symmetric(2, 1.0)).apply(LAT.full(1.0))


def test_periodic_boundary_variants():
    hper = Habitat("continuum", 1, 10.0, 0.1, boundary="periodic")
    op = DispersalOperator.nonlocal_(Kernel.from_profile("mollifier", 1.0, 0.1, 1))
    assert np.all(op.apply(hper.full(1.1)).values == 0.0)
    # a smooth periodic profile: wrap action matches the clamp action away
    # from the boundary
    x = hper.grid()[0]
    u = np.cos(np.pi * x / 10.0)
    out_w = op.apply(Field(hper, u)).values
    out_c = op.apply(Field(HAB, u)).values
    inner = slice(30, -30)
    assert np.allclose(out_w[inner], out_c[inner], atol=1e-12)


def test_clamp_nonlocal_rows_match_dense_oracle():
    # each clamp row sums the in-domain kernel weights only and divides by
    # their mass, so boundary rows stay a weighted average of u - u(x)
    for dim, half_extent in [(1, 2.0), (2, 1.5)]:
        hab = Habitat("continuum", dim, half_extent, 0.5)
        kern = Kernel.from_profile("triangle", 1.2, 0.5, dim)
        op = DispersalOperator.nonlocal_(kern)
        n = hab.n_points
        index = np.arange(n).reshape(hab.shape)
        dense = np.zeros((n, n))
        for row, point in enumerate(np.ndindex(hab.shape)):
            for off, w in zip(kern.offsets, kern.weights * kern.spacing ** dim):
                target = np.add(point, off)
                if np.all((target >= 0) & (target < hab.n_per_axis)):
                    dense[row, index[tuple(target)]] += w
        dense /= dense.sum(axis=1, keepdims=True)
        np.fill_diagonal(dense, dense.diagonal() - 1.0)
        u = np.random.default_rng(dim).random(hab.shape)
        out = op.bind(hab)(u).ravel()
        assert np.abs(out - dense @ u.ravel()).max() <= 1e-13, dim


@st.composite
def _clamp_cases(draw):
    """(op, clamp habitat) of every kind, down to grids narrower than the
    stencil, with lattice rates that may differ between z and -z.  Drawn
    through integers and sampled_from only."""
    kind = draw(st.sampled_from(["random", "nonlocal", "discrete"]))
    dim = draw(st.integers(1, 2))
    half = draw(st.integers(1, 9))
    if kind == "discrete":
        rates = {tuple(off): draw(st.sampled_from([0.5, 1.0, 2.0]))
                 for off in LatticeWeights.symmetric(dim).offsets}
        return DispersalOperator.discrete(LatticeWeights.from_rates(rates)), \
            Habitat("lattice", dim, half)
    spacing = draw(st.sampled_from([0.1, 0.25, 0.5]))
    hab = Habitat("continuum", dim, half * spacing, spacing)
    if kind == "random":
        return DispersalOperator.random(), hab
    profile = draw(st.sampled_from(["uniform", "triangle", "mollifier"]))
    delta0 = draw(st.sampled_from([1.5, 2.0, 3.0, 4.5])) * spacing
    return DispersalOperator.nonlocal_(Kernel.from_profile(profile, delta0, spacing, dim)), hab


def _same_bits(a, b):
    """Equal shapes and bit patterns, so that -0.0 differs from 0.0."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@settings(deadline=None, derandomize=True)
@given(_clamp_cases(), st.integers(0, 99), st.integers(-3, 3), st.booleans())
@example((DispersalOperator.random(), Habitat("continuum", 2, 26.0, 0.25)), 0, 0, False)
@example((DispersalOperator.nonlocal_(Kernel.from_profile("triangle", 2.0, 0.5, 2)),
          Habitat("continuum", 2, 26.0, 0.5)), 0, 0, False)
# 3 x 3 points under a kernel of reach 4: offsets such as (0, 4) overlap
# the grid along one axis only
@example((DispersalOperator.nonlocal_(Kernel.from_profile("uniform", 2.25, 0.5, 2)),
          Habitat("continuum", 2, 0.5, 0.5)), 1, 0, False)
# asymmetric rates on both axes: unpaired terms, among them column offsets
# whose flat ranges hold wrapped positions
@example((DispersalOperator.discrete(LatticeWeights.from_rates(
    {(-1, 0): 0.5, (1, 0): 2.0, (0, -1): 1.0, (0, 1): 0.5})), Habitat("lattice", 2, 4)), 2, 0, False)
@example((DispersalOperator.nonlocal_(Kernel.from_profile("triangle", 1.5, 0.5, 2)),
          Habitat("continuum", 2, 3.0, 0.5)), 3, 0, True)
@example((DispersalOperator.random(), Habitat("continuum", 1, 2.0, 0.25)), 4, 0, True)
def test_clamp_apply_matches_the_term_by_term_oracle(case, seed, exponent, signed_zeros):
    """The bound clamp closure shares one difference between the terms z
    and -z, and runs each term over one flat range, zeroing the positions
    whose column lies outside the overlap; each shared term is the exact
    negation of the one it replaces, and adding +0.0 to an accumulator
    that is never -0.0 leaves its bits alone, so the result is bit for bit
    the oracle's, also where u holds exact zeros of either sign."""
    op, hab = case
    u = np.random.default_rng(seed).standard_normal(hab.shape) * 10.0 ** exponent
    if signed_zeros:
        u.flat[::3] = 0.0
        u.flat[1::3] = -0.0
    assert _same_bits(op.bind(hab)(u), oracles.clamp_apply(op, hab, u))


def _layout_cases():
    """(op, clamp habitat) of each kind in 1-D and 2-D; the lattice rates
    differ between z and -z, so unpaired terms are read too."""
    cases = []
    for dim in (1, 2):
        hab = Habitat("continuum", dim, 3.0, 0.25)
        rates = {tuple(off): r for off, r in zip(LatticeWeights.symmetric(dim).offsets,
                                                  (0.5, 2.0, 1.0, 1.5))}
        cases += [(DispersalOperator.random(), hab),
                  (DispersalOperator.nonlocal_(Kernel.from_profile("triangle", 1.0, 0.25, dim)),
                   hab),
                  (DispersalOperator.discrete(LatticeWeights.from_rates(rates)),
                   Habitat("lattice", dim, 6))]
    return cases


@pytest.mark.parametrize("case", _layout_cases(),
                         ids=lambda c: f"{c[0].kind}-{c[1].dim}d")
def test_clamp_apply_reads_every_memory_layout(case):
    """The clamp closure reads u through its C-order flat values: an
    F-ordered array, a transposed view and strided views (a step of 2, a
    reversal) give the oracle's bits in a fresh C-contiguous array, and
    the input is left alone."""
    op, hab = case
    rng = np.random.default_rng(7)
    apply = op.bind(hab)
    big = rng.standard_normal(tuple(2 * n for n in hab.shape))
    inputs = {
        "F order": np.asfortranarray(rng.standard_normal(hab.shape)),
        "transposed": rng.standard_normal(hab.shape).T,
        "step 2": big[(slice(None, None, 2),) * hab.dim],
        "reversed": rng.standard_normal(hab.shape)[(slice(None, None, -1),) * hab.dim],
    }
    for name, u in inputs.items():
        before = u.copy()
        out = apply(u)
        assert out.flags.c_contiguous, name
        assert _same_bits(out, oracles.clamp_apply(op, hab, u)), name
        assert _same_bits(u, before), name


@st.composite
def _stencil_cases(draw):
    """A dispersal operator with a periodic-ready grid: (op, dim, spacing, m)."""
    kind = draw(st.sampled_from(["random", "nonlocal", "discrete"]))
    dim = draw(st.integers(1, 2))
    m = draw(st.integers(2, 6))
    if kind == "discrete":
        rates = draw(st.lists(st.floats(0.1, 3.0), min_size=2 * dim, max_size=2 * dim))
        offsets = LatticeWeights.symmetric(dim).offsets
        return DispersalOperator.discrete(LatticeWeights(dim, offsets, rates)), dim, 1.0, m
    spacing = draw(st.sampled_from([0.25, 0.5]))
    m = max(m, 4)  # continuum cells need 8 points per period
    if kind == "random":
        return DispersalOperator.random(), dim, spacing, m
    profile = draw(st.sampled_from(["uniform", "triangle", "mollifier"]))
    delta0 = draw(st.floats(2.0 * spacing, 1.5))
    kern = Kernel.from_profile(profile, delta0, spacing, dim)
    # the cell period (2m + 1) h must exceed twice the kernel radius
    return DispersalOperator.nonlocal_(kern), dim, spacing, max(m, kern.half_width + 1)


@settings(deadline=None, derandomize=True)
@given(_stencil_cases(), st.sampled_from(["clamp", "periodic"]), st.floats(-0.99, 0.99),
       st.floats(0.0, 2.0 * np.pi), st.floats(-3.0, 3.0))
def test_stencil_properties(case, boundary, mu_h, angle, value):
    op, dim, spacing, m = case
    kind = "lattice" if op.kind == "discrete" else "continuum"
    hab = Habitat(kind, dim, m * spacing, spacing, boundary=boundary)
    # constants are exact equilibria
    assert np.all(op.bind(hab)(np.full(hab.shape, value)) == 0.0)

    period = (hab.n_per_axis * spacing,) * dim
    a = PeriodicCoefficient.constant(0.0, period, spacing)
    payload = {"kernel": op.kernel, "weights": op.weights}
    xi = (np.cos(angle), np.sin(angle))[:dim] if dim == 2 else 1.0
    # cooperative: nonnegative off-diagonal entries while |mu| h < 1
    mu = mu_h / spacing
    twisted = assemble_cell_operator(op.kind, mu, xi, a, **payload)
    matrix = twisted.to_matrix()
    np.fill_diagonal(matrix, 0.0)
    assert matrix.min() >= 0.0
    # at mu = 0 the cell operator is the stencil on the periodic habitat
    per = Habitat(kind, dim, m * spacing, spacing, boundary="periodic")
    u = np.random.default_rng(m).random(per.shape)
    cell = assemble_cell_operator(op.kind, 0.0, xi, a, **payload)
    assert np.abs(cell.matvec(u) - op.bind(per)(u)).max() <= 1e-12
    # on constants the twisted cell operator is the closed form
    ones = twisted.matvec(np.ones(a.values.shape))
    symbol = closed_form_eigenvalue(op.kind, mu, xi, 0.0, resolution=spacing, **payload)
    mass = op._stencil(dim, spacing).weights.sum()
    assert np.abs(ones - symbol).max() <= 1e-12 * (1.0 + mass)


@settings(deadline=None, derandomize=True)
@given(_stencil_cases(), st.floats(-0.99, 0.99), st.floats(0.0, 2.0 * np.pi),
       st.integers(0, 99))
@example((DispersalOperator.discrete(LatticeWeights(2, LatticeWeights.symmetric(2).offsets,
                                                    [0.5, 1.0, 1.5, 2.0])), 2, 1.0, 2),
         0.7, 0.4, 0)
def test_twisted_cell_matches_dense_oracle(case, mu_h, angle, seed):
    """The twisted cell operator against its matrix built entry by entry
    with (i + z) mod n; lattice cells go down to 2 points per axis, where
    the offsets +1 and -1 wrap onto the same neighbour and must add."""
    op, dim, spacing, m = case
    n = m if op.kind == "discrete" else 2 * m + 1
    rng = np.random.default_rng(seed)
    a = PeriodicCoefficient((n * spacing,) * dim, spacing, rng.uniform(-1.0, 1.0, (n,) * dim))
    xi = np.array([np.cos(angle), np.sin(angle)]) if dim == 2 else np.array([1.0])
    mu = mu_h / spacing
    stencil = op._stencil(dim, spacing)
    index = np.arange(n ** dim).reshape(a.values.shape)
    dense = np.zeros((n ** dim, n ** dim))
    for point in np.ndindex(a.values.shape):
        row = index[point]
        dense[row, row] += a.values[point] + (mu * mu if op.kind == "random" else 0.0)
        for off, w in zip(stencil.offsets, stencil.weights):
            drift = mu * spacing * float(np.dot(off, xi))
            factor = 1.0 - drift if op.kind == "random" else np.exp(-drift)
            dense[row, index[tuple((p + z) % n for p, z in zip(point, off))]] += w * factor
            dense[row, row] -= w
    cell = assemble_cell_operator(op.kind, mu, xi, a, kernel=op.kernel, weights=op.weights)
    assert np.abs(cell.to_matrix() - dense).max() <= 1e-14 * np.abs(dense).max()
    u = rng.random(a.values.shape)
    out = cell.matvec(u).ravel()
    assert np.abs(out - dense @ u.ravel()).max() <= 1e-14 * (np.abs(dense) @ u.ravel()).max()


@settings(deadline=None, derandomize=True)
@given(_stencil_cases(), st.sampled_from(["clamp", "periodic"]))
def test_habitat_operator_is_cooperative(case, boundary):
    """bind probed with every unit vector: no off-diagonal entry is negative."""
    op, dim, spacing, m = case
    kind = "lattice" if op.kind == "discrete" else "continuum"
    hab = Habitat(kind, dim, m * spacing, spacing, boundary=boundary)
    act = op.bind(hab)
    matrix = np.stack([act(e.reshape(hab.shape)).ravel() for e in np.eye(hab.n_points)],
                      axis=1)
    np.fill_diagonal(matrix, 0.0)
    assert matrix.min() >= 0.0


@st.composite
def _resolvent_cases(draw):
    """(op, habitat) on which bind_resolvent inverts exactly: the random
    kind and symmetric unit-offset rates on either boundary, kernels on
    periodic habitats.  Drawn through integers and sampled_from only."""
    kind = draw(st.sampled_from(["random", "nonlocal", "discrete"]))
    dim = draw(st.integers(1, 2))
    m = draw(st.integers(2, 8))
    boundary = "periodic" if kind == "nonlocal" else draw(st.sampled_from(["clamp", "periodic"]))
    if kind == "discrete":
        weights = LatticeWeights.symmetric(dim, draw(st.sampled_from([0.5, 1.0, 2.0])))
        return DispersalOperator.discrete(weights), Habitat("lattice", dim, m, boundary=boundary)
    spacing = draw(st.sampled_from([0.25, 0.5]))
    hab = Habitat("continuum", dim, m * spacing, spacing, boundary=boundary)
    if kind == "random":
        return DispersalOperator.random(), hab
    profile = draw(st.sampled_from(["uniform", "triangle", "mollifier"]))
    kern = Kernel.from_profile(profile, draw(st.integers(2, 6)) * spacing, spacing, dim)
    return DispersalOperator.nonlocal_(kern), hab


@settings(deadline=None, derandomize=True)
@given(_resolvent_cases(), st.sampled_from([0.5, 1.0, 4.0]), st.integers(0, 99))
# the drawn grids have at most 17 points per axis, all on the dense cosine
# side of bind_resolvent's clamp selection; a habitat has 2m + 1 points per
# axis, so 255 is the longest dense axis and 257 the shortest FFT one
@example((DispersalOperator.random(), Habitat("continuum", 1, 31.75, 0.25)), 0.5, 0)
@example((DispersalOperator.random(), Habitat("continuum", 1, 32.0, 0.25)), 0.5, 1)
@example((DispersalOperator.discrete(LatticeWeights.symmetric(1, 2.0)), Habitat("lattice", 1, 150)),
         1.0, 2)
def test_resolvent_inverts_c_minus_the_stencil(case, c, seed):
    op, hab = case
    r = np.random.default_rng(seed).standard_normal(hab.shape)
    v = op.bind_resolvent(hab)(r, c)
    assert v.shape == hab.shape
    assert np.abs(c * v - op.bind(hab)(v) - r).max() <= 1e-12 * np.abs(r).max()


def test_clamp_resolvent_selects_cosine_transforms_by_axis_length(monkeypatch):
    chosen = []
    monkeypatch.setattr(dispersal, "cosine_inverse", lambda symbol, shape: chosen.append(shape))
    for half in (127, 128):
        DispersalOperator.random().bind_resolvent(Habitat("continuum", 1, half, 1.0))
    assert chosen == [(255,)]


@settings(deadline=None, derandomize=True)
@given(_clamp_cases(), st.sampled_from([0.5, 2.5, 40.0]), st.integers(0, 99))
@example((DispersalOperator.random(), Habitat("continuum", 2, 8.0, 0.25)), 2.5, 0)
@example((DispersalOperator.nonlocal_(Kernel.from_profile("triangle", 1.0, 0.1, 1)),
          Habitat("continuum", 1, 12.7, 0.1)), 0.5, 0)
def test_cosine_resolvent_matches_the_even_extension_oracle(case, c, seed):
    """On clamp habitats below the cutoff bind_resolvent inverts by cosine
    transforms of the n points per axis; the FFT of the 2n-point even
    extension applies the same operator, also where neither inverts the
    clamp stencil exactly (nonlocal boundary rows, asymmetric rates, whose
    symbol is taken by its real part)."""
    op, hab = case
    r = np.random.default_rng(seed).standard_normal(hab.shape)
    want = oracles.even_extension_resolvent(op, hab, r, c)
    assert np.abs(op.bind_resolvent(hab)(r, c) - want).max() <= 1e-13 * np.abs(want).max()


_KIND_NAMES = {"RANDOM", "NONLOCAL", "DISCRETE", "KINDS"}


def _kind_references(source):
    """(line, what) for each comparison with a dispersal kind constant or a
    kind string, and each import of a kind constant, in the source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            for leaf in (leaf for operand in (node.left, *node.comparators)
                         for leaf in ast.walk(operand)):
                if (isinstance(leaf, ast.Name) and leaf.id in _KIND_NAMES
                        or isinstance(leaf, ast.Attribute) and leaf.attr in _KIND_NAMES
                        or isinstance(leaf, ast.Constant) and leaf.value in dispersal.KINDS):
                    found.append((node.lineno, "compares with a kind"))
        if isinstance(node, ast.ImportFrom) and any(a.name in _KIND_NAMES for a in node.names):
            found.append((node.lineno, "imports a kind constant"))
    return found


def test_only_dispersal_asks_which_kind():
    # every kind-dependent fact lives in dispersal.py; cli.py maps config
    # strings to constructors and __init__.py re-exports the constants
    package = pathlib.Path(kpplab.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name in ("dispersal.py", "cli.py"):
            continue
        for line, what in _kind_references(path.read_text()):
            if not (path.name == "__init__.py" and what == "imports a kind constant"):
                found.append(f"{path.name}:{line} {what}")
    assert not found
    # the guard sees each form a kind branch takes
    assert len(_kind_references(
        "from .dispersal import RANDOM\n"
        "a = op.kind == RANDOM\nb = kind != dispersal.NONLOCAL\n"
        "c = kind in (\"discrete\",)\nd = kind not in KINDS\n")) == 5

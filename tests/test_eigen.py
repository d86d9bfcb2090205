import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st
from oracles import power_iteration

import kpplab
from kpplab import (
    Habitat,
    Kernel,
    LatticeWeights,
    PeriodicCoefficient,
    PowerIterationError,
    Reaction,
    assemble_cell_operator,
    check_average_lower_bound,
    check_eigenvalue_existence,
    closed_form_eigenvalue,
    principal_eigenvalue,
)
from kpplab.eigen import DENSE_START_MAX, principal_eigenvalues

W1 = LatticeWeights.symmetric(1, 1.0)


def test_cell_operator_on_constants():
    ones = {}
    # a = 0, mu = 0: all three kinds annihilate constants
    for kind, kwargs, spacing, period in [
        ("random", {}, 0.125, 2.0),
        ("nonlocal", {"kernel": Kernel.from_profile("triangle", 1.0, 0.125, 1)}, 0.125, 4.0),
        ("discrete", {"weights": W1}, 1.0, 4.0),
    ]:
        a = PeriodicCoefficient.constant(0.0, (period,), spacing)
        op = assemble_cell_operator(kind, 0.0, 1.0, a, **kwargs)
        out = op.matvec(np.ones(op.shape))
        assert np.abs(out).max() < 1e-13, kind
    # random kind, a = c, mu = 0: constant in, c out
    a = PeriodicCoefficient.constant(0.7, (2.0,), 0.125)
    op = assemble_cell_operator("random", 0.0, 1.0, a)
    assert np.allclose(op.matvec(np.ones(op.shape)), 0.7, atol=1e-13)
    # discrete kind, a = 0, mu = 1: exp(-1) + e - 2
    a = PeriodicCoefficient.constant(0.0, (4.0,), 1.0)
    op = assemble_cell_operator("discrete", 1.0, 1.0, a, weights=W1)
    out = op.matvec(np.ones(op.shape))
    assert np.allclose(out, np.exp(-1) + np.exp(1) - 2.0, atol=1e-13)


def test_assembly_guards():
    a = PeriodicCoefficient.constant(0.0, (2.0,), 0.5)  # 4 points per period
    with pytest.raises(ValueError, match="resolution too coarse"):
        assemble_cell_operator("random", 0.0, 1.0, a)
    fine = PeriodicCoefficient.constant(0.0, (2.0,), 0.125)
    with pytest.raises(ValueError, match="mu"):
        assemble_cell_operator("random", 9.0, 1.0, fine)  # |mu| h >= 1
    kern = Kernel.from_profile("triangle", 1.5, 0.125, 1)
    small = PeriodicCoefficient.constant(0.0, (2.0,), 0.125)
    with pytest.raises(ValueError, match="twice the kernel radius"):
        assemble_cell_operator("nonlocal", 0.0, 1.0, small, kernel=kern)


def test_assembly_names_a_payload_of_the_wrong_dimension():
    cell = PeriodicCoefficient.constant(0.0, (4.0,), 0.25)
    kern2 = Kernel.from_profile("triangle", 1.0, 0.25, 2)
    with pytest.raises(ValueError, match="kernel has dimension 2, the cell has 1"):
        assemble_cell_operator("nonlocal", 0.5, 1.0, cell, kernel=kern2)
    lattice = PeriodicCoefficient.constant(0.0, (8.0,), 1.0)
    with pytest.raises(ValueError, match="weights has dimension 2, the cell has 1"):
        assemble_cell_operator("discrete", 0.5, 1.0, lattice,
                               weights=LatticeWeights.symmetric(2, 1.0))


def test_principal_matches_closed_forms():
    # random: r + mu^2 (the discrete cell operator is exact on constants)
    a = PeriodicCoefficient.constant(0.8, (2.0,), 0.0625)
    for mu in (0.0, 0.7, 2.0):
        res = principal_eigenvalue(assemble_cell_operator("random", mu, 1.0, a))
        assert abs(res.lam - (0.8 + mu * mu)) < 1e-10
        assert res.eigenfunction.min() > 0.0
    # discrete: sum a_k (exp(-mu k xi) - 1) + r to 1e-10
    a = PeriodicCoefficient.constant(0.3, (4.0,), 1.0)
    for mu in (0.0, 0.9, 2.5):
        res = principal_eigenvalue(assemble_cell_operator("discrete", mu, 1.0, a, weights=W1))
        exact = np.exp(-mu) + np.exp(mu) - 2.0 + 0.3
        assert abs(res.lam - exact) < 1e-10
        assert res.eigenfunction.min() > 0.0
    # nonlocal with the uniform kernel: sinh(mu)/mu - 1 + r within the
    # one-sided quadrature error of the sampled kernel (order h)
    h = 0.03125
    kern = Kernel.from_profile("uniform", 1.0, h, 1)
    a = PeriodicCoefficient.constant(0.4, (4.0,), h)
    mu = 1.3
    res = principal_eigenvalue(assemble_cell_operator("nonlocal", mu, 1.0, a, kernel=kern))
    exact = np.sinh(mu) / mu - 1.0 + 0.4
    qtol = 2.0 * (np.sinh(mu) / mu) * h * abs(1.0 - mu / np.tanh(mu)) / 2.0
    assert abs(res.lam - exact) < qtol
    assert res.eigenfunction.min() > 0.0


def test_closed_form_values():
    assert closed_form_eigenvalue("random", 0.5, 1.0, 1.0) == pytest.approx(1.25)
    assert closed_form_eigenvalue("discrete", 0.0, 1.0, 0.7, weights=W1) == pytest.approx(0.7)
    kern = Kernel.from_profile("uniform", 1.0, 0.02, 1)
    val = closed_form_eigenvalue("nonlocal", 1.0, 1.0, 0.0, kernel=kern)
    # reference: sinh(1) - 1 = 0.175201...; the 4x-resolution quadrature
    # of the uniform kernel carries an O(h/4) bias
    qtol = (np.sinh(1.0)) * (0.02 / 4.0) * abs(1.0 - 1.0 / np.tanh(1.0)) * 2.0
    assert abs(val - (np.sinh(1.0) - 1.0)) < qtol


def test_vectorized_closed_forms():
    mus = np.array([0.1, 0.5, 1.0, 2.0])
    out = closed_form_eigenvalue("random", mus, 1.0, 1.0)
    assert np.allclose(out, 1.0 + mus ** 2)
    out = closed_form_eigenvalue("discrete", mus, 1.0, 0.0, weights=W1)
    assert np.allclose(out, 2.0 * np.cosh(mus) - 2.0)


def test_stacked_operators_carry_the_bits_of_each_mu():
    # an array of mu assembles one operator per mu, each equal bit for bit
    # to the operator of that mu alone, dense matrix included; a stack
    # of one certifies as principal_eigenvalue does
    mus = np.array([0.0, 0.3, 1.1, 2.5])
    kern = Kernel.from_profile("triangle", 1.0, 0.25, 2)
    g = np.arange(16) * 0.25
    cells = [
        ("random", (0.6, 0.8), PeriodicCoefficient((2.0, 4.0), 0.25, np.cos(g[:8, None]) * g), {}),
        ("nonlocal", (0.6, 0.8), PeriodicCoefficient((4.0, 4.0), 0.25, np.sin(g[:, None]) + g),
         {"kernel": kern}),
        ("discrete", 1.0, PeriodicCoefficient((8.0,), 1.0, np.sin(np.arange(8.0))),
         {"weights": LatticeWeights(1, [[1], [-1]], [1.0, 0.5])}),
        # period 2: both neighbours wrap to one entry, where the terms add up
        ("discrete", 1.0, PeriodicCoefficient((2.0,), 1.0, [0.3, -0.2]),
         {"weights": LatticeWeights(1, [[1], [-1]], [1.0, 0.5])}),
    ]
    for kind, xi, a, payload in cells:
        stack = assemble_cell_operator(kind, mus, xi, a, **payload)
        matrices = stack.to_matrix()
        for i, mu in enumerate(mus):
            one = assemble_cell_operator(kind, mu, xi, a, **payload)
            assert one.shift == stack[i].shift, kind
            assert np.array_equal(one.values, stack[i].values), kind
            assert np.array_equal(one.diag, stack[i].diag), kind
            assert np.array_equal(one.to_matrix(), matrices[i]), kind
            u = np.cos(np.arange(a.values.size) + mu).reshape(a.values.shape)
            assert np.allclose(matrices[i] @ u.ravel(), one.matvec(u).ravel(), rtol=1e-14), kind
            alone, = principal_eigenvalues(one[None])
            assert alone.lam == principal_eigenvalue(one).lam, kind


def test_scan_memory_stays_near_one_dense_start():
    # a 256-point cell takes one matrix per eig stack, so the 60-point
    # scan holds one dense matrix at a time, as one solve does
    x = np.arange(DENSE_START_MAX) * 0.125
    a = PeriodicCoefficient((32.0,), 0.125, 1.0 + 0.1 * np.sin(np.pi * x / 16.0))
    rel = kpplab.DispersionRelation.eigen_backed("random", 1.0, a, mu_max=3.5)
    grid = np.geomspace(1e-3, rel.mu_max, 60)
    op = assemble_cell_operator("random", 1.0, 1.0, a)

    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one = peak(lambda: principal_eigenvalue(op))
    scan = peak(lambda: rel(grid))
    assert scan <= 3 * one, (scan, one)


def test_existence_condition():
    kern = Kernel.from_profile("triangle", 1.0, 0.125, 1)
    const = PeriodicCoefficient.constant(1.0, (4.0,), 0.125)
    rep = check_eigenvalue_existence(const, kern)
    assert rep.condition2_ok and rep.oscillation == 0.0
    assert abs(rep.threshold - 0.5) < 1e-12  # symmetric kernel halves its mass
    osc = PeriodicCoefficient.from_function(
        lambda x: 1.0 + 0.4 * np.sin(2.0 * np.pi * x / 4.0), (4.0,), 0.125
    )
    rep = check_eigenvalue_existence(osc, kern)
    assert not rep.condition2_ok  # oscillation 0.8 > 0.5
    assert rep.oscillation == pytest.approx(0.8, abs=0.01)


def test_average_lower_bound():
    # constant coefficient: equality within tolerance
    kern = Kernel.from_profile("mollifier", 1.0, 0.125, 1)
    for kind, kwargs in [
        ("random", {}),
        ("nonlocal", {"kernel": kern}),
        ("discrete", {"weights": W1}),
    ]:
        spacing = 1.0 if kind == "discrete" else 0.125
        a = PeriodicCoefficient.constant(0.9, (4.0,), spacing)
        rep = check_average_lower_bound(kind, 0.5, 1.0, a, **kwargs)
        assert rep.ok
        assert abs(rep.lam - rep.bound) < 1e-9, kind

    # sinusoidal coefficient, random kind, mu = 0: lambda >= average
    a = PeriodicCoefficient.from_function(
        lambda x: 1.0 + 0.3 * np.sin(2.0 * np.pi * x / 4.0), (4.0,), 0.0625
    )
    rep = check_average_lower_bound("random", 0.0, 1.0, a)
    assert rep.ok and rep.lam >= 1.0 - 1e-8

    # alternating lattice coefficient {0.5, 1.5}, period 2, mu = 0.4
    alt = PeriodicCoefficient((2.0,), 1.0, np.array([0.5, 1.5]))
    rep = check_average_lower_bound("discrete", 0.4, 1.0, alt, weights=W1)
    assert rep.ok
    assert rep.bound == pytest.approx(2.0 * np.cosh(0.4) - 2.0 + 1.0)


def test_average_lower_bound_random_coefficients():
    rng = np.random.default_rng(2024)
    kern = Kernel.from_profile("mollifier", 1.0, 0.25, 1)
    for kind, kwargs, spacing in [
        ("random", {}, 0.25),
        ("nonlocal", {"kernel": kern}, 0.25),
        ("discrete", {"weights": W1}, 1.0),
    ]:
        for _ in range(3):
            n = int(round(8.0 / spacing))
            base = 0.5 + rng.random()
            modes = rng.normal(size=3) * 0.2
            x = np.arange(n) * spacing
            vals = base + sum(
                m * np.sin(2.0 * np.pi * (k + 1) * x / 8.0) for k, m in enumerate(modes)
            )
            a = PeriodicCoefficient((8.0,), spacing, vals)
            for mu in (0.0, 0.5, 2.0):
                rep = check_average_lower_bound(kind, mu, 1.0, a, **kwargs)
                assert rep.ok, (kind, mu, rep)


def test_monotone_in_coefficient():
    rng = np.random.default_rng(77)
    kern = Kernel.from_profile("mollifier", 1.0, 0.25, 1)
    for kind, kwargs, spacing in [
        ("random", {}, 0.25),
        ("nonlocal", {"kernel": kern}, 0.25),
        ("discrete", {"weights": W1}, 1.0),
    ]:
        n = int(round(8.0 / spacing))
        lo = 0.5 + 0.3 * rng.random(n)
        hi = lo + 0.3 * rng.random(n)
        la = principal_eigenvalue(
            assemble_cell_operator(kind, 0.6, 1.0, PeriodicCoefficient((8.0,), spacing, lo), **kwargs)
        ).lam
        lb = principal_eigenvalue(
            assemble_cell_operator(kind, 0.6, 1.0, PeriodicCoefficient((8.0,), spacing, hi), **kwargs)
        ).lam
        assert la <= lb + 1e-9, kind


def test_mu_zero_directional_independence_2d():
    rng = np.random.default_rng(5)
    n = 8
    vals = 0.8 + 0.4 * rng.random((n, n))
    kern = Kernel.from_profile("mollifier", 0.7, 0.25, 2)
    w2 = LatticeWeights.symmetric(2, 1.0)
    for kind, kwargs, spacing in [
        ("random", {}, 0.25),
        ("nonlocal", {"kernel": kern}, 0.25),
        ("discrete", {"weights": w2}, 1.0),
    ]:
        p = n * spacing
        a = PeriodicCoefficient((p, p), spacing, vals)
        lams = []
        for k in range(8):
            t = k * np.pi / 4.0
            xi = (np.cos(t), np.sin(t))
            lams.append(
                principal_eigenvalue(
                    assemble_cell_operator(kind, 0.0, xi, a, **kwargs)
                ).lam
            )
        assert max(lams) - min(lams) < 1e-9, kind


def test_periodic_coefficient_copies_the_callers_array():
    vals = np.ones(8)
    a = PeriodicCoefficient((8.0,), 1.0, vals)
    vals[0] = 5.0  # the caller's array stays writable
    assert a.values[0] == 1.0 and not a.values.flags.writeable


def test_power_iteration_cap():
    # 512 points: above the dense-start cutoff, so the iteration starts
    # from constants and needs 4 Noda steps; 3 leave the enclosure open
    a = PeriodicCoefficient.from_function(
        lambda x: 0.5 + 0.2 * np.sin(2.0 * np.pi * x / 4.0), (4.0,), 1.0 / 128.0
    )
    op = assemble_cell_operator("random", 0.3, 1.0, a)
    with pytest.raises(PowerIterationError, match="enclosure width"):
        principal_eigenvalue(op, max_iter=3)


def test_fine_random_cell_converges():
    # 256 points at h = 1/64: from constants the residual stalls near 1e-7
    # for 50,000 iterations; from the dense Perron vector it certifies
    a = PeriodicCoefficient.from_function(
        lambda x: 1.0 + 0.2 * np.sin(np.pi * x / 2.0), (4.0,), 1.0 / 64.0
    )
    op = assemble_cell_operator("random", 1.0, 1.0, a)
    res = principal_eigenvalue(op)
    assert res.residual <= 1e-10 and res.eigenfunction.min() > 0.0
    assert abs(res.lam - np.linalg.eigvals(op.to_matrix()).real.max()) < 1e-9


def _wide_kernel_cell(delta0, period, mu):
    kern = Kernel.from_profile("triangle", delta0, 0.25, 1)
    a = PeriodicCoefficient.from_function(
        lambda x: 1.0 + 0.3 * np.sin(2.0 * np.pi * x / period), (period,), 0.25
    )
    return assemble_cell_operator("nonlocal", mu, 1.0, a, kernel=kern)


def _certified(res, op):
    """The enclosure holds lam and is within the certificate's width."""
    lo, hi = res.bracket
    return lo <= res.lam <= hi and hi - lo <= 1e-14 * (abs(res.lam) + op.shift) + 1e-13


def test_dense_start_certifies_by_the_enclosure():
    # lambda is about 1.2e5; the raw dense vector, whose absolute residual
    # of about 6e-10 failed the old 1e-10 test, closes the enclosure to
    # 1.2e-9, inside the relative certificate, with one apply
    op = _wide_kernel_cell(5.0, 12.0, 3.5)
    res = principal_eigenvalue(op)
    assert _certified(res, op) and res.iterations == 1 and res.gap > 0.0
    lam, phi = power_iteration(op)
    assert abs(res.lam - lam) < 1e-9
    assert np.abs(res.eigenfunction - phi).max() < 1e-8


def test_wide_cell_certifies_by_the_enclosure():
    # lambda is about 2.9e6, so one rounding of L v is about 3e-10: no
    # absolute 1e-10 residual can be reached, but the enclosure, relative
    # to |lambda| + shift, closes in one Noda step and lambda agrees with
    # the dense spectrum to a few roundings
    op = _wide_kernel_cell(7.0, 16.0, 3.0)
    res = principal_eigenvalue(op)
    assert _certified(res, op) and res.eigenfunction.min() > 0.0
    dense = np.linalg.eigvals(op.to_matrix()).real.max()
    assert abs(res.lam - dense) <= 1e-14 * abs(dense)


@st.composite
def _twisted_cells(draw):
    """(operator, kind) on a cell of at most 256 points with a smooth
    coefficient, xi and mu inside the twist limit.  Nonlocal draws keep
    delta0 <= 2 and |mu| <= 3, where the oracle converges."""
    kind = draw(st.sampled_from(["random", "nonlocal", "discrete"]))
    dim = draw(st.integers(1, 2))
    n_max = 64 if dim == 1 else 16
    payload = {}
    if kind == "discrete":
        spacing, n_min = 1.0, 2
        rates = draw(st.lists(st.floats(0.1, 3.0), min_size=2 * dim, max_size=2 * dim))
        payload["weights"] = LatticeWeights(dim, LatticeWeights.symmetric(dim).offsets, rates)
        mu = draw(st.floats(-3.0, 3.0))
    elif kind == "random":
        spacing, n_min = draw(st.sampled_from([0.125, 0.25])), 8
        mu = draw(st.floats(-0.95, 0.95)) / spacing
    else:
        spacing = draw(st.sampled_from([0.25, 0.5]))
        profile = draw(st.sampled_from(["uniform", "triangle", "mollifier"]))
        delta0 = draw(st.floats(2.0 * spacing, 2.0))
        payload["kernel"] = Kernel.from_profile(profile, delta0, spacing, dim)
        n_min = max(8, int(2.0 * delta0 / spacing) + 1)  # period above 2 delta0
        assume(n_min <= n_max)
        mu = draw(st.floats(-3.0, 3.0))
    n = draw(st.integers(n_min, n_max))
    period = n * spacing
    rng = np.random.default_rng(draw(st.integers(0, 999)))
    axes = np.meshgrid(*[np.arange(n) * spacing] * dim, indexing="ij")
    vals = np.full(axes[0].shape, draw(st.floats(-1.0, 1.0)))
    for amp in rng.normal(size=3) * draw(st.floats(0.0, 0.5)):
        wave = sum(k * x for k, x in zip(rng.integers(0, 3, dim), axes))
        vals = vals + amp * np.sin(2.0 * np.pi * wave / period + rng.random())
    if dim == 1:
        xi = draw(st.sampled_from([-1.0, 1.0]))
    else:
        angle = draw(st.floats(0.0, 2.0 * np.pi))
        xi = (np.cos(angle), np.sin(angle))
    a = PeriodicCoefficient((period,) * dim, spacing, vals)
    return assemble_cell_operator(kind, mu, xi, a, **payload), kind


@settings(deadline=None, derandomize=True)
@given(_twisted_cells())
def test_principal_eigenpair_matches_power_iteration_oracle(case):
    op, kind = case
    res = principal_eigenvalue(op)
    lam, phi = power_iteration(op)
    assert res.eigenfunction.min() > 0.0, kind
    assert abs(res.lam - lam) <= 1e-9, kind
    assert np.abs(res.eigenfunction - phi).max() <= 1e-8, kind


@st.composite
def _large_cells(draw):
    """(operator, label) on a 2-D cell of 17-32 points per axis (289 to
    1,024 points), above the dense start's cutoff, drawn through integers
    and sampled_from only, with |mu| inside the twist limit.  The
    coefficient is one smooth bump of drawn height, so the cell has a
    single well and the oracle's power iteration closes in well under a
    second.  Long 1-D cells are left out: their eigenfunctions can spread
    over 40 and more orders of magnitude, which the enclosure cannot
    resolve (test_widely_spread_eigenfunction_is_refused)."""
    kind = draw(st.sampled_from(["random", "nonlocal", "discrete"]))
    n = draw(st.integers(17, 32))
    payload = {}
    if kind == "discrete":
        spacing = 1.0
        rates = [draw(st.integers(1, 20)) / 10.0 for _ in range(4)]
        payload["weights"] = LatticeWeights(2, LatticeWeights.symmetric(2).offsets, rates)
        mu = draw(st.integers(-20, 20)) / 10.0
    elif kind == "random":
        spacing = draw(st.sampled_from([0.25, 0.5]))
        mu = draw(st.integers(-19, 19)) / (20.0 * spacing)
    else:
        spacing = draw(st.sampled_from([0.25, 0.5]))
        profile = draw(st.sampled_from(["uniform", "triangle", "mollifier"]))
        delta0 = spacing * draw(st.integers(2, 8))
        payload["kernel"] = Kernel.from_profile(profile, delta0, spacing, 2)
        mu = draw(st.integers(-20, 20)) / 10.0
    period = n * spacing
    axes = np.meshgrid(*[np.arange(n) * spacing] * 2, indexing="ij")
    height = draw(st.sampled_from([0.0, 0.5, 0.75, 1.0]))
    vals = draw(st.integers(-10, 10)) / 10.0 + height * np.prod(
        [np.cos(np.pi * x / period) ** 2 for x in axes], axis=0)
    angle = draw(st.integers(0, 15)) * np.pi / 8.0
    a = PeriodicCoefficient((period, period), spacing, vals)
    return assemble_cell_operator(kind, mu, (np.cos(angle), np.sin(angle)), a, **payload), kind


def _minorant_cell():
    # the 32 x 32 minorant cell of the 2-D stationary problem (h = 0.25,
    # a dip of 0.5), which power iteration needed 2,057 steps for
    from kpplab.stationary import periodic_minorant

    habitat = Habitat("continuum", 2, 8.0, 0.25)
    reaction = Reaction.linear(1.0, 1.0, amplitude=-0.5, radius=1.0)
    _, coeff = periodic_minorant(reaction, 0.5, habitat)
    return assemble_cell_operator("random", 0.0, (1.0, 0.0), coeff), "minorant"


@settings(deadline=None, derandomize=True, max_examples=12)
@given(_large_cells())
@example(_minorant_cell())
@example((_wide_kernel_cell(7.0, 16.0, 3.0), "wide"))
def test_noda_matches_the_oracles_above_the_dense_cutoff(case):
    # lambda against the power-iteration oracle and the dense spectrum to
    # 1e-9, plus the oracle's own rounding, 1e-13 (|lambda| + shift),
    # which only the lambda = 2.9e6 example reaches; phi to 1e-8.  The
    # spread max phi / min phi is reported as an event
    op, kind = case
    res = principal_eigenvalue(op)
    lam, phi = power_iteration(op)
    spread = 1.0 / res.eigenfunction.min()
    event(f"max phi / min phi ~ 1e{int(np.log10(spread))}")
    dense = np.linalg.eigvals(op.to_matrix()).real.max()
    tol = 1e-9 + 1e-13 * (abs(lam) + op.shift)
    assert _certified(res, op) and res.eigenfunction.min() > 0.0, kind
    assert abs(res.lam - lam) <= tol and abs(res.lam - dense) <= tol, kind
    assert np.abs(res.eigenfunction - phi).max() <= 1e-8, (kind, spread)


def test_widely_spread_eigenfunction_is_refused():
    # a nearly local kernel (three offsets) under a bump of 0.5 on a
    # 257-point cell: phi spans about 41 orders of magnitude, beyond what
    # the Collatz-Wielandt ratios resolve in double precision.  The solver
    # raises rather than return an uncertified pair; the absolute 1e-10
    # residual of power iteration accepted this cell
    h = 0.125
    x = np.arange(257) * h
    a = PeriodicCoefficient((257 * h,), h, 0.5 * np.cos(np.pi * x / (257 * h)) ** 2)
    op = assemble_cell_operator("nonlocal", 0.0, 1.0, a,
                                kernel=Kernel.from_profile("uniform", 2 * h, h, 1))
    with pytest.raises(PowerIterationError, match="enclosure width"):
        principal_eigenvalue(op)
    assert 1.0 / power_iteration(op)[1].min() > 1e40


def test_import_leaves_out_scipy_linalg():
    # scipy.linalg (also pulled in by scipy.sparse.linalg) adds about
    # 140 ms and 9 MiB to every start-up, scipy.sparse about 90 ms and
    # 17 MiB; the dense solve uses numpy.linalg and the cell operator
    # gathers its neighbours through dispersal.wrap_index.  Plain scipy
    # (about 12 ms and 1.3 MiB) is left out too: kpplab runs no scipy code.
    # numpy.fft (about 1.2 MiB) is reached lazily, only where a symbol is
    # built: bind_resolvent for the stationary solves, and eigen's Noda
    # steps, which a cell certified by its dense start never takes; runs
    # that build neither skip it.
    # concurrent.futures, about 4-5 ms, is imported only by a sweep with
    # --jobs above 1
    src = os.path.dirname(os.path.dirname(kpplab.__file__))
    modules = ("scipy", "scipy.linalg", "scipy.sparse", "scipy.sparse.linalg", "numpy.fft",
               "concurrent.futures")
    code = ("import sys, kpplab, kpplab.cli; "
            f"print([m for m in {modules!r} if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_certified_dense_start_loads_no_fft():
    # eigen-backed speed minimizations on the three 16-point cells of the
    # dispersion benchmark (random and nonlocal at period 4 and h = 0.25,
    # lattice at period 8): every cell certifies from the dense start
    # with one apply, so the Fourier solver is never built.  The scan
    # and the golden-section steps both solve through
    # principal_eigenvalues, one result per mu
    src = os.path.dirname(os.path.dirname(kpplab.__file__))
    code = """
import sys
import numpy as np
import kpplab as K
import kpplab.speeds as S
applies = []
solve = S.principal_eigenvalues
def counted(stack):
    results = solve(stack)
    applies.extend(res.iterations for res in results)
    return results
S.principal_eigenvalues = counted
x = np.arange(16) * 0.25
kernel = K.Kernel.from_profile("triangle", 1.0, 0.25, 1)
for kind, a, payload in [
    ("random", K.PeriodicCoefficient((4.0,), 0.25, 1.0 + 0.12 * np.sin(np.pi * x / 2)), {}),
    ("nonlocal", K.PeriodicCoefficient((4.0,), 0.25, 1.0 + 0.08 * np.cos(np.pi * x)),
     {"kernel": kernel}),
    ("discrete", K.PeriodicCoefficient((8.0,), 1.0, 1.0 + 0.12 * np.sin(np.arange(8.0))),
     {"weights": K.LatticeWeights.symmetric(1, 1.0)}),
]:
    K.minimize_speed(K.DispersionRelation.eigen_backed(kind, 1.0, a, mu_max=3.5, **payload))
print(len(applies), max(applies), "numpy.fft" in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    solves, most, fft_loaded = out.stdout.split()
    assert int(solves) > 100 and most == "1" and fft_loaded == "False", out.stdout

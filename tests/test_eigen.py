import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import power_iteration

import kpplab
from kpplab import (
    Kernel,
    LatticeWeights,
    PeriodicCoefficient,
    PowerIterationError,
    assemble_cell_operator,
    check_average_lower_bound,
    check_eigenvalue_existence,
    closed_form_eigenvalue,
    principal_eigenvalue,
)

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
    # from constants and cannot converge in 3 steps
    a = PeriodicCoefficient.from_function(
        lambda x: 0.5 + 0.2 * np.sin(2.0 * np.pi * x / 4.0), (4.0,), 1.0 / 128.0
    )
    op = assemble_cell_operator("random", 0.3, 1.0, a)
    with pytest.raises(PowerIterationError, match="residual"):
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


def test_dense_start_is_polished_to_the_certificate():
    # the raw dense vector leaves a residual of about 6e-10; the power
    # iteration takes it below 1e-10
    op = _wide_kernel_cell(5.0, 12.0, 3.5)
    res = principal_eigenvalue(op)
    assert res.iterations > 1 and res.residual <= 1e-10
    lam, phi = power_iteration(op)
    assert abs(res.lam - lam) < 1e-9
    assert np.abs(res.eigenfunction - phi).max() < 1e-8


def test_uncertified_dense_start_raises():
    # lambda is about 2.9e6 here, so one rounding of (L + s) v is about
    # 3e-10, above the absolute 1e-10 certificate: the residual stalls
    # near 3e-9 whatever the summation order
    op = _wide_kernel_cell(7.0, 16.0, 3.0)
    with pytest.raises(PowerIterationError, match="residual"):
        principal_eigenvalue(op, max_iter=200)


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


def test_import_leaves_out_scipy_linalg():
    # scipy.linalg (also pulled in by scipy.sparse.linalg) adds about
    # 140 ms and 9 MiB to every start-up, scipy.sparse about 90 ms and
    # 17 MiB; the dense solve uses numpy.linalg and the cell operator
    # gathers its neighbours through dispersal.wrap_index.  Plain scipy
    # (about 12 ms and 1.3 MiB) is left out too: kpplab runs no scipy code
    src = os.path.dirname(os.path.dirname(kpplab.__file__))
    modules = ("scipy", "scipy.linalg", "scipy.sparse", "scipy.sparse.linalg")
    code = ("import sys, kpplab, kpplab.cli; "
            f"print([m for m in {modules!r} if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"

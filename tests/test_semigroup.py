"""Semigroup core: heat stepping, fractional powers, extension quadrature."""

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import fractional_matrix_power

from fracext import semigroup
from fracext.extension import ExtensionMesh, ExtensionProblem, solve_extension
from fracext.gridfn import BoxGrid, GridFunction
from fracext.semigroup import (CoefficientField, QuadratureSpec, SemigroupStepper,
                               assemble_operator, balakrishnan_inverse_scalar,
                               balakrishnan_scalar, bessel_extension_profile,
                               ds_constant, extension_profile_scalar,
                               extension_via_semigroup, fractional_apply,
                               fractional_inverse, gamma_neg_s,
                               richardson_trace_slope)


def _stepper_1d(N=129, integrator="cn-rannacher"):
    grid = BoxGrid.interval(0.0, np.pi, N + 1)
    return SemigroupStepper(CoefficientField.identity(1), grid, integrator=integrator)


def discrete_eigenvalue(k, N):
    dx = np.pi / N
    return 2.0 * (1.0 - np.cos(k * dx)) / dx**2


def test_gamma_neg_s_sign_and_reflection():
    for s in (0.1, 0.5, 0.9):
        assert gamma_neg_s(s) < 0
    # reflection formula agrees with mpmath's high-precision Gamma
    import mpmath
    for s in (0.25, 0.75):
        ref = float(mpmath.gamma(-s))
        assert gamma_neg_s(s) == pytest.approx(ref, rel=1e-13)


def test_ds_constant():
    assert abs(ds_constant(0.5) - 1.0) < 1e-14
    for s in (0.1, 0.25, 0.9):
        assert ds_constant(s) > 0
    # s = 1/4 against a high-precision evaluation
    import mpmath
    ref = float(mpmath.mpf(0.25) ** mpmath.mpf(0.5) * mpmath.gamma(0.75)
                / mpmath.gamma(1.25))
    assert ds_constant(0.25) == pytest.approx(ref, rel=1e-13)


def test_scalar_oracles():
    quad = QuadratureSpec()
    for s in (0.25, 0.5, 0.75):
        for lam in (1.0, 4.0, 9.0):
            assert balakrishnan_scalar(lam, s, quad) == pytest.approx(lam**s, rel=1e-6)
            assert balakrishnan_inverse_scalar(lam, s, quad) == \
                pytest.approx(lam**-s, rel=1e-6)


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(t_min=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(t_min=1.0, t_max=0.5)


def test_heat_identity_and_eigen_decay():
    st = _stepper_1d(N=128)
    grid = st.grid
    k = 3
    u = GridFunction.from_callable(grid, lambda x: np.sin(k * x))
    assert np.array_equal(st.heat_apply(u, 0.0).values, u.values)
    lam_h = discrete_eigenvalue(k, 128)
    for t in (0.01, 0.1, 0.5):
        out = st.heat_apply(u, t, substeps=96)
        assert np.max(np.abs(out.values - np.exp(-lam_h * t) * u.values)) < 2e-5


def test_heat_euler_positivity_and_sup_bound():
    st = _stepper_1d(N=96, integrator="euler")
    rng = np.random.default_rng(0)
    vals = np.zeros(st.grid.shape)
    vals[1:-1] = rng.uniform(0.0, 1.0, 95)
    u = GridFunction(st.grid, vals)
    prev = u
    for t in (0.01, 0.1, 1.0):
        out = st.heat_apply(u, t, substeps=24)
        assert np.min(out.values) >= -1e-12          # M-matrix positivity
        assert out.sup_norm() <= u.sup_norm() + 1e-12  # contraction
        assert out.sup_norm() <= prev.sup_norm() + 1e-12
        prev = out


def test_semigroup_property_aligned_steps():
    st = _stepper_1d(N=64, integrator="euler")
    u = GridFunction.from_callable(st.grid, lambda x: np.sin(2 * x) + 0.3 * np.sin(5 * x))
    dt = 0.01
    once = st.heat_apply(u, 0.12, substeps=12)
    twice = st.heat_apply(st.heat_apply(u, 0.04, substeps=4), 0.08, substeps=8)
    assert np.max(np.abs(once.values - twice.values)) < 1e-11


def test_heat_cutoff_returns_zero():
    st = _stepper_1d(N=64)
    u = GridFunction.from_callable(st.grid, lambda x: np.sin(x))
    out = st.heat_apply(u, 1e4)
    assert np.array_equal(out.values, np.zeros_like(out.values))


def _lu_heat(stepper, v, t, substeps=None):
    """Reference e^{-tL} v: the integrator's steps taken one by one with
    sparse-LU factors of the assembled L."""
    if t == 0.0:
        return v.copy()
    if t > stepper._t_cutoff:
        return np.zeros_like(v)
    m = substeps if substeps is not None else max(1, int(np.ceil(t / stepper.dt_max)))
    dt = t / m
    I = sp.identity(len(v), format="csc")
    L = stepper.L
    out = v.copy()
    if stepper.integrator == "euler":
        lu = spla.splu((I + dt * L).tocsc())
        for _ in range(m):
            out = lu.solve(out)
        return out
    lu = spla.splu((I + (dt / 2.0) * L).tocsc())
    steps = m
    if stepper.integrator == "cn-rannacher":
        out = lu.solve(lu.solve(out))
        steps = m - 1
    B = (I - (dt / 2.0) * L).tocsr()
    for _ in range(steps):
        out = lu.solve(B @ out)
    return out


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["euler", "cn", "cn-rannacher"]), st.integers(16, 256),
       st.floats(0.2, 1.0), st.floats(1.0, 5.0), st.floats(0.5, 6.0), st.floats(0.5, 4.0),
       st.just(0.0) | st.floats(1e-6, 10.0), st.none() | st.integers(1, 96),
       st.integers(0, 2**32 - 1))
def test_mode_space_heat_matches_lu_stepping(integrator, N, lam, ratio, freq, length, t,
                                             substeps, seed):
    Lam = lam * ratio
    coeff = CoefficientField.scalar_1d(
        lambda x: lam + (Lam - lam) * np.sin(freq * x) ** 2, lam, Lam)
    grid = BoxGrid.interval(0.0, length, N + 1)
    stepper = SemigroupStepper(coeff, grid, integrator=integrator)
    v = np.random.default_rng(seed).uniform(-1.0, 1.0, N - 1)
    tol = 1e-12 * np.max(np.abs(v))
    assert np.max(np.abs(stepper.heat_interior(v, t, substeps)
                         - _lu_heat(stepper, v, t, substeps))) <= tol
    ts = [t, 0.5 * t, 0.0, 2.0 * t]
    rows = stepper.heat_many(v, ts, substeps)
    assert rows.shape == (len(ts), N - 1)
    for tj, row in zip(ts, rows):
        assert np.max(np.abs(row - _lu_heat(stepper, v, tj, substeps))) <= tol
    assert np.array_equal(rows[2], v)


def test_mode_space_heat_edges():
    st_ = _stepper_1d(N=64, integrator="cn")
    v = np.random.default_rng(3).uniform(-1.0, 1.0, 63)
    assert np.array_equal(st_.heat_interior(v, 0.0), v)
    past = [st_._t_cutoff * (1.0 + 1e-12), 1e4]
    assert np.array_equal(st_.heat_many(v, past), np.zeros((2, 63)))
    for bad in (-1e-3, np.nan):
        with pytest.raises(ValueError):
            st_.heat_many(v, [0.1, bad])


def test_1d_stepper_never_factorizes(monkeypatch):
    def no_splu(*args, **kwargs):
        raise AssertionError("splu called by a 1-D stepper")

    monkeypatch.setattr(semigroup.spla, "splu", no_splu)
    for integrator in ("euler", "cn", "cn-rannacher"):
        st_ = _stepper_1d(N=64, integrator=integrator)
        u = GridFunction.from_callable(st_.grid, lambda x: np.sin(2 * x))
        f, _ = fractional_inverse(st_, u, 0.5)
        fractional_apply(st_, f, 0.5)
        extension_via_semigroup(st_, u, 0.5, 0.3)
        st_.heat_apply(u, 0.1, substeps=7)
        assert st_._lu_cache == {}


def test_fractional_apply_eigen_mapping():
    st = _stepper_1d(N=256)
    for s in (0.25, 0.5, 0.75):
        for k in (1, 2, 4):
            u = GridFunction.from_callable(st.grid, lambda x: np.sin(k * x))
            out, info = fractional_apply(st, u, s)
            target = k ** (2.0 * s) * u.values
            rel = np.max(np.abs(out.values - target)) / np.max(np.abs(target))
            assert rel < 1e-3
    assert info["beta"] == 1.0 - s and info["interval"][0] == st.lam_floor
    assert 1 <= info["poles"] and info["sup_rel_error"] <= 1e-6


def _variable_1d_field():
    return CoefficientField.scalar_1d(lambda x: 1.0 + 0.3 * np.sin(3.0 * x), 0.7, 1.3)


def _dense_power_1d(st_, power, v):
    """L^power v by a dense symmetric eigendecomposition.  L = diag(a) T with
    T the symmetric 3-point matrix of a uniform grid, so
    S = diag(a)^{-1/2} L diag(a)^{1/2} is symmetric and L^p = diag(a)^{1/2} S^p
    diag(a)^{-1/2}."""
    x = st_.grid.axes()[0][1:-1]
    r = np.sqrt(np.broadcast_to(st_.coeff.components(x), x.shape))
    L = st_.L.toarray()
    S = L * r[None, :] / r[:, None]
    lam, Q = np.linalg.eigh(0.5 * (S + S.T))
    return r * (Q @ (lam**power * (Q.T @ (v / r))))


@pytest.mark.parametrize("field", ["identity", "variable"])
@pytest.mark.parametrize("N", [16, 64, 257, 1024])
def test_1d_fractional_powers_match_dense_eigendecomposition(field, N):
    coeff = CoefficientField.identity(1) if field == "identity" else _variable_1d_field()
    st_ = SemigroupStepper(coeff, BoxGrid.interval(0.0, np.pi, N + 1))
    vals = np.zeros(N + 1)
    vals[1:-1] = np.random.default_rng(N).standard_normal(N - 1)
    u = GridFunction(st_.grid, vals)
    for s in (0.05, 0.5, 0.95):
        out, info = fractional_apply(st_, u, s)
        inv, inv_info = fractional_inverse(st_, u, s)
        for got, power in ((out, s), (inv, -s)):
            ref = _dense_power_1d(st_, power, u.interior())
            assert np.max(np.abs(got.interior() - ref)) <= 1e-8 * np.max(np.abs(ref))
            assert got.values[0] == got.values[-1] == 0.0
        for i in (info, inv_info):
            # a = 1 gives a symmetric L up to the rounding of its stencil weights
            assert i["symmetric"] == (field == "identity")
            assert i["interval"][0] == st_.lam_floor and i["sup_rel_error"] <= 1e-6


def test_1d_fractional_powers_on_4096_points():
    # hi/lo = 8.4e6 on this mesh: wider than AAA resolves for beta near 1
    N, k = 4096, 3
    st_ = _stepper_1d(N=N)
    u = GridFunction.from_callable(st_.grid, lambda x: np.sin(k * x))
    lam = discrete_eigenvalue(k, N)
    for s in (0.001, 0.01, 0.5, 0.99, 0.999):
        out, info = fractional_apply(st_, u, s)
        inv, _ = fractional_inverse(st_, u, s)
        assert info["symmetric"]
        assert np.max(np.abs(out.values - lam**s * u.values)) <= 1e-8 * lam**s
        assert np.max(np.abs(inv.values - lam**-s * u.values)) <= 1e-8 * lam**-s


@settings(max_examples=40, deadline=None)
@given(lo=st.floats(0.1, 10.0), ratio=st.floats(2.0, 1e7), beta=st.floats(0.001, 0.999))
def test_power_fit_certificate_holds_on_a_fresh_grid(lo, ratio, beta):
    hi = lo * ratio
    c0, poles, w, cert = semigroup._power_fit(lo, hi, beta)
    assert cert <= semigroup._RATIONAL_TOL
    assert np.all(poles <= 0.0) and c0 >= 0.0 and np.all(w > 0.0)
    assert not (poles.flags.writeable or w.flags.writeable)
    x = np.geomspace(lo, hi, 100_000)
    r = c0 + np.sum(w / (x[:, None] - poles), axis=1)
    # a few ulps for evaluating r(x) x^beta - 1 on the fresh points
    assert np.max(np.abs(r * x**beta - 1.0)) <= cert + 8 * np.finfo(float).eps


def test_1d_fractional_powers_never_diagonalize(monkeypatch):
    def no_modes(*args, **kwargs):
        raise AssertionError("eigendecomposition computed by a 1-D fractional power")

    monkeypatch.setattr(semigroup, "tridiagonal_modes", no_modes)
    monkeypatch.setattr(SemigroupStepper, "heat_many", no_modes)
    for coeff in (CoefficientField.identity(1), _variable_1d_field()):
        st_ = SemigroupStepper(coeff, BoxGrid.interval(0.0, np.pi, 65))
        u = GridFunction.from_callable(st_.grid, lambda x: np.sin(2 * x))
        f, _ = fractional_inverse(st_, u, 0.5)
        fractional_apply(st_, f, 0.5)
        assert "_modes" not in vars(st_)


def test_fractional_apply_zero():
    for st in (_stepper_1d(N=64), _stepper_2d(CoefficientField.identity(2), 9)):
        for op in (fractional_apply, fractional_inverse):
            out, _ = op(st, GridFunction.zeros(st.grid), 0.5)
            assert np.max(np.abs(out.values)) == 0.0


def test_fractional_inverse_and_roundtrip():
    st = _stepper_1d(N=256)
    for s in (0.25, 0.75):
        k = 2
        f = GridFunction.from_callable(st.grid, lambda x: np.sin(k * x))
        u, _ = fractional_inverse(st, f, s)
        rel = np.max(np.abs(u.values - k ** (-2.0 * s) * f.values)) * k ** (2.0 * s)
        assert rel < 1e-3
        back, _ = fractional_apply(st, u, s)
        assert np.max(np.abs(back.values - f.values)) < 1e-3


def test_extension_profile_matches_bessel():
    quad = QuadratureSpec()
    for s in (0.25, 0.5, 0.75):
        for lam in (1.0, 9.0):
            for z in (0.05, 0.3, 1.0):
                got = extension_profile_scalar(lam, s, z, quad)
                ref = bessel_extension_profile(lam, s, z)
                assert got == pytest.approx(ref, rel=2e-5)


def test_extension_via_semigroup_grid():
    st = _stepper_1d(N=192)
    s, k = 0.6, 2
    u = GridFunction.from_callable(st.grid, lambda x: np.sin(k * x))
    z = 0.4
    U, info = extension_via_semigroup(st, u, s, z)
    ref = bessel_extension_profile(k * k, s, z) * u.values
    assert np.max(np.abs(U.values - ref)) < 5e-4
    # sup bound and approximate identity as z -> 0
    assert U.sup_norm() <= u.sup_norm() * (1.0 + 1e-6)
    U0, _ = extension_via_semigroup(st, u, s, 1e-4)
    assert np.max(np.abs(U0.values - u.values)) < 5e-3
    with pytest.raises(ValueError):
        extension_via_semigroup(st, u, s, 0.0)


def test_neumann_trace_slope_scalar():
    for s in (0.25, 0.5, 0.75):
        lam = 4.0
        z = 1e-2 if s <= 0.5 else 1e-3
        slope = richardson_trace_slope(lambda zz: extension_profile_scalar(lam, s, zz),
                                       1.0, z, s)
        target = -ds_constant(s) * lam**s
        assert slope == pytest.approx(target, rel=5e-3)


def _variable_2d_field():
    """Variable a^{ij} with a mixed term: its L is nonsymmetric."""
    return CoefficientField.full_2d(lambda x, y: 1.0 + 0.2 * np.sin(x),
                                    lambda x, y: 0.3 * np.cos(y),
                                    lambda x, y: 1.0 + 0.2 * np.cos(x),
                                    lam=0.4, Lam=1.6)


def _stepper_2d(coeff, n):
    return SemigroupStepper(coeff, BoxGrid.rectangle((0.0, 0.0), (1.0, 1.0), (n, n)))


def test_coefficient_field_ellipticity_and_2d_assembly():
    c = _variable_2d_field()
    xs = np.linspace(0, 1, 9)
    ok, emin, emax = c.ellipticity_check(xs[:, None], xs[None, :])
    assert ok and emin >= 0.4 and emax <= 1.6
    grid = BoxGrid.rectangle((0.0, 0.0), (1.0, 1.0), (17, 17))
    L, m_matrix = assemble_operator(c, grid)
    assert m_matrix  # |a12| <= min(a11, a22) held on this field
    # row sums vanish for interior rows whose full stencil stays interior
    row_sums = np.asarray(L.sum(axis=1)).ravel().reshape(15, 15)
    assert np.max(np.abs(row_sums[2:-2, 2:-2])) < 1e-9


def test_2d_heat_eigenfunction():
    grid = BoxGrid.rectangle((0.0, 0.0), (np.pi, np.pi), (33, 33))
    st = SemigroupStepper(CoefficientField.identity(2), grid)
    u = GridFunction.from_callable(grid, lambda x, y: np.sin(x) * np.sin(2 * y))
    lam_h = discrete_eigenvalue(1, 32) + discrete_eigenvalue(2, 32)
    out = st.heat_apply(u, 0.1, substeps=64)
    assert np.max(np.abs(out.values - np.exp(-lam_h * 0.1) * u.values)) < 2e-5


def test_2d_mixed_upwind_positivity():
    c = CoefficientField.full_2d(lambda x, y: np.ones_like(x),
                                 lambda x, y: 0.5 * np.ones_like(x),
                                 lambda x, y: np.ones_like(x), lam=0.5, Lam=1.5)
    grid = BoxGrid.rectangle((0.0, 0.0), (1.0, 1.0), (21, 21))
    st = SemigroupStepper(c, grid, integrator="euler")
    assert st.m_matrix
    rng = np.random.default_rng(1)
    vals = np.zeros(grid.shape)
    vals[1:-1, 1:-1] = rng.uniform(0, 1, (19, 19))
    out = st.heat_apply(GridFunction(grid, vals), 0.05, substeps=16)
    assert np.min(out.values) >= -1e-12


def _random_2d(grid, seed):
    vals = np.zeros(grid.shape)
    vals[1:-1, 1:-1] = np.random.default_rng(seed).standard_normal(
        (grid.shape[0] - 2, grid.shape[1] - 2))
    return GridFunction(grid, vals)


@pytest.mark.parametrize("field", ["identity", "variable"])
@pytest.mark.parametrize("n", [9, 13])
def test_2d_fractional_powers_match_dense_matrix_power(field, n):
    coeff = CoefficientField.identity(2) if field == "identity" else _variable_2d_field()
    st_ = _stepper_2d(coeff, n)
    u = _random_2d(st_.grid, n)
    L = st_.L.toarray()
    for s in (0.05, 0.5, 0.95):
        out, info = fractional_apply(st_, u, s)
        inv, inv_info = fractional_inverse(st_, u, s)
        for got, power in ((out, s), (inv, -s)):
            ref = np.real(fractional_matrix_power(L, power)) @ u.interior()
            assert np.max(np.abs(got.interior() - ref)) <= 1e-9 * np.max(np.abs(ref))
            assert np.max(np.abs(got.values[~st_.grid.interior_mask()])) == 0.0
        for i in (info, inv_info):
            assert i["symmetric"] == (field == "identity")
            assert i["interval"][0] == st_.lam_floor and i["sup_rel_error"] <= 1e-6
            assert 1 <= i["poles"] <= 30
        back, _ = fractional_apply(st_, inv, s)
        assert np.max(np.abs(back.values - u.values)) <= 1e-10 * np.max(np.abs(u.values))


@pytest.mark.parametrize("s", [0.0, 1.0, 1.5])
def test_2d_fractional_powers_reject_s_outside_unit_interval(s):
    st_ = _stepper_2d(CoefficientField.identity(2), 9)
    u = _random_2d(st_.grid, 0)
    for op in (fractional_apply, fractional_inverse):
        with pytest.raises(ValueError):
            op(st_, u, s)


def test_rational_fit_certificate_rejects_too_wide_an_interval():
    with pytest.raises(ValueError, match="relative error"):
        semigroup._power_fit(1.0, 1e12, 0.5)


def test_2d_fractional_powers_never_step_the_heat_semigroup(monkeypatch):
    def no_heat(*args, **kwargs):
        raise AssertionError("heat semigroup stepped by a 2-D fractional power")

    monkeypatch.setattr(SemigroupStepper, "heat_interior", no_heat)
    monkeypatch.setattr(SemigroupStepper, "heat_many", no_heat)
    st_ = _stepper_2d(_variable_2d_field(), 9)
    u = _random_2d(st_.grid, 1)
    f, _ = fractional_inverse(st_, u, 0.5)
    fractional_apply(st_, f, 0.5)
    assert st_._lu_cache == {}


def test_2d_solves_never_factorize_with_splu(monkeypatch):
    def no_splu(*args, **kwargs):
        raise AssertionError("splu called by a 2-D solve")

    monkeypatch.setattr(semigroup.spla, "splu", no_splu)
    st_ = _stepper_2d(_variable_2d_field(), 9)
    u = _random_2d(st_.grid, 2)
    f, _ = fractional_inverse(st_, u, 0.5)
    fractional_apply(st_, f, 0.5)
    assert st_._lu_cache == {}
    prob = ExtensionProblem(s=0.5, coeff=_variable_2d_field(), domain=((0.0, 1.0), (0.0, 1.0)),
                            Z=1.0, bottom=("neumann", lambda x, y: np.sin(3.0 * x) * y),
                            g_lateral=1.0, g_top=1.0)
    state = solve_extension(prob, ExtensionMesh(nx=9, my=6))
    assert state.residual_interior <= 1e-14


def test_shifted_band_solver_raises_on_a_zero_pivot():
    # the 1 x 1 interior of a 3 x 3 grid: L - L[0, 0] I is the zero matrix
    L = _stepper_2d(CoefficientField.identity(2), 3).L
    c = L[0, 0]
    with pytest.raises(np.linalg.LinAlgError, match=rf"L - \({c:g}\) I is singular"):
        semigroup._shifted_band_solver(L, [-c], f"L - ({c:g}) I is singular")
    # a zero pivot that elimination makes, in the second of two stacked blocks
    A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    with pytest.raises(np.linalg.LinAlgError, match="singular y-mode system"):
        semigroup._shifted_band_solver(A, [0.0, -1.0], "singular y-mode system")
    b = np.array([[1.0, -2.0], [3.0, 0.5]])
    x = semigroup._shifted_band_solver(A, [0.0, 3.0], "singular")(b)
    assert np.allclose(x, [np.linalg.solve(A.toarray() + sh * np.eye(2), bk)
                           for sh, bk in zip((0.0, 3.0), b)], rtol=1e-15, atol=1e-15)


@settings(max_examples=20, deadline=None)
@given(st.integers(7, 13), st.floats(2.0, 6.0), st.floats(0.0, 16.0), st.floats(0.75, 0.95),
       st.floats(0.5, 9.0), st.sampled_from([-1.0, 1.0]), st.floats(0.05, 0.95))
@example(9, 4.0, 0.0, 0.75, 1.0, 1.0, 0.5)  # a11 = 1, a22 = 4, a12 = 1.5
@example(13, 2.0, 16.0, 0.9, 9.0, -1.0, 0.5)  # rows swapped for the poles nearest 0
def test_2d_fractional_powers_with_the_centered_cross_stencil(n, base, amp, t, freq, sign, s):
    # a11 = 1 < |a12| = t sqrt(a22) on square cells: the centered cross
    # stencil, no M-matrix; a strongly varying a22 makes the band LU swap rows
    def a22(x, y):
        return base + amp * (0.5 + 0.5 * np.sin(freq * y)) + 0.0 * x

    coeff = CoefficientField.full_2d(lambda x, y: np.ones(np.broadcast(x, y).shape),
                                     lambda x, y: sign * t * np.sqrt(a22(x, y)), a22,
                                     (1.0 - t * t) * base / (1.0 + base), 1.0 + base + amp)
    st_ = _stepper_2d(coeff, n)
    assert not st_.m_matrix
    u = _random_2d(st_.grid, n)
    L = st_.L.toarray()
    for op, power in ((fractional_apply, s), (fractional_inverse, -s)):
        got, _ = op(st_, u, s)
        ref = np.real(fractional_matrix_power(L, power)) @ u.interior()
        assert np.max(np.abs(got.interior() - ref)) <= 1e-9 * np.max(np.abs(ref))


def test_2d_fractional_power_does_not_import_scipy_stats():
    # AAA's default clean-up imports scipy.stats, about a second on first use
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import fracext\n"
        "from fracext.gridfn import BoxGrid, GridFunction\n"
        "from fracext.semigroup import CoefficientField, SemigroupStepper, fractional_apply\n"
        "grid = BoxGrid.rectangle((0.0, 0.0), (np.pi, np.pi), (7, 7))\n"
        "st = SemigroupStepper(CoefficientField.identity(2), grid)\n"
        "u = GridFunction.from_callable(grid, lambda x, y: np.sin(x) * np.sin(y))\n"
        "fractional_apply(st, u, 0.4)\n"
        "assert 'scipy.stats' not in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr

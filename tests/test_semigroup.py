"""Semigroup core: heat semigroup, fractional powers, extension profile."""

import json
import re
import tracemalloc
import types
import warnings
from dataclasses import dataclass
from functools import cached_property
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, example, given, settings, strategies as st
from scipy.linalg import eig, expm, fractional_matrix_power, lapack

from fracext import extension, obs, semigroup
from fracext.extension import (ExtensionMesh, ExtensionProblem, HarmonicCombo,
                               harmonic_mode_profile, solve_extension)
from fracext.fitting import sup_fit
from fracext.geometry import MAGeometry, transform_to_y, transform_to_z
from fracext.gridfn import BoxGrid, GridFunction
from fracext.semigroup import (CoefficientField, QuadratureSpec, SemigroupStepper,
                               bessel_extension_profile, ds_constant,
                               extension_via_semigroup_multi, fractional_apply,
                               fractional_inverse, x_operator)


def _stepper_1d(N=129):
    grid = BoxGrid.interval(0.0, np.pi, N + 1)
    return SemigroupStepper(CoefficientField.identity(1), grid)


def discrete_eigenvalue(k, N):
    # 4 sin^2(kh/2) / h^2, not 2 (1 - cos kh) / h^2: no cancellation for small kh
    dx = np.pi / N
    return 4.0 * np.sin(0.5 * k * dx) ** 2 / dx**2


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
    # the scalar lam^s = lam r_{1-s}(lam) and lam^-s = r_s(lam) from the
    # certified fits on the spectral interval of a real 1-D stepper
    st_ = _stepper_1d(N=256)
    u = GridFunction.from_callable(st_.grid, np.sin)
    for s in (0.25, 0.5, 0.75):
        _, info = fractional_apply(st_, u, s)
        lo, hi = info["interval"]
        assert lo <= 1.0 and 9.0 <= hi
        fit_s = semigroup._power_fit(lo, hi, s)
        fit_1ms = semigroup._power_fit(lo, hi, 1.0 - s)
        for lam in (1.0, 4.0, 9.0):
            r = [c0 + float(np.sum(w / (lam - poles))) for c0, poles, w, _ in (fit_s, fit_1ms)]
            assert lam * r[1] == pytest.approx(lam**s, rel=1e-6)
            assert r[0] == pytest.approx(lam**-s, rel=1e-6)


def test_quadrature_spec_validation():
    for kwargs in ({"t_min": 0.0}, {"t_min": 1.0, "t_max": 0.5}, {"t_min": np.nan},
                   {"t_max": np.inf}, {"t_min": -np.inf}, {"t_max": np.nan}, {"nodes": 7},
                   {"nodes": 8.5}, {"nodes": 96.0}):
        with pytest.raises(ValueError):
            QuadratureSpec(**kwargs)


def _variable_heat_stepper(N, lam, ratio, freq, length):
    Lam = lam * ratio
    coeff = CoefficientField(
        1, lambda x: lam + (Lam - lam) * np.sin(freq * x) ** 2, lam, Lam)
    return SemigroupStepper(coeff, BoxGrid.interval(0.0, length, N + 1))


def test_heat_identity_and_eigen_decay():
    st = _stepper_1d(N=128)
    k = 3
    v = np.sin(k * st.grid.axes()[0][1:-1])
    assert np.array_equal(st.heat_interior(v, 0.0), v)
    lam_h = discrete_eigenvalue(k, 128)
    for t in (0.01, 0.1, 0.5):
        assert np.max(np.abs(st.heat_interior(v, t) - np.exp(-lam_h * t) * v)) < 1e-13


@settings(max_examples=30, deadline=None)
@given(st.integers(16, 256), st.floats(0.2, 1.0), st.floats(1.0, 5.0), st.floats(0.5, 6.0),
       st.floats(0.5, 4.0), st.integers(0, 2**32 - 1))
def test_heat_positivity_and_sup_contraction(N, lam, ratio, freq, length, seed):
    # -L is an M-matrix with nonpositive row sums: e^{-tL} is a nonnegative
    # matrix whose rows sum to at most 1
    stepper = _variable_heat_stepper(N, lam, ratio, freq, length)
    v = np.random.default_rng(seed).uniform(0.0, 1.0, N - 1)
    ts = np.geomspace(1e-6, 1.0, 13) * stepper._t_cutoff
    rows = np.array([stepper.heat_interior(v, t) for t in ts])
    tol = 1e-12 * np.max(v)
    assert np.min(rows) >= -tol
    sups = np.max(rows, axis=1)
    assert np.all(sups <= np.max(v) + tol) and np.all(np.diff(sups) <= tol)


@settings(max_examples=30, deadline=None)
@given(st.integers(16, 256), st.floats(0.2, 1.0), st.floats(1.0, 5.0), st.floats(0.5, 6.0),
       st.floats(0.5, 4.0), st.floats(1e-6, 1.0), st.floats(1e-6, 1.0),
       st.integers(0, 2**32 - 1))
def test_semigroup_law_at_unaligned_times(N, lam, ratio, freq, length, a, b, seed):
    stepper = _variable_heat_stepper(N, lam, ratio, freq, length)
    v = np.random.default_rng(seed).uniform(-1.0, 1.0, N - 1)
    once = stepper.heat_interior(v, a + b)
    twice = stepper.heat_interior(stepper.heat_interior(v, a), b)
    assert np.max(np.abs(once - twice)) <= 1e-12 * np.max(np.abs(v))


def test_heat_cutoff_returns_zero():
    st = _stepper_1d(N=64)
    v = np.sin(st.grid.axes()[0][1:-1])
    assert np.array_equal(st.heat_interior(v, 1e4), np.zeros_like(v))


@settings(max_examples=60, deadline=None)
@given(st.integers(16, 256), st.floats(0.2, 1.0), st.floats(1.0, 5.0), st.floats(0.5, 6.0),
       st.floats(0.5, 4.0), st.just(0.0) | st.floats(1e-6, 10.0), st.integers(0, 2**32 - 1))
def test_heat_matches_dense_expm(N, lam, ratio, freq, length, t, seed):
    stepper = _variable_heat_stepper(N, lam, ratio, freq, length)
    v = np.random.default_rng(seed).uniform(-1.0, 1.0, N - 1)
    tol = 1e-12 * np.max(np.abs(v))
    L = stepper.L.toarray()
    ts = [t, 0.5 * t, 0.0, 2.0 * t]
    rows = np.array([stepper.heat_interior(v, tj) for tj in ts])
    assert rows.shape == (len(ts), N - 1)
    for tj, row in zip(ts, rows):
        assert np.max(np.abs(row - expm(-tj * L) @ v)) <= tol
    assert np.array_equal(rows[2], v)


def test_mode_space_heat_edges():
    st_ = _stepper_1d(N=64)
    v = np.random.default_rng(3).uniform(-1.0, 1.0, 63)
    assert np.array_equal(st_.heat_interior(v, 0.0), v)
    for past in (st_._t_cutoff * (1.0 + 1e-12), 1e4, np.inf):
        assert np.array_equal(st_.heat_interior(v, past), np.zeros(63))
    for bad in (-1e-3, np.nan):
        with pytest.raises(ValueError):
            st_.heat_interior(v, bad)


def test_2d_heat_is_refused():
    grid = BoxGrid.rectangle((0.0, 0.0), (np.pi, np.pi), (9, 9))
    st_ = SemigroupStepper(CoefficientField.identity(2), grid)
    u = GridFunction.from_callable(grid, lambda x, y: np.sin(x) * np.sin(2 * y))
    for call in (lambda: st_.heat_interior(u.interior(), 0.1),
                 lambda: st_.heat_interior(u.interior(), 0.0),
                 lambda: extension_via_semigroup_multi(st_, u, 0.5, [0.3])):
        with pytest.raises(ValueError, match="1-D grids only"):
            call()


@pytest.mark.parametrize("call, match", [
    (lambda: BoxGrid.interval(0.0, 1.0, 5.5).axes(),
     r"integer count of at least 3 nodes per axis, got \(0.0, 1.0\) with 5.5 nodes"),
    (lambda: extension_via_semigroup_multi(
        _stepper_1d(N=16), GridFunction(BoxGrid.interval(0.0, np.pi, 17), np.zeros(17)), 0.5, []),
     "the semigroup extension needs at least one height z"),
    (lambda: sup_fit(np.zeros((0, 2)), np.zeros(0)),
     r"basis must be a 2-D \(m, p\) array with m >= 1 rows, got shape \(0, 2\)"),
], ids=["grid-node-count", "extension-no-heights", "fit-no-rows"])
def test_inputs_that_leaked_numpy_errors_are_named(call, match):
    # each raised a numpy error naming no input: a TypeError from linspace,
    # the argmax and the max of an empty sequence
    with pytest.raises(ValueError, match=match):
        call()


def test_1d_stepper_never_factorizes(monkeypatch):
    def no_splu(*args, **kwargs):
        raise AssertionError("splu called by a 1-D stepper")

    monkeypatch.setattr(semigroup.spla, "splu", no_splu)
    st_ = _stepper_1d(N=64)
    u = GridFunction.from_callable(st_.grid, lambda x: np.sin(2 * x))
    f, _ = fractional_inverse(st_, u, 0.5)
    fractional_apply(st_, f, 0.5)
    extension_via_semigroup_multi(st_, u, 0.5, [0.3])
    for t in (0.1, 0.2):
        st_.heat_interior(u.interior(), t)


@pytest.mark.parametrize("n", [1, 2])
def test_declared_ellipticity_bounds_are_checked(n):
    # the spectral floor, and with it the decay cut-off and the rational fits' interval,
    # rests on the declared lam: identity coefficients declared with
    # lam = Lam = 30 put L^{-1/2} 3.9% off on 17^2 nodes while its
    # certificate read 4.7e-13
    if n == 1:
        coeff = CoefficientField(1, lambda x: np.ones_like(x), 30.0, 30.0)
        grid = BoxGrid.interval(0.0, np.pi, 17)
    else:
        coeff = CoefficientField.full_2d(*(lambda x, y, v=v: np.full(np.broadcast(x, y).shape, v)
                                           for v in (1.0, 0.0, 1.0)), 30.0, 30.0)
        grid = BoxGrid.rectangle((0.0, 0.0), (np.pi, np.pi), (17, 17))
    at = ", ".join(f"{ax[1]:g}" for ax in grid.axes())
    comps = "a11 = 1" if n == 1 else "a11 = 1, a12 = 0, a22 = 1"
    with pytest.raises(ValueError, match=re.escape(
            f"declared ellipticity bounds [30, 30] at node ({at}): {comps}")):
        SemigroupStepper(coeff, grid)
    # bounds that hold are accepted
    assert SemigroupStepper(CoefficientField.identity(n), grid)._op.floor > 0.0


@pytest.mark.parametrize("lam, Lam", [(0.0, 1.0), (2.0, 1.0), (1.0, np.inf), (np.nan, 1.0)])
def test_coefficient_field_needs_finite_ordered_bounds(lam, Lam):
    # with Lam = inf an inf coefficient would pass x_operator's check
    with pytest.raises(ValueError, match=re.escape("need 0 < lambda <= Lambda < inf")):
        CoefficientField(1, lambda x: np.ones_like(x), lam, Lam)


def test_fractional_apply_eigen_mapping():
    st = _stepper_1d(N=256)
    for s in (0.25, 0.5, 0.75):
        for k in (1, 2, 4):
            u = GridFunction.from_callable(st.grid, lambda x: np.sin(k * x))
            out, info = fractional_apply(st, u, s)
            target = k ** (2.0 * s) * u.values
            rel = np.max(np.abs(out.values - target)) / np.max(np.abs(target))
            assert rel < 1e-3
    assert info["beta"] == 1.0 - s and info["interval"][0] == st._op.floor
    assert 1 <= info["poles"] and info["sup_rel_error"] <= 1e-6


def _variable_1d_field():
    return CoefficientField(1, lambda x: 1.0 + 0.3 * np.sin(3.0 * x), 0.7, 1.3)


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
            assert i["interval"][0] == st_._op.floor and i["sup_rel_error"] <= 1e-6


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


def _nnls_fit(lo, hi, beta):
    """The fit's candidate poles with scipy's nnls weights on the same
    column-scaled relative-error matrix: (c0, poles with a positive weight,
    their weights)."""
    from scipy.optimize import nnls
    x = np.geomspace(lo, hi, semigroup._FIT_SAMPLES)
    poles = semigroup._candidate_poles(x, beta)
    A = np.column_stack([np.ones_like(x), 1.0 / (x[:, None] - poles)]) * (x**beta)[:, None]
    col = np.max(A, axis=0)
    w = nnls(A / col, np.ones_like(x))[0] / col
    return w[0], poles[w[1:] > 0.0], w[1:][w[1:] > 0.0]


def _sampled_error(lo, hi, beta, c0, poles, w):
    x = np.geomspace(lo, hi, semigroup._CERT_SAMPLES)
    return np.max(np.abs((c0 + (1.0 / (x[:, None] - poles)) @ w) * x**beta - 1.0))


@settings(max_examples=40, deadline=None)
@given(lo=st.floats(0.1, 10.0), ratio=st.floats(2.0, 1e2), beta=st.floats(0.001, 0.999))
@example(lo=1.0, ratio=1e2, beta=0.7)
@example(lo=6.405920704482398, ratio=1e2, beta=0.5)  # lo * 1e2 / lo rounds above 1e2
def test_aaa_port_and_weight_elimination_match_scipy(lo, ratio, beta):
    # the AAA port proposes as many real negative poles as scipy's AAA, and
    # the elimination keeps the poles that nnls keeps on them
    from scipy.interpolate import AAA
    hi = lo * ratio
    x = np.geomspace(lo, hi, semigroup._FIT_SAMPLES)
    ref = AAA(x, x**-beta, clean_up=False).poles()
    ref = ref[(np.abs(ref.imag) <= 1e-12 * np.abs(ref)) & (ref.real < 0.0)]
    assert semigroup._candidate_poles(x, beta).size == ref.size
    c0, poles, _, _ = semigroup._power_fit(lo, hi, beta)
    c0_ref, poles_ref, _ = _nnls_fit(lo, hi, beta)
    np.testing.assert_array_equal(np.sort(poles), np.sort(poles_ref))
    assert (c0 > 0.0) == (c0_ref > 0.0)


@settings(max_examples=30, deadline=None)
@given(lo=st.floats(0.1, 10.0), ratio=st.floats(2.0, 4e9), beta=st.floats(0.001, 0.999))
@example(lo=1.0, ratio=4e9, beta=0.5)
@example(lo=1.0, ratio=1.01e2, beta=0.5)  # 1.01 _AAA_MAX_RANGE: the narrowest geometric set
@example(lo=1.6211389382774044, ratio=220.49999999999997, beta=0.6)  # plane2d's n = 21, 25, 29
@example(lo=1.6211389382774044, ratio=312.49999999999994, beta=0.6)
@example(lo=1.6211389382774044, ratio=420.49999999999994, beta=0.6)
def test_weight_elimination_is_as_accurate_as_nnls(lo, ratio, beta):
    hi = lo * ratio
    c0, poles, w, _ = semigroup._power_fit(lo, hi, beta)
    err = _sampled_error(lo, hi, beta, c0, poles, w)
    assert err <= 1e-9
    assert err <= 4.0 * _sampled_error(lo, hi, beta, *_nnls_fit(lo, hi, beta))


def _full_matrix_fit(lo, hi, beta):
    """The weight elimination with np.linalg.lstsq on the full column-scaled
    sample matrix at every refit: (c0, poles with a positive weight, their
    weights)."""
    x = np.geomspace(lo, hi, semigroup._FIT_SAMPLES)
    poles = semigroup._candidate_poles(x, beta)
    A = np.column_stack([np.ones_like(x), 1.0 / (x[:, None] - poles)]) * (x**beta)[:, None]
    col = np.max(A, axis=0)
    cols = np.arange(A.shape[1])
    while True:
        c = np.linalg.lstsq(A[:, cols] / col[cols], np.ones_like(x))[0]
        if c.min() >= 0.0:
            break
        cols = np.delete(cols, np.argmin(c))
    w = np.zeros(A.shape[1])
    w[cols] = c / col[cols]
    keep = w[1:] > 0.0
    return w[0], poles[keep], w[1:][keep]


def _fresh_fits(seed, n):
    """n seeded (lo, hi, beta): lo in [0.1, 10] and hi/lo in [10, 1e9], both
    log-uniform, beta in [0.001, 0.999]."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        lo = 10.0 ** rng.uniform(-1.0, 1.0)
        yield lo, lo * 10.0 ** rng.uniform(1.0, 9.0), rng.uniform(0.001, 0.999)


def test_blocked_certificate_is_the_dense_expression_bit_for_bit():
    # the certificate is evaluated _CERT_BLOCK rows at a time; on both pole
    # paths it equals the one-shot _CERT_SAMPLES x poles expression
    paths = set()
    for lo, hi, beta in _fresh_fits(37, 60):
        c0, poles, w, cert = semigroup._power_fit.__wrapped__(lo, hi, beta)
        paths.add(hi / lo <= semigroup._AAA_MAX_RANGE)
        assert cert == _sampled_error(lo, hi, beta, c0, poles, w) + np.finfo(float).eps * hi / lo
    assert paths == {True, False}


def test_refits_on_the_r_factor_keep_the_poles_of_full_matrix_refits():
    # the least squares is rank-deficient (cond ~ 1e15): the weights move in
    # the rounding, the kept poles do not, and the certificate barely
    for lo, hi, beta in _fresh_fits(2026, 200):
        c0, poles, w, cert = semigroup._power_fit.__wrapped__(lo, hi, beta)
        c0_ref, poles_ref, w_ref = _full_matrix_fit(lo, hi, beta)
        np.testing.assert_array_equal(poles, poles_ref)
        assert c0 >= 0.0 and np.all(w >= 0.0)
        ref = _sampled_error(lo, hi, beta, c0_ref, poles_ref, w_ref) + np.finfo(float).eps * hi / lo
        assert cert <= semigroup._RATIONAL_TOL
        assert abs(cert / ref - 1.0) <= 0.02


def test_power_fits_are_counted_once_per_fresh_fit(monkeypatch):
    # a fresh apply + inverse pair fits x^{s-1} and x^{-s}; the same pair on a
    # new stepper hits the memo; fit_refits counts the least-squares solves
    lstsq, solves = np.linalg.lstsq, []
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: solves.append(1) or lstsq(*a, **k))
    semigroup._power_fit.cache_clear()
    grid = BoxGrid.interval(0.0, np.pi, 97)
    u = GridFunction.from_callable(grid, np.sin)
    for fits in (2, 0):
        st_ = SemigroupStepper(CoefficientField.identity(1), grid)
        solves.clear()
        with obs.recording() as counts:
            fractional_apply(st_, u, 0.35)
            fractional_inverse(st_, u, 0.35)
        assert counts["semigroup.power_fits"] == fits
        assert counts["semigroup.fit_refits"] == len(solves) >= fits


@pytest.mark.parametrize("lo, hi", [(np.nan, 10.0), (1.0, np.nan), (1.0, np.inf),
                                    (-np.inf, 1.0), (10.0, 1.0), (5.0, 5.0), (-1.0, 10.0),
                                    (0.0, 10.0)])
def test_power_fit_refuses_degenerate_intervals(lo, hi):
    with pytest.raises(ValueError, match="needs finite 0 < lo < hi"):
        semigroup._power_fit(lo, hi, 0.5)


@pytest.mark.parametrize("op, s", [(fractional_apply, 1.0 - 1e-16),
                                   (fractional_inverse, 1.1e-16)])
def test_a_fit_without_poles_is_c0_times_the_identity(op, s):
    # beta = 1.1e-16 on N = 12: the fit keeps c0 alone, and no system is solved
    st_ = _stepper_1d(N=12)
    u = GridFunction.from_callable(st_.grid, lambda x: np.sin(2 * x))
    out, info = op(st_, u, s)
    c0 = semigroup._power_fit(*info["interval"], info["beta"])[0]
    v = st_.L @ u.interior() if op is fractional_apply else u.interior()
    assert info["poles"] == 0 and c0 == pytest.approx(1.0, rel=1e-12)
    assert np.array_equal(out.interior(), c0 * v)


def test_power_fit_names_beta_when_one_minus_s_rounds_to_one():
    st_ = _stepper_1d(N=16)
    u = GridFunction.from_callable(st_.grid, np.sin)
    with pytest.raises(ValueError, match=r"beta in \(0,1\), got beta = 1\.0"):
        fractional_apply(st_, u, 1e-300)


def test_1d_fractional_powers_never_diagonalize(monkeypatch):
    def no_modes(*args, **kwargs):
        raise AssertionError("eigendecomposition computed by a 1-D fractional power")

    monkeypatch.setattr(SemigroupStepper, "_modes", property(no_modes))
    monkeypatch.setattr(SemigroupStepper, "heat_interior", no_modes)
    for coeff in (CoefficientField.identity(1), _variable_1d_field()):
        st_ = SemigroupStepper(coeff, BoxGrid.interval(0.0, np.pi, 65))
        u = GridFunction.from_callable(st_.grid, lambda x: np.sin(2 * x))
        f, _ = fractional_inverse(st_, u, 0.5)
        fractional_apply(st_, f, 0.5)
        assert "_modes" not in vars(st_)


def test_fractional_apply_zero():
    for st in (_stepper_1d(N=64), _stepper_2d(CoefficientField.identity(2), 9)):
        for op in (fractional_apply, fractional_inverse):
            out, _ = op(st, GridFunction(st.grid, np.zeros(st.grid.shape)), 0.5)
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


@pytest.mark.parametrize("kind", ["fractional-apply", "end-to-end"])
@pytest.mark.parametrize("cells", [16, 32, 48])
@pytest.mark.parametrize("s", [0.1, 0.4, 0.9])
def test_sine_stages_compare_with_the_mesh_eigenvalue(tmp_path, kind, cells, s):
    # the stages compare L^{+-s} sin(kx) with lam_h^{+-s} sin(kx); the
    # continuum k^{+-2s} misses lam_h^{+-s} by more than the 1e-3 tolerance
    # at 16 cells, so the stage failed there on correct powers
    from fracext.config import default_raw, validate
    from fracext.runner import run

    raw = default_raw(kind, s)
    raw["problem"]["grid_points"] = cells
    cfg = validate(raw)
    stage = run(cfg, str(tmp_path)).stages[0]
    assert stage["status"] == "pass", stage["details"]
    details, k = stage["details"], cfg.problem["k"]
    assert details["eigen_rel_error"] < 1e-6  # the rational fits' certified accuracy
    ratio = discrete_eigenvalue(k, cells) / k**2
    assert details["continuum_rel_error"] == abs(ratio ** (s if kind == "fractional-apply"
                                                           else -s) - 1.0)


@pytest.mark.parametrize("op", [fractional_apply, fractional_inverse,
                                lambda st, u, s: extension_via_semigroup_multi(st, u, s, [0.5])])
def test_fractional_powers_refuse_a_grid_function_from_another_grid(op):
    # the operator is the stepper's: a function on another grid with as many
    # nodes was mapped onto (0, pi), and one with fewer leaked a matmul error
    st = _stepper_1d(N=64)
    for grid in (BoxGrid.interval(0.0, 1.0, 65), BoxGrid.interval(0.0, np.pi, 33)):
        u = GridFunction.from_callable(grid, np.sin)
        with pytest.raises(ValueError, match=re.escape(f"the grid function is on {grid}, the "
                                                       f"stepper's on {st.grid}")):
            op(st, u, 0.4)
    op(st, GridFunction.from_callable(BoxGrid.interval(0.0, np.pi, 65), np.sin), 0.4)


@pytest.mark.parametrize("make", [lambda: _stepper_1d(N=64),
                                  lambda: _stepper_2d(CoefficientField.identity(2), 9)])
def test_a_second_power_at_the_same_beta_gives_a_fresh_steppers_bits(monkeypatch, make):
    # the round trip L^s L^{-s} applies beta = 1 - s twice, and the second
    # apply gives the bits of a fresh stepper's.  In 1-D (N = 64, hi/lo ~
    # 2e3) the record's candidate set serves every power: one factorization;
    # in 2-D each power factors its AAA poles for its own call, and the
    # stepper keeps none of them
    semigroup._assembled.cache_clear()
    calls = []
    shifted = semigroup._shifted_solver
    monkeypatch.setattr(semigroup, "_shifted_solver",
                        lambda *args: calls.append(args) or shifted(*args))
    st_, s = make(), 0.3
    per_power = 0 if st_.grid.ndim == 1 else 1
    u = st_.wrap_interior(np.random.default_rng(3).standard_normal(st_.L.shape[0]))
    first, _ = fractional_apply(st_, u, s)
    inv, _ = fractional_inverse(st_, u, s)
    assert len(calls) == 1 + per_power
    again, _ = fractional_apply(st_, inv, s)
    assert len(calls) == 1 + 2 * per_power
    fresh, _ = fractional_apply(make(), inv, s)
    assert np.array_equal(again.values, fresh.values)
    assert np.array_equal(first.values, fractional_apply(make(), u, s)[0].values)


def test_a_2d_s_sweep_leaves_no_factors_on_the_stepper():
    # 2-D powers factor their AAA poles per call: over a sweep of s the
    # stepper's attributes stay those of construction, and the traced heap
    # does not grow by the band LU of every beta (18.9 MiB on this grid)
    st_ = SemigroupStepper(CoefficientField.identity(2),
                           BoxGrid.rectangle((0.0, 0.0), (np.pi, np.pi), (21, 21)))
    u = st_.wrap_interior(np.random.default_rng(5).standard_normal(st_.L.shape[0]))
    fractional_inverse(st_, u, 0.5)  # imports and the record's fit interval
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for s in (0.15, 0.35, 0.55, 0.75, 0.9):
            fractional_apply(st_, u, s)
            fractional_inverse(st_, u, s)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 2**20
    assert set(vars(st_)) == {"coeff", "grid", "_op", "L", "_t_cutoff"}


def test_extension_via_semigroup_grid():
    st = _stepper_1d(N=192)
    s, k = 0.6, 2
    u = GridFunction.from_callable(st.grid, lambda x: np.sin(k * x))
    z = 0.4
    (U,), info = extension_via_semigroup_multi(st, u, s, [z])
    ref = bessel_extension_profile(k * k, s, z) * u.values
    assert np.max(np.abs(U.values - ref)) < 5e-4
    # sup bound and approximate identity as z -> 0
    assert np.max(np.abs(U.values)) <= np.max(np.abs(u.values)) * (1.0 + 1e-6)
    (U0,), _ = extension_via_semigroup_multi(st, u, s, [1e-4])
    assert np.max(np.abs(U0.values - u.values)) < 5e-3
    with pytest.raises(ValueError):
        extension_via_semigroup_multi(st, u, s, [0.0])


# the semigroup-extension design of the `spectral` benchmark workload: an
# s-stratum and a grid size and wave number for each
_SPECTRAL_EXTENSION_DESIGN = [((0.05, 0.055), 192, 1), ((0.29, 0.31), 256, 2),
                              ((0.51, 0.53), 320, 3), ((0.73, 0.75), 384, 1),
                              ((0.945, 0.95), 256, 2)]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(_SPECTRAL_EXTENSION_DESIGN), st.floats(0.0, 1.0),
       st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3))
@example(_SPECTRAL_EXTENSION_DESIGN[0], 0.0, [0.05, 0.46, 0.59])  # the old ladder's worst z
def test_semigroup_extension_matches_the_bessel_profile_of_the_discrete_eigenvalue(
        design, where, heights):
    (s_lo, s_hi), N, k = design
    s = s_lo + where * (s_hi - s_lo)
    st_ = _stepper_1d(N=N)
    u = GridFunction.from_callable(st_.grid, lambda x: np.sin(k * x))
    outs, _ = extension_via_semigroup_multi(st_, u, s, heights)
    lam = discrete_eigenvalue(k, N)
    for U, z in zip(outs, heights):
        bessel = bessel_extension_profile(lam, s, z) * u.values
        assert np.max(np.abs(U.values - bessel)) <= 1e-12 * np.max(np.abs(u.values))


@settings(max_examples=30, deadline=None)
@given(st.integers(16, 256), st.floats(0.2, 1.0), st.floats(1.0, 5.0), st.floats(0.5, 6.0),
       st.floats(0.5, 4.0), st.floats(0.01, 0.99),
       st.lists(st.floats(1e-4, 1.0), min_size=1, max_size=3), st.integers(0, 2**32 - 1))
def test_semigroup_extension_matches_a_dense_eigendecomposition(N, lam, ratio, freq, length,
                                                                 s, heights, seed):
    # L = -a(x) d_xx is not symmetric: the reference is V diag(phi(lam, z)) V^{-1} u
    stepper = _variable_heat_stepper(N, lam, ratio, freq, length)
    vals = np.zeros(N + 1)
    vals[1:-1] = np.random.default_rng(seed).uniform(-1.0, 1.0, N - 1)
    u = GridFunction(stepper.grid, vals)
    outs, _ = extension_via_semigroup_multi(stepper, u, s, heights)
    ev, V = eig(stepper.L.toarray())
    coef = np.linalg.solve(V, u.interior())
    for U, z in zip(outs, heights):
        ref = np.real(V @ (bessel_extension_profile(ev.real, s, z) * coef))
        assert np.max(np.abs(U.interior() - ref)) <= 1e-10 * np.max(np.abs(vals))
        assert U.values[0] == U.values[-1] == 0.0


_NOT_FINITE_POSITIVE = st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0]) | st.floats(
    max_value=0.0, allow_nan=False)


@settings(max_examples=40, deadline=None)
@given(_NOT_FINITE_POSITIVE, st.floats(0.05, 0.95))
def test_extension_refuses_heights_that_are_not_finite_and_positive(bad, s):
    st_ = _stepper_1d(N=32)
    u = GridFunction.from_callable(st_.grid, np.sin)
    with pytest.raises(ValueError, match="finite and positive"):
        extension_via_semigroup_multi(st_, u, s, [0.3, bad])
    with pytest.raises(ValueError, match="finite and positive"):
        extension_via_semigroup_multi(st_, u, s, [bad])
    if bad == 0.0:
        # the profile itself is 1 at z = 0: U(., 0) = u
        assert bessel_extension_profile(4.0, s, bad) == 1.0
        return
    for lam, z in ((4.0, bad), (bad, 0.3), (np.array([1.0, bad]), 0.3)):
        with pytest.raises(ValueError, match="finite lam >= 0 and z >= 0"):
            bessel_extension_profile(lam, s, z)


@pytest.mark.parametrize("s", [np.nan, -0.5, 0.0, 1.0, 1.5])
def test_extension_refuses_s_outside_the_unit_interval(s):
    # a NaN or negative s made the profile 1 everywhere: U(., z) = u
    st_ = _stepper_1d(N=16)
    u = GridFunction.from_callable(st_.grid, np.sin)
    for call in (lambda: bessel_extension_profile(4.0, s, 0.3),
                 lambda: extension_via_semigroup_multi(st_, u, s, [0.3])):
        with pytest.raises(ValueError, match=r"s must be in \(0,1\)"):
            call()


@pytest.mark.parametrize("s", [-0.1, 1.1, np.nan, np.array([0.4, 0.5]), [0.4], "half", None])
def test_public_powers_refuse_a_bad_s_by_name(s):
    # -0.1 was reported as beta = 1.1, an array leaked numpy's ambiguous truth
    # value or the fit memo's unhashable type
    st_ = _stepper_1d(N=16)
    u = GridFunction.from_callable(st_.grid, np.sin)
    for call in (lambda: fractional_apply(st_, u, s), lambda: fractional_inverse(st_, u, s),
                 lambda: extension_via_semigroup_multi(st_, u, s, [0.3])):
        with pytest.raises(ValueError, match=r"s must be in \(0,1\), got s = "):
            call()


@pytest.mark.parametrize("s", [np.array([0.4, 0.5]), None, "0.5", np.nan, 1.0,
                               0.0, -0.5, 1.5, 1.7])
@pytest.mark.parametrize("entry", [
    MAGeometry,
    lambda s: fractional_apply(_stepper_1d(N=16), GridFunction.from_callable(
        BoxGrid.interval(0.0, np.pi, 17), np.sin), s),
    ds_constant,
    lambda s: bessel_extension_profile(4.0, s, 0.3),
    lambda s: ExtensionProblem(s=s, coeff=CoefficientField.identity(1), domain=(0.0, 1.0), Z=1.0),
    lambda s: transform_to_y(0.3, s),
    lambda s: transform_to_z(0.3, s),
    lambda s: harmonic_mode_profile(s, 1.0, 0.3),
    lambda s: HarmonicCombo(s, 1.0, [(1, 1, 0)])(0.1, 0.2),
    lambda s: ExtensionMesh(nx=9, my=8).y_grading(s),
    lambda s: ExtensionMesh(nx=9, my=8).y_nodes(1.0, s),
], ids=["MAGeometry", "fractional_apply", "ds_constant", "bessel_extension_profile",
        "ExtensionProblem", "transform_to_y", "transform_to_z", "harmonic_mode_profile",
        "HarmonicCombo", "y_grading", "y_nodes"])
def test_every_entry_point_refuses_a_bad_s_by_name(entry, s):
    # one rule (`geometry._order`): a string was taken as its number, an
    # array or None leaked a TypeError or numpy's ambiguous truth value; the
    # transforms, the mode profile, HarmonicCombo and the y-mesh gave a
    # number or NaN at s = 0, below 0 or above 1, or divided by zero at 1
    with pytest.raises(ValueError, match=r"s must be in \(0,1\), got s = "):
        entry(s)


def test_public_powers_take_s_as_a_float():
    # a 0-d array or a float32 is the float it holds, and info stays JSON
    def extension(st_, u, s):
        (U,), info = extension_via_semigroup_multi(st_, u, s, [0.3])
        return U, info

    st_ = _stepper_1d(N=64)
    u = GridFunction.from_callable(st_.grid, np.sin)
    for s in (np.array(0.4), np.float32(0.3)):
        for power in (fractional_apply, fractional_inverse, extension):
            out, info = power(st_, u, s)
            ref, ref_info = power(st_, u, float(s))
            assert info == ref_info and json.loads(json.dumps(info)) == info
            assert np.array_equal(out.values, ref.values)


@pytest.mark.parametrize("s", [0.05, 0.5, 0.95])
def test_semigroup_extension_at_4096_nodes_matches_the_bessel_profile(s):
    # the widest 1-D spectrum (hi/lo = 8.4e6): 114 nodes, 57 complex solves
    N, k = 4096, 3
    st_ = _stepper_1d(N=N)
    u = GridFunction.from_callable(st_.grid, lambda x: np.sin(k * x))
    heights = [1e-3, 0.1, 0.7]
    outs, info = extension_via_semigroup_multi(st_, u, s, heights)
    lam = discrete_eigenvalue(k, N)
    for U, z in zip(outs, heights):
        bessel = bessel_extension_profile(lam, s, z) * u.values
        assert np.max(np.abs(U.values - bessel)) <= 1e-11 * np.max(np.abs(u.values))
    assert info["interval"] == list(st_._op.fit_interval[0])
    assert info["sup_error"] <= semigroup._EXTENSION_TOL


def test_semigroup_extension_node_count_grows_slowly_and_never_diagonalizes(monkeypatch):
    # the elliptic rule's node count grows like log(hi/lo): 1.43 times as
    # many at N = 4096 as at N = 256, hi/lo 256 times wider (a Joukowski
    # ellipse, ~ (hi/lo)^{1/8}, needs 2.04 times as many); one shifted solve
    # per conjugate pair of nodes, and the modes of L are never computed.
    # Fresh records: one that holds its contour factors counts no blocks
    def no_modes(*args, **kwargs):
        raise AssertionError("eigendecomposition computed by the semigroup extension")

    monkeypatch.setattr(SemigroupStepper, "_modes", property(no_modes))
    semigroup._assembled.cache_clear()
    nodes = {}
    for N in (256, 4096):
        st_ = _stepper_1d(N=N)
        u = GridFunction.from_callable(st_.grid, np.sin)
        with obs.recording() as counts:
            _, info = extension_via_semigroup_multi(st_, u, 0.4, [0.2, 0.6])
        nodes[N] = counts["semigroup.extension_nodes"]
        assert nodes[N] == info["nodes"] == 2 * counts["semigroup.shifted_blocks"]
        assert counts["semigroup.shifted_unknowns"] == counts["semigroup.shifted_blocks"] * (N - 1)
        assert "_modes" not in vars(st_)
    assert nodes[4096] <= 2.2 * nodes[256]


@pytest.mark.parametrize("graded, variable", [(False, False), (True, False), (False, True)],
                         ids=["uniform", "graded", "variable-a"])
def test_a_second_extension_on_a_record_factors_no_contour(graded, variable):
    # the contour depends on the fit interval alone: a later call on the
    # record, at another s and other heights, substitutes through the held
    # factors and has the bits of a call on a fresh record
    coeff = (CoefficientField(1, lambda x: 1.0 + 0.5 * np.sin(3.0 * x) ** 2, 1.0, 1.5)
             if variable else CoefficientField.identity(1))
    grid = (_GradedInterval((0.0,), (np.pi,), (386,)) if graded
            else BoxGrid.interval(0.0, np.pi, 386))
    u = GridFunction.from_callable(grid, lambda x: np.sin(x) * (1.0 + x))
    semigroup._assembled.cache_clear()
    with obs.recording() as counts:
        extension_via_semigroup_multi(SemigroupStepper(coeff, grid), u, 0.3, [0.2, 0.6])
    zeta, _, _, solve = SemigroupStepper(coeff, grid)._op.contour
    assert solve is not None and counts["semigroup.shifted_blocks"] == len(zeta)
    runs = []
    for fresh in (False, True):
        if fresh:
            semigroup._assembled.cache_clear()
        with obs.recording() as counts:
            outs, info = extension_via_semigroup_multi(SemigroupStepper(coeff, grid), u, 0.8,
                                                       [0.05, 1.5, 3.0])
        runs.append(([U.values.tobytes() for U in outs], json.dumps(info)))
        assert counts["semigroup.shifted_blocks"] == (len(zeta) if fresh else 0)
        assert counts["semigroup.extension_nodes"] == 2 * len(zeta)
    assert runs[0] == runs[1]


@pytest.mark.parametrize("N", [64, 384, 1024])
def test_a_held_contour_is_read_only_and_holds_68_bytes_per_interior_node_and_node(N):
    # zgttrf's 4 complex numbers and int32 pivot per unknown (less 64
    # bytes: the off-diagonals are one and two shorter), the solver's
    # shifts and the record's nodes, weights and 2k + 1 samples
    semigroup._assembled.cache_clear()
    op = _stepper_1d(N=N)._op
    zeta, c, lam, solve = op.contour
    assert not any(a.flags.writeable for a in (zeta, c, lam))
    arrays = [a for a in _closure_reach(solve) if isinstance(a, np.ndarray)]
    held = {id(b): b for b in (a if a.base is None else a.base for a in arrays + [zeta, c, lam])}
    k, m = len(zeta), op.L.shape[0]
    assert sum(b.nbytes for b in held.values()) == 68 * m * k + 64 * k - 56
    assert 68 * m * k <= semigroup._CONTOUR_BYTES
    assert not any(a.flags.writeable for a in arrays if a.size >= m)


def test_a_record_over_the_contour_bound_factors_on_every_call():
    # N = 2048: 53 nodes x 2047 unknowns x 68 bytes is 7.0 MiB > 4 MiB, so
    # the record holds the nodes but no factors, and every call factors
    semigroup._assembled.cache_clear()
    st_ = _stepper_1d(N=2048)
    u = GridFunction.from_callable(st_.grid, np.sin)
    zeta, _, _, solve = st_._op.contour
    assert solve is None and 68 * len(zeta) * 2047 > semigroup._CONTOUR_BYTES
    fields = []
    for s in (0.3, 0.3, 0.7):
        with obs.recording() as counts:
            outs, _ = extension_via_semigroup_multi(st_, u, s, [0.4])
        assert counts["semigroup.shifted_blocks"] == len(zeta)
        fields.append(outs[0].values)
    assert np.array_equal(fields[0], fields[1])
    assert st_._op.contour[3] is None


@pytest.mark.parametrize("bad", ["0.5", b"0.5", 0.5 + 1j, [0.3, 0.5 + 0j], object(),
                                 [object()], [True], np.array([0.3, 0.5], dtype=object)],
                         ids=["str", "bytes", "complex", "complex-list", "object",
                              "object-list", "bool", "object-array"])
def test_extension_refuses_heights_that_are_not_real_numbers(bad):
    # a string or [True] was read as a number, a complex height lost its
    # imaginary part with only a ComplexWarning, object() leaked a TypeError
    st_ = _stepper_1d(N=64)
    u = GridFunction.from_callable(st_.grid, np.sin)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="extension height z must be finite and positive"):
            extension_via_semigroup_multi(st_, u, 0.5, bad)


@pytest.mark.parametrize("call, name", [
    (lambda: bessel_extension_profile(4.0, 0.5, "0.3"), "z"),
    (lambda: bessel_extension_profile(4.0, 0.5, b"0.3"), "z"),
    (lambda: bessel_extension_profile(4.0, 0.5, [True]), "z"),
    (lambda: bessel_extension_profile(4.0, 0.5, 0.3 + 0j), "z"),
    (lambda: bessel_extension_profile(4.0, 0.5, object()), "z"),
    (lambda: bessel_extension_profile(True, 0.5, 0.3), "lam"),
    (lambda: bessel_extension_profile("4.0", 0.5, 0.3), "lam"),
    (lambda: bessel_extension_profile(4.0 + 0j, 0.5, 0.3), "lam"),
    (lambda: bessel_extension_profile(object(), 0.5, 0.3), "lam"),
    (lambda: transform_to_y(np.nan, 0.5), "z"),
    (lambda: transform_to_y("0.3", 0.5), "z"),
    (lambda: transform_to_y([0.3, np.inf], 0.5), "z"),
    (lambda: transform_to_z(np.nan, 0.5), "y"),
    (lambda: transform_to_z("0.3", 0.5), "y"),
    (lambda: transform_to_z([True], 0.5), "y"),
], ids=["z-str", "z-bytes", "z-bool", "z-complex", "z-object", "lam-bool", "lam-str",
        "lam-complex", "lam-object", "to_y-nan", "to_y-str", "to_y-inf", "to_z-nan", "to_z-str",
        "to_z-bool"])
def test_heights_and_eigenvalues_must_be_finite_real_numbers(call, name):
    # a string, bytes or bool was read as a number, a NaN passed through, and
    # a complex or object() value leaked a TypeError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"got {name} = "):
            call()


def test_integer_heights_and_eigenvalues_keep_the_bits_of_floats():
    for s in (0.3, 0.5, 0.75):
        assert _same_bits(transform_to_y(2, s), transform_to_y(2.0, s))
        assert _same_bits(transform_to_z([0, 3], s), transform_to_z(np.array([0.0, 3.0]), s))
        assert _same_bits(bessel_extension_profile(4, s, 1), bessel_extension_profile(4.0, s, 1.0))
        lams, zs = np.array([1.0, 4.0]), np.array([[0.0], [2.0]])
        assert _same_bits(bessel_extension_profile([1, 4], s, [[0], [2]]),
                          bessel_extension_profile(lams, s, zs))


def test_fractional_powers_count_their_shifted_blocks():
    # the first power on a fresh N = 64 record factors its 24 candidate
    # poles, of which the fit keeps fewer; a second beta factors none
    semigroup._assembled.cache_clear()
    st_ = _stepper_1d(N=64)
    u = GridFunction.from_callable(st_.grid, np.sin)
    with obs.recording() as counts:
        _, info = fractional_inverse(st_, u, 0.5)
    assert (counts["semigroup.shifted_blocks"], counts["semigroup.shifted_unknowns"]) == (24, 24 * 63)
    assert 0 < info["poles"] < 24
    with obs.recording() as counts:
        _, info = fractional_apply(st_, u, 0.2)
    assert counts["semigroup.shifted_blocks"] == counts["semigroup.shifted_unknowns"] == 0
    assert info["poles"] > 0


@settings(max_examples=30, deadline=None)
@given(st.integers(16, 256), st.floats(0.2, 1.0), st.floats(1.0, 5.0), st.floats(0.5, 6.0),
       st.floats(0.5, 4.0), st.floats(0.01, 0.99),
       st.lists(st.floats(1e-4, 2.0), min_size=1, max_size=3), st.integers(0, 2**32 - 1))
def test_semigroup_extension_certificate_bounds_its_error(N, lam, ratio, freq, length, s,
                                                          heights, seed):
    # L = D S D^{-1}, S symmetric: the field's 2-norm error is at most cond(D)
    # times the certificate times |u|, up to a rounding floor of 1e-12 |u|,
    # mostly the dense eig reference's (in 200 random draws it was up to
    # 2.8e-13 |u| off the modes of S, and the field within 0.72 cond(D)
    # times the certificate of them)
    stepper = _variable_heat_stepper(N, lam, ratio, freq, length)
    v = np.random.default_rng(seed).uniform(-1.0, 1.0, N - 1)
    outs, info = extension_via_semigroup_multi(stepper, stepper.wrap_interior(v), s, heights)
    assert 0.0 <= info["sup_error"] <= semigroup._EXTENSION_TOL
    d = stepper._op.stacks[0][0]
    ev, V = eig(stepper.L.toarray())
    coef = np.linalg.solve(V, v)
    bound = (d.max() / d.min() * info["sup_error"] + 1e-12) * np.linalg.norm(v)
    for U, z in zip(outs, heights):
        ref = np.real(V @ (bessel_extension_profile(ev.real, s, z) * coef))
        assert np.linalg.norm(U.interior() - ref) <= bound


def test_semigroup_extension_names_s_and_z_when_the_certificate_fails(monkeypatch):
    monkeypatch.setattr(semigroup, "_EXTENSION_TOL", 1e-20)
    st_ = _stepper_1d(N=32)
    u = GridFunction.from_callable(st_.grid, np.sin)
    with pytest.raises(ValueError, match=r"s = 0\.3, z = 0\.\d+ has error \S+ > 1e-20"):
        extension_via_semigroup_multi(st_, u, 0.3, [0.2, 0.6])


@pytest.mark.parametrize("s, z", [(0.01, 1e7), (1e-6, 1e8)])
def test_extension_profile_is_zero_where_y_overflows(s, z):
    # y = 2s z^{1/2s} overflows to inf: the profile's limit is 0 at every
    # lam > 0, real or a contour node, and 1 at lam = 0, with no warning
    st_ = _stepper_1d(N=32)
    u = GridFunction.from_callable(st_.grid, np.sin)
    zeta, _, _ = semigroup._profile_contour(*st_._op.fit_interval[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert bessel_extension_profile(4.0, s, z) == 0.0
        assert bessel_extension_profile(0.0, s, z) == 1.0
        assert np.array_equal(semigroup._bessel_profile(np.sqrt(zeta), s, z), np.zeros(len(zeta)))
        (U,), info = extension_via_semigroup_multi(st_, u, s, [z])
    assert np.array_equal(U.values, np.zeros_like(u.values)) and info["sup_error"] == 0.0


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


_HEIGHTS = st.sampled_from([0.0, -0.0, 1e7, 1e8]) | st.floats(0.0, 4.0)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([0.01]) | st.floats(0.02, 0.98), st.floats(0.0, 50.0),
       st.lists(_HEIGHTS, min_size=1, max_size=6), st.integers(1, 4))
@example(0.01, 2.0, [0.0, -0.0, 1e7, 0.5], 3)   # y overflows at 1e7: the profile is 0
def test_profiles_on_repeated_heights_equal_the_per_element_evaluation(s, lam, heights, n):
    # a (my + 1) x n x n meshgrid repeats every height n^2 times; both exact
    # profiles evaluate once per distinct height and gather, which changes no
    # bit: against one array call of the closed form on the whole grid and
    # against a call per element
    Z, _, _ = np.meshgrid(heights, np.arange(n), np.arange(n), indexing="ij")
    prof = bessel_extension_profile(lam, s, Z)
    assert _same_bits(prof, semigroup._bessel_profile(np.sqrt(lam), s, Z))
    assert _same_bits(prof.ravel(),
                      np.array([bessel_extension_profile(lam, s, [z])[0] for z in Z.flat]))
    k = 1.0 + lam  # harmonic_mode_profile's wave number is positive
    harm = harmonic_mode_profile(s, k, Z)
    assert _same_bits(harm.ravel(),
                      np.array([harmonic_mode_profile(s, k, [z])[0] for z in Z.flat]))
    assert np.all(prof[Z == 0.0] == 1.0) and np.all(harm[Z == 0.0] == 1.0)
    if lam > 0.0 and s == 0.01:
        assert np.all(prof[Z >= 1e7] == 0.0)
    # a scalar height keeps its own path and returns a float
    for z in heights:
        one = bessel_extension_profile(lam, s, z)
        assert type(one) is float and _same_bits(
            one, float(semigroup._bessel_profile(np.sqrt(lam), s, np.asarray(z))))
        one = harmonic_mode_profile(s, k, z)
        assert type(one) is float and _same_bits(one, harmonic_mode_profile(s, k, [z])[0])
    # an array lam broadcasts against the heights, one evaluation per pair
    lams = np.array([0.0, lam, 2.0 * lam + 1.0])
    zs = np.array(heights)[:, None]
    assert _same_bits(bessel_extension_profile(lams, s, zs),
                      semigroup._bessel_profile(np.sqrt(lams), s, zs))
    # the refusals are unchanged
    for bad in (-0.5, np.nan, np.inf):
        Zb = Z.copy()
        Zb.flat[-1] = bad
        with pytest.raises(ValueError, match="finite lam >= 0 and z >= 0"):
            bessel_extension_profile(lam, s, Zb)
    for bad_s in (0.0, 1.0, -s, np.nan):
        with pytest.raises(ValueError, match=r"s must be in \(0,1\)"):
            bessel_extension_profile(lam, bad_s, Z)


@pytest.mark.parametrize("my, n", [(0, 1), (4, 5), (20, 25)])
def test_profile_points_count_the_distinct_heights(my, n):
    # the gain's guard: a (my + 1) x n x n meshgrid costs my + 1 evaluations
    # of K_s, not (my + 1) n^2; a scalar height costs 1, an array lam one per pair
    Z, _, _ = np.meshgrid(np.linspace(0.0, 1.0, my + 1), np.arange(n), np.arange(n),
                          indexing="ij")
    with obs.recording() as counts:
        bessel_extension_profile(2.0, 0.4, Z)
    assert counts == {"semigroup.profile_points": my + 1}
    with obs.recording() as counts:
        bessel_extension_profile(2.0, 0.4, 0.5)
        bessel_extension_profile(np.array([1.0, 2.0, 3.0]), 0.4, Z[:, :1, 0])
    assert counts == {"semigroup.profile_points": 1 + 3 * (my + 1)}


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
    grid = BoxGrid.rectangle((0.0, 0.0), (1.0, 1.0), (17, 17))
    L = SemigroupStepper(c, grid).L
    # row sums vanish for interior rows whose full stencil stays interior
    row_sums = np.asarray(L.sum(axis=1)).ravel().reshape(15, 15)
    assert np.max(np.abs(row_sums[2:-2, 2:-2])) < 1e-9


def _constant_2d(a11, a12, a22, lam=1e-3, Lam=1e3):
    def const(v):
        return lambda x, y: np.full(np.broadcast(x, y).shape, v)

    return CoefficientField.full_2d(const(a11), const(a12), const(a22), lam, Lam)


def _lateral_block(op, shape):
    """The record's lateral coupling as the dense block (interior nodes, full
    grid) of a^{ij} d_ij on the Dirichlet values: zero on the interior
    columns and on the rows the coupling leaves out."""
    rows, B = op.lateral
    edge = np.ones(shape, dtype=bool)
    edge[(slice(1, -1),) * len(shape)] = False
    block = np.zeros((op.L.shape[0], edge.size))
    block[np.ix_(rows, np.flatnonzero(edge))] = B.toarray()
    return block


def _assert_monotone(op, shape):
    """L is an M-matrix with no stored zeros, and the lateral coupling holds
    the rows with Dirichlet neighbours alone, each with its boundary weights,
    which make every row sum of [-L B] vanish."""
    L, (rows, B) = op.L, op.lateral
    assert (L - sp.diags(L.diagonal())).max() <= 0.0 and B.min() >= 0.0
    assert np.all(L.data != 0.0) and np.all(B.data != 0.0)
    assert B.shape == (len(rows), np.prod(shape) - L.shape[0]) and np.all(np.diff(B.indptr) > 0)
    sums = -np.asarray(L.sum(axis=1)).ravel()
    tol = 1e-12 * np.max(np.abs(L.diagonal()))
    assert np.all(sums <= tol)
    sums[rows] += np.asarray(B.sum(axis=1)).ravel()
    assert np.all(np.abs(sums) <= tol)


def _upwind_reference(a11, a12, a22, xs, ys):
    """The 5-point stencil plus the mixed term upwinded along (1, sign a12),
    node by node for constant a^{ij}: (interior block, Dirichlet block)."""
    hx, hy = xs[1] - xs[0], ys[1] - ys[0]
    c, d = abs(a12) / (hx * hy), (1 if a12 >= 0 else -1)
    weights = {(1, 0): a11 / hx**2 - c, (-1, 0): a11 / hx**2 - c, (0, 1): a22 / hy**2 - c,
               (0, -1): a22 / hy**2 - c, (1, d): c, (-1, -d): c,
               (0, 0): -2.0 * a11 / hx**2 - 2.0 * a22 / hy**2 + 2.0 * c}
    n1, n2 = len(xs), len(ys)
    full = np.zeros(((n1 - 2) * (n2 - 2), n1 * n2))
    for i in range(1, n1 - 1):
        for j in range(1, n2 - 1):
            for (di, dj), wt in weights.items():
                full[(i - 1) * (n2 - 2) + j - 1, (i + di) * n2 + j + dj] += wt
    interior = np.zeros((n1, n2), dtype=bool)
    interior[1:-1, 1:-1] = True
    return full[:, interior.ravel()], np.where(interior.ravel(), 0.0, full)


@pytest.mark.parametrize("a12", [0.0, 0.3])
@pytest.mark.parametrize("n", [13, 25, 29])
def test_selling_stencil_keeps_the_plane2d_operators(a12, n):
    # the benchmark's 2-D coefficient sets on (0, pi)^2: identity and a12 = 0.3
    axes = [np.linspace(0.0, np.pi, n)] * 2
    op = x_operator(_constant_2d(1.0, a12, 1.0), axes)
    ref_A, ref_B = _upwind_reference(1.0, a12, 1.0, *axes)
    assert np.max(np.abs(op.L.toarray() + ref_A)) <= 1e-13 * np.max(np.abs(ref_A))
    assert np.max(np.abs(_lateral_block(op, (n, n)) - ref_B)) <= 1e-13 * np.max(np.abs(ref_B))
    _assert_monotone(op, (n, n))
    # no stored zeros: the band half-width is m2 without a mixed term
    coo = op.L.tocoo()
    assert np.max(np.abs(coo.col - coo.row)) == n - 2 + (a12 != 0.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(7, 29), st.integers(0, 1), st.data(), st.floats(-13.5, -10.5),
       st.sampled_from([-1.0, 1.0]))
@example(13, 0, None, -11.0, 1.0)   # 1e-11 relative: ten times the tolerance
@example(13, 1, None, -13.0, -1.0)  # 1e-13 relative: accepted
def test_2d_x_operator_keeps_the_allclose_uniformity_rule(n, axis, data, log_rel, sign):
    # one interior node moved by rel h: refused iff np.allclose(diff, h,
    # rtol=1e-12, atol=0) refuses the steps; an accepted axis whose first step
    # is kept gives L and the lateral coupling bit-identical to the uniform
    # axis's (constant a^{ij})
    j = 3 if data is None else data.draw(st.integers(2, n - 3))
    coeff = _constant_2d(1.0, 0.3, 1.0)
    axes = [np.linspace(0.0, np.pi, n)] * 2
    moved = list(axes)
    moved[axis] = axes[axis].copy()
    moved[axis][j] += sign * 10.0**log_rel * (np.pi / (n - 1))
    ax = moved[axis]
    refused = not np.allclose(np.diff(ax), ax[1] - ax[0], rtol=1e-12, atol=0.0)
    assert refused == (log_rel > -12.0) or abs(log_rel + 12.0) < 0.1
    if refused:
        with pytest.raises(ValueError, match="2-D x-operator requires uniform axes"):
            x_operator(coeff, moved)
        return
    op, mop = x_operator(coeff, axes), x_operator(coeff, moved)
    assert _same_bits(mop.lateral[0], op.lateral[0])
    for M, R in ((mop.L, op.L), (mop.lateral[1], op.lateral[1])):
        assert all(_same_bits(getattr(M, a), getattr(R, a)) for a in ("data", "indices", "indptr"))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_2d_x_operator_refuses_a_node_that_is_not_finite(bad):
    xs = np.linspace(0.0, np.pi, 9)
    for axes in ([np.where(np.arange(9) == 4, bad, xs), xs], [xs, np.append(xs[:-1], bad)]):
        with pytest.raises(ValueError, match="2-D x-operator requires uniform axes"):
            x_operator(_constant_2d(1.0, 0.3, 1.0), axes)


@pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
@pytest.mark.parametrize("axis", [0, 1])
def test_2d_x_operator_refuses_a_zero_or_nonfinite_step_by_axis(bad, axis):
    # a constant axis passed the max-deviation rule, warned of a division by
    # zero and leaked a sparse index error; one rule with interior_norm_report
    xs = np.linspace(0.0, np.pi, 9)
    axes = [xs, xs]
    axes[axis] = np.full(9, bad) if bad == 0.0 else np.where(np.arange(9) == 4, bad, xs)
    name = "xy"[axis]
    with pytest.raises(ValueError, match=re.escape(
            f"2-D x-operator requires uniform axes: axis {name} has a zero or non-finite step")):
        x_operator(_constant_2d(1.0, 0.3, 1.0), axes)


@settings(max_examples=25, deadline=None)
@given(st.integers(17, 33), st.floats(-0.99, 0.99), st.floats(0.25, 9.0),
       st.sampled_from([0.0, 0.3, 0.6]), st.floats(0.5, 4.0))
@example(17, 0.75, 4.0, 0.0, 1.0)   # a12 = 1.5, a22 = 4: -2.6e-5 with the centered cross
@example(33, 0.95, 4.0, 0.0, 1.0)   # a12 = 1.9
@example(33, 0.99, 4.0, 0.0, 1.0)   # a12 = 1.98
@example(33, -0.99, 9.0, 0.6, 3.0)
def test_point_sources_give_nonnegative_solutions(n, t, a22, amp, freq):
    # L u = e_i for 25 sources; |a12| <= 0.99 sqrt(a11 a22), constant when amp = 0
    def a11(x, y):
        return 1.0 + amp * np.sin(freq * x) + 0.0 * y

    def a22f(x, y):
        return a22 * (1.0 + amp * np.cos(freq * y)) + 0.0 * x

    coeff = CoefficientField.full_2d(
        a11, lambda x, y: t * np.cos(amp * freq * (x + y)) * np.sqrt(a11(x, y) * a22f(x, y)),
        a22f, 1e-3, 1e3)
    axes = [np.linspace(0.0, np.pi, n)] * 2
    op = x_operator(coeff, axes)
    _assert_monotone(op, (n, n))
    E = np.zeros((op.L.shape[0], 25))
    E[np.linspace(0, op.L.shape[0] - 1, 25).astype(int), np.arange(25)] = 1.0
    u = spla.splu(op.L.tocsc()).solve(E)
    assert np.all(u.min(axis=0) >= -1e-12 * u.max(axis=0))


@settings(max_examples=30, deadline=None)
@given(st.integers(5, 12), st.integers(5, 12), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
       st.floats(-2.0, 2.0))
@example(5, 5, 1.0, 1.0, 1.0)   # degenerate: a11 a22 = a12^2
@example(6, 7, 0.0, 0.0, 1.0)
def test_x_operator_rejects_constant_fields_that_are_not_elliptic(n1, n2, a11, a12, a22):
    assume(not (a11 > 0.0 and a11 * a22 - a12 * a12 > 0.0))
    xs, ys = np.linspace(0.0, 1.0, n1), np.linspace(0.0, 2.0, n2)
    first = re.escape(f"at node ({xs[1]:g}, {ys[1]:g}): a11 = {a11:g}, a12 = {a12:g}")
    with pytest.raises(ValueError, match=first):
        x_operator(_constant_2d(a11, a12, a22), [xs, ys])
    if a11 <= 0.0:
        with pytest.raises(ValueError, match=re.escape(f"at node ({xs[1]:g}): a11 = {a11:g}")):
            x_operator(CoefficientField(1, lambda x: np.full_like(x, a11), 1.0, 1.0),
                       [xs])


@settings(max_examples=30, deadline=None)
@given(st.integers(5, 12), st.integers(5, 12), st.data(),
       st.sampled_from([(0.0, 0.0, 1.0), (-1.0, 0.0, 1.0), (1.0, 1.0, 1.0), (1.0, 2.0, 1.0),
                        (float("nan"), 0.0, 1.0), (1.0, 0.0, float("inf"))]))
def test_x_operator_names_the_one_node_where_a_field_fails(n1, n2, data, bad):
    xs, ys = np.linspace(-1.0, 1.0, n1), np.linspace(0.0, 3.0, n2)
    i = data.draw(st.integers(1, n1 - 2))
    j = data.draw(st.integers(1, n2 - 2))

    def comp(k, good):
        return lambda x, y: np.where((x == xs[i]) & (y == ys[j]), bad[k], good)

    coeff = CoefficientField.full_2d(comp(0, 1.0), comp(1, 0.2), comp(2, 1.0), 0.5, 1.5)
    with pytest.raises(ValueError, match=re.escape(f"at node ({xs[i]:g}, {ys[j]:g}): "
                                                   f"a11 = {bad[0]:g}, a12 = {bad[1]:g}")):
        x_operator(coeff, [xs, ys])
    if not bad[0] > 0.0:
        one = CoefficientField(1, lambda x: np.where(x == xs[i], bad[0], 1.0), 1.0, 1.0)
        with pytest.raises(ValueError, match=re.escape(f"at node ({xs[i]:g}): a11 = {bad[0]:g}")):
            x_operator(one, [xs])


def test_selling_flips_are_capped_on_extreme_anisotropy():
    # a = R diag(1, 1e8) R^T, 1e-3 off the axes, is elliptic, but the flips
    # to its obtuse superbase, steps of a subtractive Euclid algorithm on its
    # principal direction, run past the cap
    c, s = np.cos(1e-3), np.sin(1e-3)
    k = 1e8
    coeff = _constant_2d(c * c + k * s * s, (1.0 - k) * c * s, s * s + k * c * c, 0.5, 2 * k)
    axes = [np.linspace(0.0, 1.0, 9)] * 2
    with pytest.raises(ValueError, match=r"too anisotropic at node \(0.125, 0.125\)"):
        x_operator(coeff, axes)


@pytest.mark.parametrize("theta", [0.4, 1.1])
@pytest.mark.parametrize("kappa", [10.0, 100.0])
def test_anisotropic_stencil_converges_at_second_order(kappa, theta):
    # a = R(theta) diag(1, kappa) R(theta)^T: Selling's offsets reach past the
    # nearest neighbours, so steps from nodes next to the edge cross it and
    # the nonzero boundary data are interpolated there
    c, s = np.cos(theta), np.sin(theta)
    a11, a12, a22 = c * c + kappa * s * s, (1.0 - kappa) * c * s, s * s + kappa * c * c

    def exact(x, y):
        return np.sin(2.0 * x + 0.5) * np.exp(y) + x * y * y

    def source(x, y):
        sn, cs = np.sin(2.0 * x + 0.5) * np.exp(y), np.cos(2.0 * x + 0.5) * np.exp(y)
        return a11 * (-4.0 * sn) + 2.0 * a12 * (2.0 * cs + 2.0 * y) + a22 * (sn + 2.0 * x)

    errs = []
    for n in (17, 33, 65):
        xs = np.linspace(0.0, 1.0, n)
        op = x_operator(_constant_2d(a11, a12, a22), [xs, xs])
        coo = op.L.tocoo()
        assert set(np.abs(coo.col - coo.row)) - {0, 1, n - 3, n - 2, n - 1}
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        boundary = exact(X, Y)
        boundary[1:-1, 1:-1] = 0.0
        u = spla.spsolve(-op.L.tocsc(), source(X, Y)[1:-1, 1:-1].ravel()
                         - _lateral_block(op, (n, n)) @ boundary.ravel())
        errs.append(np.max(np.abs(u - exact(X, Y)[1:-1, 1:-1].ravel())))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 1.8), (errs, orders)


def test_2d_mixed_upwind_positivity():
    # L^{-s} = c0 + sum_j w_j (L - p_j)^{-1} with w_j >= 0, p_j <= 0, and
    # each resolvent of the M-matrix L is a nonnegative matrix
    c = CoefficientField.full_2d(lambda x, y: np.ones_like(x),
                                 lambda x, y: 0.5 * np.ones_like(x),
                                 lambda x, y: np.ones_like(x), lam=0.5, Lam=1.5)
    grid = BoxGrid.rectangle((0.0, 0.0), (1.0, 1.0), (21, 21))
    st = SemigroupStepper(c, grid)
    rng = np.random.default_rng(1)
    vals = np.zeros(grid.shape)
    vals[1:-1, 1:-1] = rng.uniform(0, 1, (19, 19))
    for s in (0.1, 0.5, 0.9):
        out, _ = fractional_inverse(st, GridFunction(grid, vals), s)
        assert np.min(out.values) >= -1e-12 * np.max(out.values)


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
            assert i["interval"][0] == st_._op.floor and i["sup_rel_error"] <= 1e-6
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
    monkeypatch.setattr(SemigroupStepper, "_modes", property(no_heat))
    st_ = _stepper_2d(_variable_2d_field(), 9)
    u = _random_2d(st_.grid, 1)
    f, _ = fractional_inverse(st_, u, 0.5)
    fractional_apply(st_, f, 0.5)


def test_2d_solves_never_factorize_with_splu(monkeypatch):
    def no_splu(*args, **kwargs):
        raise AssertionError("splu called by a 2-D solve")

    monkeypatch.setattr(semigroup.spla, "splu", no_splu)
    st_ = _stepper_2d(_variable_2d_field(), 9)
    u = _random_2d(st_.grid, 2)
    f, _ = fractional_inverse(st_, u, 0.5)
    fractional_apply(st_, f, 0.5)
    prob = ExtensionProblem(s=0.5, coeff=_variable_2d_field(), domain=((0.0, 1.0), (0.0, 1.0)),
                            Z=1.0, bottom=("neumann", lambda x, y: np.sin(3.0 * x) * y),
                            g_lateral=1.0, g_top=1.0)
    state = solve_extension(prob, ExtensionMesh(nx=9, my=6))
    assert state.residual_interior <= 1e-14


def _record(M):
    """An x-operator record holding the matrix M as its L (on a toy axis, no
    lateral coupling): how `_shifted_solver` is handed a matrix built by hand."""
    return semigroup._XOperator([np.arange(M.shape[0] + 2.0)], 1.0, sp.csr_matrix(M),
                                (np.zeros(0, int), sp.csr_matrix((0, 2))))


def test_shifted_band_solver_raises_on_a_zero_pivot():
    # the 1 x 1 interior of a 3 x 3 grid: L - L[0, 0] I is the zero matrix
    op = _stepper_2d(CoefficientField.identity(2), 3)._op
    c = op.L[0, 0]
    with pytest.raises(np.linalg.LinAlgError, match=rf"L - \({c:g}\) I is singular"):
        semigroup._shifted_solver(op, [-c], f"L - ({c:g}) I is singular")
    # a zero pivot that elimination makes, in the second of two stacked blocks
    A = _record(np.array([[2.0, 1.0], [1.0, 2.0]]))
    with pytest.raises(np.linalg.LinAlgError, match="singular y-mode system"):
        semigroup._shifted_solver(A, [0.0, -1.0], "singular y-mode system")
    b = np.array([[1.0, -2.0], [3.0, 0.5]])
    # the second matrix needs a row swap in its unshifted block
    for A in (A, _record(np.array([[0.0, 1.0], [1.0, 0.0]]))):
        x = semigroup._shifted_solver(A, [0.0, 3.0], "singular")(b)
        assert np.allclose(x, [np.linalg.solve(A.L.toarray() + sh * np.eye(2), bk)
                               for sh, bk in zip((0.0, 3.0), b)], rtol=1e-15, atol=1e-15)


def _engine_solves(op, shifts, seed):
    """`_shifted_solver` on the record op and random stacked right-hand sides,
    the dense solutions of every block, and the LAPACK factorizations it called."""
    A = op.L
    b = np.random.default_rng(seed).standard_normal((len(shifts), A.shape[0]))
    with mock.patch.object(lapack, "dpttrf", wraps=lapack.dpttrf) as pt, \
            mock.patch.object(lapack, "dpbtrf", wraps=lapack.dpbtrf) as pb, \
            mock.patch.object(lapack, "dgbtrf", wraps=lapack.dgbtrf) as gb:
        x = semigroup._shifted_solver(op, shifts, "block {k}")(b)
    ref = [np.linalg.solve(A.toarray() + sh * np.eye(A.shape[0]), bk) for sh, bk in zip(shifts, b)]
    return x, np.array(ref), {"pttrf": pt.call_count, "pbtrf": pb.call_count,
                              "gbtrf": gb.call_count}


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.25, 1.0), min_size=2, max_size=40), st.floats(0.05, 1.0),
       st.floats(1.0, 1e3), st.floats(0.5, 20.0),
       st.lists(st.floats(0.0, 1e4), min_size=1, max_size=6), st.integers(0, 2**16))
@example([1.0, 1.0], 1.0, 1.0, 1.0, [0.0], 0)  # one unknown: a symmetric 1 x 1, band Cholesky
def test_shifted_solver_on_1d_operators_takes_the_symmetric_tridiagonal_factorization(
        steps, lam, ratio, freq, shifts, seed):
    # a random nonuniform grid and a(x) in [lam, lam ratio]: L = -Ax is
    # tridiagonal with negative off-diagonals, and every L + shift I with
    # shift >= 0 is positive definite after the symmetrizing similarity
    xs = np.concatenate([[0.0], np.cumsum(steps)])
    coeff = CoefficientField(
        1, lambda x: lam + lam * (ratio - 1.0) * (0.5 + 0.5 * np.sin(freq * x)),
        lam, lam * ratio)
    op = x_operator(coeff, [xs])
    x, ref, calls = _engine_solves(op, shifts, seed)
    assert calls == ({"pttrf": 1, "pbtrf": 0, "gbtrf": 0} if op.L.shape[0] > 1
                     else {"pttrf": 0, "pbtrf": 1, "gbtrf": 0})
    for xk, rk in zip(x, ref):
        assert np.max(np.abs(xk - rk)) <= 1e-12 * np.max(np.abs(rk))


@settings(max_examples=25, deadline=None)
@given(st.integers(4, 10), st.integers(4, 10), st.floats(0.05, 0.45), st.floats(0.5, 6.0),
       st.lists(st.floats(0.0, 1e4), min_size=1, max_size=4), st.integers(0, 2**16))
def test_shifted_solver_on_2d_operators_takes_the_band_lu(n1, n2, c12, freq, shifts, seed):
    coeff = CoefficientField.full_2d(lambda x, y: 1.0 + 0.5 * np.sin(freq * x) ** 2,
                                     lambda x, y: c12 * np.cos(freq * (x + y)),
                                     lambda x, y: 1.0 + 0.5 * np.cos(freq * y) ** 2, 0.5, 2.0)
    op = x_operator(coeff, [np.linspace(0.0, 1.0, n1), np.linspace(0.0, 1.0, n2)])
    x, ref, calls = _engine_solves(op, shifts, seed)
    assert calls == {"pttrf": 0, "pbtrf": 0, "gbtrf": 1}
    for xk, rk in zip(x, ref):
        assert np.max(np.abs(xk - rk)) <= 1e-12 * np.max(np.abs(rk))


def _constant_2d_field(a11, a12, a22):
    """Constant SPD a^{ij}: its L is exactly symmetric where Selling's
    offsets stay between nearest neighbours (|a12| hx hy <= min(a11 hy^2,
    a22 hx^2))."""
    mid, rad = 0.5 * (a11 + a22), np.hypot(0.5 * (a11 - a22), a12)
    return CoefficientField.full_2d(*(lambda x, y, v=v: np.full(np.broadcast(x, y).shape, v)
                                      for v in (a11, a12, a22)), mid - rad, mid + rad)


@settings(max_examples=25, deadline=None)
@given(st.integers(4, 10), st.integers(4, 10), st.floats(0.5, 3.0), st.floats(0.5, 3.0),
       st.floats(1.0, 3.0), st.floats(1.0, 3.0), st.one_of(st.just(0.0), st.floats(-0.9, 0.9)),
       st.lists(st.floats(0.0, 1e4), min_size=1, max_size=4), st.integers(0, 2**16))
def test_shifted_solver_on_symmetric_2d_operators_takes_the_band_cholesky(
        n1, n2, w1, w2, a11, a22, t, shifts, seed):
    # constant a^{ij} on a random uniform grid, a12 a fraction t of the
    # 7-point bound (so a12^2 <= t^2 a11 a22): L is symmetric with
    # off-diagonals <= 0, and every L + shift I with shift >= 0 is SPD
    hx, hy = w1 / (n1 - 1), w2 / (n2 - 1)
    a12 = t * min(a11 * hy / hx, a22 * hx / hy)
    op = x_operator(_constant_2d_field(a11, a12, a22),
                    [np.linspace(0.0, w1, n1), np.linspace(1.0, 1.0 + w2, n2)])
    x, ref, calls = _engine_solves(op, shifts, seed)
    assert calls == {"pttrf": 0, "pbtrf": 1, "gbtrf": 0}
    for xk, rk in zip(x, ref):
        assert np.max(np.abs(xk - rk)) <= 1e-12 * np.max(np.abs(rk))


def _band_field(kind):
    """The 9 x 8 grid operator's record of the batch tests and the band rows
    of its factors: a variable field's band LU or a constant field's band
    Cholesky."""
    if kind == "variable":
        coeff = CoefficientField.full_2d(lambda x, y: 1.0 + 0.5 * np.sin(2.0 * x) ** 2,
                                         lambda x, y: 0.3 * np.cos(2.0 * (x + y)),
                                         lambda x, y: 1.0 + 0.5 * np.cos(2.0 * y) ** 2, 0.5, 2.0)
    else:
        coeff = _constant_2d_field(1.0, 0.3, 1.5)
    op = x_operator(coeff, [np.linspace(0.0, 1.0, 9), np.linspace(0.0, 1.0, 8)])
    coo = op.L.tocoo()
    k = int(np.max(np.abs(coo.col - coo.row)))
    return op, 3 * k + 1 if kind == "variable" else k + 1


@pytest.mark.parametrize("kind, factorization", [("variable", "dgbtrf"),
                                                 ("symmetric", "dpbtrf")])
def test_band_lu_batches_keep_the_last_for_the_next_call(monkeypatch, kind, factorization):
    # beyond the byte budget each call factors its batches in turn and keeps
    # the last, which the next call, walking the other way, solves with
    # first: 4 batches cost 4 factorizations, then 3 per call, and kept
    # factors solve bit for bit as fresh ones; the budget is counted in the
    # band rows of the factorization taken
    op, rows = _band_field(kind)
    L = op.L
    monkeypatch.setattr(semigroup, "_BAND_BUDGET", 2 * 8 * L.shape[0] * rows)
    shifts = np.linspace(0.0, 60.0, 7)
    b = np.random.default_rng(3).standard_normal((len(shifts), L.shape[0]))
    with mock.patch.object(lapack, factorization, wraps=getattr(lapack, factorization)) as fac:
        solve = semigroup._shifted_solver(op, shifts, "block {k}")
        runs = []
        for _ in range(3):
            before = fac.call_count
            runs.append((solve(b), fac.call_count - before))
    assert [count for _, count in runs] == [4, 3, 3]
    for x, _ in runs[1:]:
        assert np.array_equal(x, runs[0][0])
    ref = [np.linalg.solve(L.toarray() + sh * np.eye(L.shape[0]), bk) for sh, bk in zip(shifts, b)]
    assert np.allclose(runs[0][0], ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)))


def _closure_reach(func):
    """Every object `func` keeps alive through closure cells, following nested
    functions, tuples, lists and dicts."""
    seen, stack = {}, [func]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen[id(obj)] = obj
        if isinstance(obj, types.FunctionType):
            stack += [cell.cell_contents for cell in obj.__closure__ or ()]
        elif isinstance(obj, (tuple, list)):
            stack += obj
        elif isinstance(obj, dict):
            stack += obj.values()
    return list(seen.values())


@pytest.mark.parametrize("kind", ["variable", "symmetric"])
def test_band_solver_with_every_block_factored_keeps_no_operator_copy(monkeypatch, kind):
    # when every block fits the budget the solve keeps the band factors (LU
    # and its pivots, or the Cholesky alone) and no copy of the operator;
    # past the budget the solve refactors batches from the record's own L,
    # which it refers to, still with no copy
    op, rows = _band_field(kind)
    n, shifts = op.L.shape[0], np.linspace(0.0, 60.0, 7)
    reach = _closure_reach(semigroup._shifted_solver(op, shifts, "block {k}"))
    assert not any(sp.issparse(obj) for obj in reach)
    held = [(rows, len(shifts) * n)] + ([(len(shifts) * n,)] if kind == "variable" else [])
    assert sorted(obj.shape for obj in reach if isinstance(obj, np.ndarray) and obj.size >= n) \
        == sorted(held)
    # a record may hold them (`_XOperator.pole_set`): read-only
    assert not any(obj.flags.writeable for obj in reach
                   if isinstance(obj, np.ndarray) and obj.size >= n)
    monkeypatch.setattr(semigroup, "_BAND_BUDGET", 2 * 8 * n * rows)
    reach = _closure_reach(semigroup._shifted_solver(op, shifts, "block {k}"))
    assert any(obj is op for obj in reach) and not any(sp.issparse(obj) for obj in reach)
    assert not any(isinstance(obj, np.ndarray) and obj.size >= n for obj in reach)


def test_2d_powers_count_their_band_cholesky_blocks():
    # identity coefficients give a symmetric L with off-diagonals <= 0: each
    # of the fit's poles is one band Cholesky block; a variable mixed term
    # makes L nonsymmetric, and its poles take the band LU
    for coeff, n, symmetric in ((CoefficientField.identity(2), 13, True),
                                (_variable_2d_field(), 9, False)):
        st_ = _stepper_2d(coeff, n)
        with obs.recording() as counts:
            _, info = fractional_apply(st_, _random_2d(st_.grid, 1), 0.4)
        assert counts["semigroup.shifted_blocks"] == info["poles"] > 0
        assert counts["semigroup.cholesky_blocks"] == (info["poles"] if symmetric else 0)


def test_shifted_solver_names_an_indefinite_1d_block():
    op = _stepper_1d(N=32)._op
    lam = np.linalg.eigvals(op.L.toarray()).real
    middle = -0.5 * (lam.min() + lam.max())  # L + middle I has both signs of eigenvalue
    with pytest.raises(np.linalg.LinAlgError, match=r"^block 2 of A - \(\S+\) I$"):
        semigroup._shifted_solver(op, [0.0, 1.0, middle, 2.0], "block {k} of A - ({p:g}) I")


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.25, 1.0), min_size=2, max_size=40), st.floats(0.05, 1.0),
       st.floats(1.0, 1e3), st.floats(0.5, 20.0),
       st.lists(st.builds(complex, st.floats(-1e4, 1e4), st.floats(1e-3, 1e4)), min_size=3,
                max_size=6), st.integers(0, 2**16))
@example([1.0, 1.0], 1.0, 1.0, 1.0, [2.0j, 1.0 + 1.0j, -3.0j], 0)  # one unknown per block
def test_shifted_solver_takes_complex_shifts_through_the_tridiagonal_lu(
        steps, lam, ratio, freq, shifts, seed):
    # the contour nodes of the semigroup extension: L + shift I is complex,
    # and LAPACK's tridiagonal LU factors every block of the stack at once
    xs = np.concatenate([[0.0], np.cumsum(steps)])
    coeff = CoefficientField(
        1, lambda x: lam + lam * (ratio - 1.0) * (0.5 + 0.5 * np.sin(freq * x)),
        lam, lam * ratio)
    op = x_operator(coeff, [xs])
    L = op.L
    b = np.random.default_rng(seed).standard_normal((len(shifts), L.shape[0]))
    with mock.patch.object(lapack, "zgttrf", wraps=lapack.zgttrf) as gt, \
            mock.patch.object(lapack, "dpttrf", wraps=lapack.dpttrf) as pt, \
            mock.patch.object(lapack, "dgbtrf", wraps=lapack.dgbtrf) as gb:
        x = semigroup._shifted_solver(op, np.array(shifts), "block {k}")(b)
    assert (gt.call_count, pt.call_count, gb.call_count) == (1, 0, 0)
    A = L.toarray()
    for xk, sh, bk in zip(x, shifts, b):
        # componentwise backward error of the pivoted LU: a few eps
        r = np.abs(A @ xk + sh * xk - bk)
        assert np.all(r <= 1e-13 * ((np.abs(A) + abs(sh) * np.eye(len(bk))) @ np.abs(xk)
                                     + np.abs(bk)))


def test_shifted_solver_refuses_complex_shifts_off_a_tridiagonal_operator():
    op = _record(_stepper_1d(N=3).L[:1, :1])
    with pytest.raises(np.linalg.LinAlgError, match=r"^block 1 of A - \(\S+\) I$"):
        semigroup._shifted_solver(op, [1j, -op.L[0, 0] + 0j, 2j], "block {k} of A - ({p:g}) I")
    for A, shifts in ((_stepper_2d(CoefficientField.identity(2), 5)._op, [1j]), (op, [1j, 2j])):
        with pytest.raises(ValueError, match=r"tridiagonal A, off-diagonals < 0, N m >= 3"):
            semigroup._shifted_solver(A, shifts, "")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", [0.0, 0.5])
def test_shifted_solver_takes_the_band_lu_off_negative_off_diagonals(entry):
    # tridiagonal, but one off-diagonal entry is zero or positive: no
    # symmetrizing similarity exists, so the band LU solves, with no warning
    L = _stepper_1d(N=16).L.tolil()
    L[3, 4] = entry
    x, ref, calls = _engine_solves(_record(L.tocsr()), [0.0, 2.0], 5)
    assert calls == {"pttrf": 0, "pbtrf": 0, "gbtrf": 1}
    np.testing.assert_allclose(x, ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)))


@settings(max_examples=20, deadline=None)
@given(st.integers(7, 13), st.floats(2.0, 6.0), st.floats(0.0, 16.0), st.floats(0.75, 0.95),
       st.floats(0.5, 9.0), st.sampled_from([-1.0, 1.0]), st.floats(0.05, 0.95))
@example(9, 4.0, 0.0, 0.75, 1.0, 1.0, 0.5)  # a11 = 1, a22 = 4, a12 = 1.5
@example(13, 2.0, 16.0, 0.9, 9.0, -1.0, 0.5)
def test_2d_fractional_powers_with_strong_anisotropy(n, base, amp, t, freq, sign, s):
    # a11 = 1 < |a12| = t sqrt(a22) on square cells: beyond the 7-point
    # upwind stencil, Selling's offsets reach past the nearest neighbours
    def a22(x, y):
        return base + amp * (0.5 + 0.5 * np.sin(freq * y)) + 0.0 * x

    coeff = CoefficientField.full_2d(lambda x, y: np.ones(np.broadcast(x, y).shape),
                                     lambda x, y: sign * t * np.sqrt(a22(x, y)), a22,
                                     (1.0 - t * t) * base / (1.0 + base), 1.0 + base + amp)
    st_ = _stepper_2d(coeff, n)
    u = _random_2d(st_.grid, n)
    L = st_.L.toarray()
    for op, power in ((fractional_apply, s), (fractional_inverse, -s)):
        got, _ = op(st_, u, s)
        ref = np.real(fractional_matrix_power(L, power)) @ u.interior()
        assert np.max(np.abs(got.interior() - ref)) <= 1e-9 * np.max(np.abs(ref))


def _diags_1d_x_operator(coeff, xs):
    """The 1-D L and lateral weights as sp.diags and a COO matrix build them:
    -Ax and the rows of Bx that have entries, on the two boundary columns."""
    nx, xi = len(xs), xs[1:-1]
    a = np.broadcast_to(coeff.components(xi), xi.shape).astype(float)
    hm, hp = xi - xs[:-2], xs[2:] - xi
    cW, cE, cC = 2.0 / (hm * (hm + hp)), 2.0 / (hp * (hm + hp)), -2.0 / (hm * hp)
    Ax = sp.diags([(a * cW)[1:], a * cC, (a * cE)[:-1]], [-1, 0, 1], format="csr")
    Bx = sp.csr_matrix(([a[0] * cW[0], a[-1] * cE[-1]], ([0, nx - 3], [0, 1])),
                       shape=(nx - 2, 2))
    rows = np.flatnonzero(np.diff(Bx.indptr))
    return -Ax, rows, Bx[rows]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=40), st.floats(-5.0, 5.0),
       st.floats(0.1, 2.0), st.floats(1.0, 1e3), st.floats(0.5, 20.0), st.booleans())
@example([1.0, 1.0], 0.0, 1.0, 1.0, 1.0, False)  # one interior node
def test_1d_x_operator_writes_the_arrays_of_the_diags_build(steps, start, lam, ratio, freq,
                                                            reverse):
    # nonuniform axes, increasing or decreasing, and a non-identity a(x): the
    # directly written CSR arrays are those of sp.diags and the COO build,
    # bit for bit, zero weights dropped from L and kept in the lateral coupling
    xs = start + np.concatenate([[0.0], np.cumsum(steps)])
    if reverse:
        xs = xs[::-1].copy()
    coeff = CoefficientField(
        1, lambda x: lam + lam * (ratio - 1.0) * (0.5 + 0.5 * np.sin(freq * x)),
        lam, lam * ratio)
    op = x_operator(coeff, [xs])
    L, rows, B = _diags_1d_x_operator(coeff, xs)
    assert np.array_equal(op.lateral[0], rows)
    for got, ref in ((op.L, L), (op.lateral[1], B)):
        assert got.format == ref.format == "csr" and got.shape == ref.shape
        for name in ("data", "indices", "indptr"):
            g, r = getattr(got, name), getattr(ref, name)
            assert g.dtype == r.dtype and g.tobytes() == r.tobytes(), name


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("xs", [[0.0, 0.3, 0.2, 0.6, 1.0], [0.0, 0.25, np.nan, 0.75, 1.0],
                                [0.0, 0.5, 0.5, 1.0], [0.0, 0.5, np.inf], [0.0, 1.0]],
                         ids=["not-monotone", "nan-node", "coinciding-nodes", "inf-node",
                              "two-nodes"])
def test_1d_x_operator_refuses_an_axis_that_is_not_finite_and_strictly_monotone(xs):
    # [0, 0.3, 0.2, 0.6, 1] gave the diagonal [66.7, 50, -12.5] and negative
    # off-diagonals, a NaN node a NaN operator, coinciding nodes a bare
    # RuntimeWarning
    xs = np.array(xs)
    with pytest.raises(ValueError, match=re.escape(
            f"1-D x-axis {np.array2string(xs, threshold=12)} must be finite and strictly "
            "monotone")):
        x_operator(CoefficientField.identity(1), [xs])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("xs, a", [([0.0, 1.0, 1e160, 2e160], 1.0),
                                   ([0.0, 1.0, 1e100, 2e100], 1e-300)],
                         ids=["weights-overflow", "diagonal-underflows"])
def test_1d_x_operator_refuses_weights_that_overflow_or_a_diagonal_that_underflows(xs, a):
    # the first axis gave three overflow RuntimeWarnings and a singular Ax,
    # the second (a = lam = Lam = 1e-300) an Ax with no entries; no warning
    # may escape the refusal
    xs = np.array(xs)
    coeff = CoefficientField(1, lambda x: np.full_like(x, a), a, a)
    with pytest.raises(ValueError, match=re.escape(
            f"1-D x-axis {np.array2string(xs, threshold=12)} gives stencil weights that "
            "overflow or a diagonal that underflows to 0")):
        x_operator(coeff, [xs])


def test_1d_x_operator_on_a_decreasing_axis_gives_the_mirrored_m_matrix():
    xs = np.array([0.0, 0.1, 0.35, 0.5, 0.9, 1.0])
    coeff = CoefficientField(1, lambda x: 1.0 + 0.5 * np.sin(3.0 * x), 0.5, 1.5)
    op, rop = x_operator(coeff, [xs]), x_operator(coeff, [xs[::-1].copy()])
    L, RL = op.L.toarray(), rop.L.toarray()
    assert np.array_equal(RL, L[::-1, ::-1])
    assert np.array_equal(_lateral_block(rop, xs.shape), _lateral_block(op, xs.shape)[::-1, ::-1])
    off = RL - np.diag(np.diag(RL))
    assert np.all(off <= 0.0) and np.all(np.diag(RL) > 0.0) and np.all(RL.sum(axis=1) >= 0.0)


def _sparse_fit_interval(stepper):
    """The fit interval and symmetry flag from the sparse expressions on L,
    the floor from the grid and the declared lam."""
    L, grid = stepper.L, stepper.grid
    floor = stepper.coeff.lam * sum(8.0 / (hi - lo) ** 2 for lo, hi in zip(grid.los, grid.his))
    rounding = max(np.max(np.abs(ax)) / np.min(np.diff(ax)) for ax in grid.axes())
    hi = max(float(np.max(abs(L).sum(axis=1))), 2.0 * floor)
    symmetric = abs(L - L.T).max() <= 8 * np.finfo(float).eps * rounding * abs(L).max()
    return (floor, hi), bool(symmetric)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 300), st.floats(-3.0, 3.0), st.floats(0.1, 10.0),
       st.sampled_from(["identity", "variable"]), st.floats(1.0, 1e3), st.floats(0.5, 20.0))
@example(3, 0.0, np.pi, "identity", 1.0, 1.0)  # one interior node: the top is 2 floor
@example(65, 0.0, np.pi, "identity", 1.0, 1.0)  # symmetric
@example(65, 0.0, np.pi, "variable", 10.0, 3.0)  # not symmetric
def test_1d_stepper_fit_interval_is_the_sparse_expressions_bit_for_bit(m, lo, length, field,
                                                                       ratio, freq):
    coeff = (CoefficientField.identity(1) if field == "identity" else
             CoefficientField(1, lambda x: 1.0 + (ratio - 1.0) * np.sin(freq * x) ** 2,
                              1.0, ratio))
    stepper = SemigroupStepper(coeff, BoxGrid.interval(lo, lo + length, m))
    got = stepper._op.fit_interval
    assert got == _sparse_fit_interval(stepper)
    assert type(got[1]) is bool and got[0][1] >= 2.0 * stepper._op.floor


@pytest.mark.parametrize("field", ["identity", "variable"])
@pytest.mark.parametrize("n", [3, 9, 13])
def test_2d_stepper_fit_interval_is_the_sparse_expressions(field, n):
    coeff = CoefficientField.identity(2) if field == "identity" else _variable_2d_field()
    stepper = _stepper_2d(coeff, n)
    assert stepper._op.fit_interval == _sparse_fit_interval(stepper)


@pytest.mark.parametrize("dim, field, symmetric", [(1, "identity", True), (1, "variable", False),
                                                   (2, "identity", True), (2, "variable", False)])
def test_powers_on_one_stepper_derive_the_fit_interval_once(monkeypatch, dim, field, symmetric):
    derived = _spy_on_record(monkeypatch)
    if dim == 1:
        coeff = (CoefficientField.identity(1) if field == "identity" else
                 CoefficientField(1, lambda x: 1.0 + 0.5 * np.sin(3.0 * x), 0.5, 1.5))
        stepper = SemigroupStepper(coeff, BoxGrid.interval(0.0, np.pi, 65))
        u = GridFunction.from_callable(stepper.grid, lambda x: np.sin(x) * (1.0 + x))
    else:
        stepper = _stepper_2d(CoefficientField.identity(2) if field == "identity"
                              else _variable_2d_field(), 9)
        u = _random_2d(stepper.grid, 9)
    _, apply_info = fractional_apply(stepper, u, 0.4)
    inv, inverse_info = fractional_inverse(stepper, u, 0.4)
    _, back_info = fractional_apply(stepper, inv, 0.4)
    assert derived == [stepper._op]
    (lo, hi), flag = _sparse_fit_interval(stepper)
    for info in (apply_info, inverse_info, back_info):
        assert info["interval"] == [lo, hi] and info["symmetric"] is flag is symmetric


def _spy_on_record(monkeypatch, name="fit_interval"):
    """The x-operator records whose cached property `name` is derived from
    now on, in the order of derivation; the memo starts empty."""
    derive, derived = getattr(semigroup._XOperator, name).func, []

    def spy(self):
        derived.append(self)
        return derive(self)

    prop = cached_property(spy)
    prop.__set_name__(semigroup._XOperator, name)
    monkeypatch.setattr(semigroup._XOperator, name, prop)
    semigroup._assembled.cache_clear()
    return derived


def test_one_record_derives_how_its_stacks_are_factored_once(monkeypatch):
    # two powers, two semigroup extensions and two y-mode solves on one 1-D
    # record, each factoring a stack of its own (AAA poles on N = 12, the
    # contour past a zero byte bound): L's structure is scanned once, by the
    # record, and every stack reads the decision it holds
    derived = _spy_on_record(monkeypatch, "stacks")
    monkeypatch.setattr(semigroup, "_CONTOUR_BYTES", 0)
    handed, shifted = [], semigroup._shifted_solver

    def spy(op, *args):
        handed.append(op)
        return shifted(op, *args)

    monkeypatch.setattr(semigroup, "_shifted_solver", spy)
    monkeypatch.setattr(extension, "_shifted_solver", spy)
    problem = ExtensionProblem(s=0.5, coeff=CoefficientField.identity(1), domain=(0.0, np.pi),
                               Z=1.0, bottom=("neumann", np.sin), g_lateral=0.0, g_top=0.0)
    mesh = ExtensionMesh(nx=13, my=8)
    stepper = SemigroupStepper(problem.coeff, BoxGrid.interval(0.0, np.pi, 13))
    u = GridFunction.from_callable(stepper.grid, np.sin)
    for _ in range(2):
        fractional_apply(stepper, u, 0.4)
        extension_via_semigroup_multi(stepper, u, 0.4, [0.5])
        solve_extension(problem, mesh)
    op = stepper._op
    assert x_operator(problem.coeff, mesh.x_axes(problem.domain, 1)) is op
    assert op.pole_set is None and op.contour[3] is None
    assert len(handed) == 6 and all(h is op for h in handed)
    assert derived == [op]


@pytest.mark.parametrize("dim", [1, 2])
def test_a_second_stepper_on_the_field_and_mesh_derives_no_fit_interval(monkeypatch, dim):
    # the interval depends on the axes, L and the declared lam, all fixed by
    # the record's key: a second stepper reads the first one's, and its
    # powers and contour keep their bits
    derived = _spy_on_record(monkeypatch)
    if dim == 1:
        coeff = CoefficientField(1, lambda x: 1.0 + 0.5 * np.sin(3.0 * x), 0.5, 1.5)
        grid = BoxGrid.interval(0.0, np.pi, 65)
        u = GridFunction.from_callable(grid, lambda x: np.sin(x) * (1.0 + x))
    else:
        coeff, grid = _variable_2d_field(), BoxGrid.rectangle((0.0, 0.0), (1.0, 1.0), (11, 11))
        u = _random_2d(grid, 5)
    runs = []
    for _ in range(2):
        stepper = SemigroupStepper(coeff, grid)
        fields = [fractional_apply(stepper, u, 0.3), fractional_inverse(stepper, u, 0.7)]
        if dim == 1:
            out, info = extension_via_semigroup_multi(stepper, u, 0.3, [0.5])
            fields.append((out[0], info))
        runs.append((stepper, [(f.values.tobytes(), info) for f, info in fields]))
    (first, got), (second, again) = runs
    assert second._op is first._op and derived == [first._op]
    assert got == again


def _bounded(coeff, lam, Lam):
    """coeff's values with the declared bounds [lam, Lam]."""
    return CoefficientField(coeff.n, coeff._fn, lam, Lam)


def _rotated(theta, kappa):
    """R(theta) diag(1, kappa) R(theta)^T: Selling's offsets reach past the
    nearest nodes, so steps from nodes near the edge end on it."""
    c, s = np.cos(theta), np.sin(theta)
    return _constant_2d(c * c + kappa * s * s, (1.0 - kappa) * c * s, s * s + kappa * c * c,
                        0.5, 2.0 * kappa)


def _nudged(coeff, node, factor):
    """coeff with a11 at the `node`-th interior node (raveled) times factor."""
    def fn(*xy):
        comps = coeff.components(*xy)
        a11 = np.array(np.broadcast_to(comps if coeff.n == 1 else comps[0], xy[0].shape))
        a11.flat[node] *= factor
        return a11 if coeff.n == 1 else (a11, *comps[1:])

    return CoefficientField(coeff.n, fn, coeff.lam, coeff.Lam)


def _memo_case(kind, data):
    """(coeff, axes, moved axes) drawn for `kind`; the bounds leave room to
    nudge a value, and the moved axes differ from the axes in their nodes."""
    if kind == "1d":  # nonuniform, maybe decreasing, with a variable a(x)
        steps = data.draw(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=30))
        xs = data.draw(st.floats(-5.0, 5.0)) + np.concatenate([[0.0], np.cumsum(steps)])
        xs = xs[::-1].copy() if data.draw(st.booleans()) else xs
        ratio, freq = data.draw(st.floats(1.0, 1e3)), data.draw(st.floats(0.5, 20.0))
        coeff = CoefficientField(
            1, lambda x: 1.0 + (ratio - 1.0) * (0.5 + 0.5 * np.sin(freq * x)), 0.5, 2.0 * ratio)
        moved = xs.copy()
        moved[-1] += moved[-1] - moved[-2]  # one node, the axis stays monotone
        return coeff, [xs], [moved]
    n1, n2 = data.draw(st.integers(4, 20)), data.draw(st.integers(4, 20))
    axes = [np.linspace(0.0, data.draw(st.floats(0.5, 3.0)), n1), np.linspace(-1.0, 1.0, n2)]
    if kind == "2d-identity":
        coeff = _bounded(CoefficientField.identity(2), 0.5, 2.0)
    elif kind == "2d-a12":
        a12 = data.draw(st.floats(-0.9, 0.9))
        coeff = _constant_2d(1.0, a12, 1.0, 0.5 * (1.0 - abs(a12)), 2.0 * (1.0 + abs(a12)))
    else:
        coeff = _rotated(data.draw(st.floats(0.0, np.pi)), data.draw(st.floats(2.0, 100.0)))
    return coeff, axes, [axes[0] + (axes[0][1] - axes[0][0]), axes[1]]


def _built(coeff, axes):
    """x_operator(coeff, axes) and the count of operators it built."""
    with obs.recording() as counts:
        out = x_operator(coeff, axes)
    return out, counts["semigroup.operators"]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["1d", "2d-identity", "2d-a12", "2d-rotated"]), st.data())
@example("2d-rotated", None)  # theta = 0.4, kappa = 100 on 17^2: steps end on the edge
def test_x_operator_memo_hit_has_the_bits_of_a_fresh_build(kind, data):
    if data is None:
        coeff, axes = _rotated(0.4, 100.0), [np.linspace(0.0, 1.0, 17)] * 2
        moved = [axes[0] + 1.0 / 16, axes[1]]
    else:
        coeff, axes, moved = _memo_case(kind, data)
    semigroup._assembled.cache_clear()
    built, made = _built(coeff, axes)
    hit, again = _built(coeff, axes)
    assert (made, again) == (1, 0) and hit is built
    semigroup._assembled.cache_clear()
    fresh, remade = _built(coeff, axes)
    assert remade == 1
    # L, the lateral rows and weights, and the floor
    assert fresh.floor == hit.floor and _same_bits(fresh.lateral[0], hit.lateral[0])
    assert not hit.lateral[0].flags.writeable
    for got, ref in ((hit.L, fresh.L), (hit.lateral[1], fresh.lateral[1])):
        assert got is not ref and got.shape == ref.shape
        for name in ("data", "indices", "indptr"):
            g, r = getattr(got, name), getattr(ref, name)
            assert g.dtype == r.dtype and g.tobytes() == r.tobytes(), name
            assert not g.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                g[0] = g[0]
    # equal values share the operator; a node, a value or a bound changed builds anew
    assert _built(_bounded(coeff, coeff.lam, coeff.Lam), axes)[1] == 0
    assert _built(_nudged(coeff, 0, 1.0), axes)[1] == 0
    for other, at in ((coeff, moved), (_nudged(coeff, 0, 1.0 + 1e-9), axes),
                      (_bounded(coeff, 0.5 * coeff.lam, coeff.Lam), axes),
                      (_bounded(coeff, coeff.lam, 2.0 * coeff.Lam), axes)):
        assert _built(other, at)[1] == 1


@pytest.mark.parametrize("dim", [1, 2])
def test_a_sweep_over_s_builds_one_operator(dim):
    # every s meets the same -a^{ij} d_ij: one build, then hits whose fields
    # have the bits of a build made afresh for each call
    if dim == 1:
        coeff = CoefficientField(1, lambda x: 1.0 + 0.5 * np.sin(3.0 * x), 0.5, 1.5)
        grid = BoxGrid.interval(0.0, np.pi, 65)
        u = GridFunction.from_callable(grid, lambda x: np.sin(x) * (1.0 + x))
    else:
        coeff = _variable_2d_field()
        grid = BoxGrid.rectangle((0.0, 0.0), (1.0, 1.0), (11, 11))
        u = _random_2d(grid, 3)

    def sweep(fresh):
        fields = []
        for s in (0.2, 0.5, 0.8):
            for power in (fractional_apply, fractional_inverse):
                if fresh:
                    semigroup._assembled.cache_clear()
                fields.append(power(SemigroupStepper(coeff, grid), u, s)[0].values)
        return fields

    semigroup._assembled.cache_clear()
    with obs.recording() as counts:
        swept = sweep(fresh=False)
    assert counts["semigroup.operators"] == 1
    for got, ref in zip(swept, sweep(fresh=True)):
        assert got.tobytes() == ref.tobytes()


def test_an_operator_over_the_node_bound_is_built_afresh_and_not_kept():
    # the memo's entries stay small: past _MEMO_NODES interior nodes every
    # call builds, nothing is held, and the build has the bits of the last
    coeff = CoefficientField(1, lambda x: 1.0 + 0.5 * np.sin(3.0 * x), 0.5, 1.5)
    semigroup._assembled.cache_clear()
    for interior, made in ((semigroup._MEMO_NODES, (1, 0)), (semigroup._MEMO_NODES + 1, (1, 1))):
        axes = [np.linspace(0.0, 1.0, interior + 2)]
        (first, made_first), (second, made_second) = _built(coeff, axes), _built(coeff, axes)
        assert (made_first, made_second) == made
        assert first.L.shape == (interior, interior) and first.lateral[1].shape == (2, 2)
        for got, ref in ((first.L, second.L), (first.lateral[1], second.lateral[1])):
            assert got.shape == ref.shape
            assert all(getattr(got, name).tobytes() == getattr(ref, name).tobytes()
                       for name in ("data", "indices", "indptr"))
    assert semigroup._assembled.cache_info().currsize == 1


def _record_bytes(op, coeff):
    """The array bytes of one memo entry: its key (the axes and the
    coefficient values at the interior nodes), L and the lateral coupling."""
    rows, B = op.lateral
    key = sum(ax.nbytes for ax in op.axes) + 8 * op.L.shape[0] * (1 if coeff.n == 1 else 3)
    return key + rows.nbytes + sum(a.nbytes for M in (op.L, B)
                                   for a in (M.data, M.indices, M.indptr))


@pytest.mark.parametrize("kind", ["1d", "2d-identity", "2d-a12"])
@pytest.mark.parametrize("shape", [(9, 9), (3, 40), (33, 17)])
def test_a_record_holds_l_once_within_its_bytes_per_node(kind, shape):
    # no Ax beside L and no full-grid Bx: L, the lateral rows and weights on
    # the boundary nodes alone, and scalars; at most 56 bytes per interior
    # node in 1-D and 112 with a mixed term in 2-D, plus 24 per boundary node
    if kind == "1d":
        coeff = CoefficientField(1, lambda x: 1.0 + 0.5 * np.sin(3.0 * x), 0.5, 1.5)
        axes, per_node = [np.linspace(0.0, 1.0, shape[0] * shape[1])], 56
    else:
        a12 = 0.3 if kind == "2d-a12" else 0.0
        coeff = _constant_2d(1.0, a12, 1.0, 1.0 - a12, 1.0 + a12)
        axes, per_node = [np.linspace(0.0, 0.1 * (n - 1), n) for n in shape], 112
    semigroup._assembled.cache_clear()
    op = x_operator(coeff, axes)
    assert set(vars(op)) == {"axes", "L", "lateral", "floor"}
    interior = op.L.shape[0]
    boundary = int(np.prod([len(ax) for ax in axes])) - interior
    rows, B = op.lateral
    assert B.shape == (len(rows), boundary)
    assert _record_bytes(op, coeff) <= per_node * interior + 24 * boundary
    assert op.fit_interval[0][0] == op.floor
    # the interval caches max |L - L^T| beside it, which `stacks` reads too
    assert set(vars(op)) == {"axes", "L", "lateral", "floor", "fit_interval", "_defect"}


@dataclass(frozen=True)
class _GradedInterval(BoxGrid):
    """(lo, hi) with nodes lo + (hi - lo) (t + 0.4 t (1 - t)), t uniform:
    steps from 1.4 to 0.6 times the uniform one."""

    def axes(self):
        t = np.linspace(0.0, 1.0, self.shape[0])
        return [self.los[0] + (self.his[0] - self.los[0]) * (t + 0.4 * t * (1.0 - t))]


def _kept_pole_power(st_, v, info):
    """r(L) v over the fit's kept poles alone, factored for them: the sum
    `_rational_power` made before the record held a candidate set."""
    c0, poles, w, _ = semigroup._power_fit(*info["interval"], info["beta"])
    x = semigroup._shifted_solver(st_._op, -poles)(
        np.broadcast_to(v, (len(poles), len(v))))
    out = c0 * v
    for wj, xj in zip(w, x):
        out += wj * xj
    return out


@pytest.mark.parametrize("grid", [BoxGrid.interval(0.0, np.pi, 1026),
                                  _GradedInterval((0.0,), (np.pi,), (1026,))])
def test_an_s_sweep_factors_one_candidate_set_with_the_bits_of_the_kept_poles(grid):
    # s = 0.1, ..., 0.9, a fresh stepper per s: every power picks its poles
    # from the record's one factored candidate set, and each field has the
    # bits of a solve factored for the kept poles alone
    coeff = CoefficientField(1, lambda x: 1.0 + 0.5 * np.sin(3.0 * x) ** 2, 1.0, 1.5)
    u = GridFunction.from_callable(grid, lambda x: np.sin(x) * (1.0 + x))
    semigroup._assembled.cache_clear()
    fields = []
    with obs.recording() as counts:
        for s in [k / 10 for k in range(1, 10)]:
            st_ = SemigroupStepper(coeff, grid)
            for power in (fractional_inverse, fractional_apply):
                fields.append((st_, power, power(st_, u, s)))
    candidates, _ = st_._op.pole_set
    assert counts["semigroup.operators"] == 1
    assert counts["semigroup.shifted_blocks"] == len(candidates)
    for st_, power, (out, info) in fields:
        assert info["poles"] < len(candidates)
        v = st_.L @ u.interior() if power is fractional_apply else u.interior()
        assert np.array_equal(out.interior(), _kept_pole_power(st_, v, info))


def test_a_narrow_1d_interval_factors_each_powers_aaa_poles():
    # N = 10 (hi/lo = 75): AAA's poles depend on beta, so the record holds no
    # candidate set and each power factors its own poles for its call
    coeff = CoefficientField(1, lambda x: 1.0 + 0.5 * np.sin(3.0 * x) ** 2, 1.0, 1.5)
    grid = BoxGrid.interval(0.0, np.pi, 11)
    u = GridFunction.from_callable(grid, np.sin)
    for s in (0.2, 0.4, 0.9):
        st_ = SemigroupStepper(coeff, grid)
        for power in (fractional_inverse, fractional_apply):
            with obs.recording() as counts:
                _, info = power(st_, u, s)
            assert counts["semigroup.shifted_blocks"] == info["poles"] > 0
    assert st_._op.pole_set is None


def _wide_2d(field):
    """(coeff, grid, data) on an interval wider than _AAA_MAX_RANGE, on
    `plane2d`'s grids of (0, pi)^2: identity coefficients on 21 cells a side
    (hi/lo = 220, band Cholesky) or the variable field on 13 (237, band LU)."""
    n = 21 if field == "identity" else 13
    grid = BoxGrid.rectangle((0.0, 0.0), (np.pi, np.pi), (n + 1, n + 1))
    coeff = CoefficientField.identity(2) if field == "identity" else _variable_2d_field()
    return coeff, grid, _random_2d(grid, n)


@pytest.mark.parametrize("field", ["identity", "variable"])
def test_a_2d_record_on_a_wide_interval_holds_its_candidate_set(field):
    # the first power factors the record's geometric candidates, a second
    # one at another beta factors nothing, and its field has the bits of the
    # one on a fresh record
    coeff, grid, u = _wide_2d(field)
    semigroup._assembled.cache_clear()
    st_ = SemigroupStepper(coeff, grid)
    (lo, hi), _ = st_._op.fit_interval
    assert hi / lo > semigroup._AAA_MAX_RANGE
    with obs.recording() as counts:
        fractional_inverse(st_, u, 0.3)
    candidates, _ = st_._op.pole_set
    assert counts["semigroup.shifted_blocks"] == len(candidates)
    assert counts["semigroup.cholesky_blocks"] == (len(candidates) if field == "identity" else 0)
    with obs.recording() as counts:
        out, info = fractional_apply(st_, u, 0.7)
    assert counts["semigroup.shifted_blocks"] == counts["semigroup.cholesky_blocks"] == 0
    assert 0 < info["poles"] < len(candidates)
    semigroup._assembled.cache_clear()
    fresh, _ = fractional_apply(SemigroupStepper(coeff, grid), u, 0.7)
    assert np.array_equal(out.values, fresh.values)


@pytest.mark.parametrize("field", ["identity", "variable"])
def test_past_the_byte_bound_each_2d_power_factors_its_kept_poles(monkeypatch, field):
    # with _POLE_SET_BYTES = 0 the record holds no set, and each power
    # factors the poles its fit keeps for its own call: the fields have the
    # bits of the ones that substitute the held set
    coeff, grid, u = _wide_2d(field)
    semigroup._assembled.cache_clear()
    st_ = SemigroupStepper(coeff, grid)
    held = [power(st_, u, s)[0] for power, s in ((fractional_inverse, 0.3), (fractional_apply, 0.7))]
    monkeypatch.setattr(semigroup, "_POLE_SET_BYTES", 0)
    semigroup._assembled.cache_clear()
    st_ = SemigroupStepper(coeff, grid)
    for power, s, ref in zip((fractional_inverse, fractional_apply), (0.3, 0.7), held):
        with obs.recording() as counts:
            out, info = power(st_, u, s)
        assert counts["semigroup.shifted_blocks"] == info["poles"] > 0
        assert counts["semigroup.cholesky_blocks"] == (info["poles"] if field == "identity" else 0)
        assert np.array_equal(out.values, ref.values)
    assert st_._op.pole_set is None


@pytest.mark.parametrize("N", [64, 1025, 4097, "identity", "variable"])
def test_a_candidate_set_holds_16_bytes_per_interior_node_and_candidate(N):
    # 1-D: pttrf's factors, 2 doubles per node and candidate, and the
    # symmetrizer's 2 doubles per node; at most 43 candidates where a fit
    # certifies (hi/lo <= 4.5e9), so at most 704 bytes per node.  2-D, of
    # half-bandwidth b: the band Cholesky's b + 1 doubles per node and
    # candidate (identity coefficients), or the band LU's 3b + 1 and an
    # int32 pivot (the variable field).  All read-only
    semigroup._assembled.cache_clear()
    if isinstance(N, str):
        op = SemigroupStepper(*_wide_2d(N)[:2])._op
    else:
        coeff = CoefficientField(1, lambda x: 1.0 + 0.5 * np.sin(3.0 * x) ** 2, 1.0, 1.5)
        op = SemigroupStepper(coeff, BoxGrid.interval(0.0, np.pi, N + 1))._op
    candidates, solve = op.pole_set
    assert not candidates.flags.writeable
    arrays = [a for a in _closure_reach(solve) if isinstance(a, np.ndarray)]
    held = {id(b): b for b in (a if a.base is None else a.base for a in arrays)}
    k, m, b = len(candidates), op.L.shape[0], op.stacks[1]
    per_node = {"identity": 8 * (b + 1) * k, "variable": (8 * (3 * b + 1) + 4) * k}.get(
        N, 16 * k + 16)
    assert sum(a.nbytes for a in held.values()) == per_node * m + 8 * k
    assert not any(a.flags.writeable for a in arrays if a.size >= m)
    widest = semigroup._RATIONAL_TOL / np.finfo(float).eps  # eps hi/lo is in every certificate
    assert len(semigroup._geometric_poles(1.0, widest)) == 43


def _decision_record(kind, m, ratio, freq):
    """An x-operator record for the decision test: 1-D on a uniform, graded
    or decreasing axis of m nodes, a(x) in [1, ratio]; 2-D constant or
    variable a^{ij} on a square grid, or identity on one row of m nodes."""
    t = np.linspace(0.0, 1.0, m)
    if kind in ("uniform", "graded", "decreasing"):
        axis = {"uniform": t, "graded": t + 0.4 * t * (1.0 - t), "decreasing": t[::-1]}[kind]
        coeff = CoefficientField(1, lambda x: 1.0 + (ratio - 1.0) * np.sin(freq * x) ** 2,
                                 1.0, ratio)
        return x_operator(coeff, [np.pi * axis])
    if kind == "one-row":
        return x_operator(CoefficientField.identity(2), [np.linspace(0.0, 1.0, 3), t])
    coeff = _constant_2d_field(1.0, 0.3, 1.5) if kind == "constant" else _variable_2d_field()
    return x_operator(coeff, [np.linspace(0.0, 1.0, min(m, 12))] * 2)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["uniform", "graded", "decreasing", "constant", "variable", "one-row"]),
       st.integers(3, 160), st.floats(1.0, 1e3), st.floats(0.5, 20.0))
@example("uniform", 3, 1.0, 1.0)  # one interior node: band Cholesky, symmetrizer d = [1]
@example("one-row", 160, 1.0, 1.0)  # a tridiagonal 2-D L on a wide interval
@example("decreasing", 160, 30.0, 3.0)
def test_a_record_holds_a_candidate_set_exactly_on_intervals_wider_than_aaas(kind, m, ratio,
                                                                             freq):
    # the decision read against the dense L: the half-bandwidth, the
    # symmetrizer where L is tridiagonal with off-diagonals < 0, the band
    # Cholesky where L is exactly symmetric with off-diagonals <= 0; the
    # record holds a candidate set exactly on an interval wider than
    # _AAA_MAX_RANGE (every set here is far below _POLE_SET_BYTES), whatever
    # factors its stacks take, and its solves are L's
    semigroup._assembled.cache_clear()
    op = _decision_record(kind, m, ratio, freq)
    A = op.L.toarray()
    n, (i, j) = A.shape[0], np.nonzero(A)
    tridiagonal = np.all(np.abs(i - j) <= 1) and np.all(np.diag(A, 1) < 0.0) \
        and np.all(np.diag(A, -1) < 0.0)
    symmetrizer, k, cholesky = op.stacks
    assert k == np.max(np.abs(i - j)) and (symmetrizer is not None) == tridiagonal
    assert cholesky == (np.array_equal(A, A.T) and np.all(A[i, j][i != j] <= 0.0))
    if tridiagonal:
        d, e = symmetrizer
        S = A * d[None, :] / d[:, None]  # D^{-1} A D
        np.testing.assert_allclose(np.diag(S, 1), e, rtol=1e-12)
        np.testing.assert_allclose(np.diag(S, -1), e, rtol=1e-12)
    (lo, hi), _ = op.fit_interval
    assert (op.pole_set is not None) == (hi / lo > semigroup._AAA_MAX_RANGE)
    if op.pole_set is not None:
        candidates, solve = op.pole_set
        b = np.random.default_rng(m).standard_normal((len(candidates), n))
        x = solve(b)
        for q in (0, len(candidates) // 2, len(candidates) - 1):
            ref = np.linalg.solve(A - candidates[q] * np.eye(n), b[q])
            assert np.max(np.abs(x[q] - ref)) <= 1e-10 * np.max(np.abs(ref))
    if n == 1:  # the heat semigroup reads d = [1] and e = [] from the record
        assert cholesky and [len(a) for a in symmetrizer] == [1, 0]
        stepper = SemigroupStepper(CoefficientField.identity(1), BoxGrid.interval(0.0, np.pi, 3))
        heat = stepper.heat_interior(np.array([2.0]), 0.5)
        assert heat == pytest.approx(2.0 * np.exp(-0.5 * stepper.L[0, 0]), rel=1e-15)

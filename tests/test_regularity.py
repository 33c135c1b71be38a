"""Regularity lab: seminorms, Harnack quotients, approximation distance,
decay fitting and the inductive iteration."""

import json
import re

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linprog

from fracext import fitting, obs
from fracext.benchmarks import (harmonic_combo_problem, harmonic_family_ycap,
                                kinked_trace_problem, positive_harmonic_family,
                                sliding_fixture)
from fracext.config import default_config, validate
from fracext.extension import (ExtensionMesh, ExtensionState, HarmonicCombo,
                               harmonic_mode_profile, rescale_solution, solve_extension,
                               transform_to_y, transform_to_z)
from fracext.fitting import sup_fit
from fracext.geometry import MAGeometry, SectionDescriptor
from fracext.regularity import (_HarnackSections, _case_basis, _decay_cylinder, _region,
                                approximation_distance, campanato_iterate,
                                harnack_family_report, harnack_quotient,
                                holder_quotient, holder_seminorm,
                                holder_seminorm_state, interior_norm_report,
                                schauder_decay)
from fracext.runner import _polynomial_state, _synthetic_state, run


def _sample_points(n=400, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)


def test_sup_fit_chebyshev_exact():
    # best sup-approx of x^2 on [-1, 1] by affine functions: error 1/2 at c = 1/2
    xs = np.linspace(-1, 1, 401)
    B = np.stack([np.ones_like(xs), xs], axis=1)
    coeffs, err = sup_fit(B, xs**2)
    assert err == pytest.approx(0.5, abs=1e-6)
    assert coeffs[0] == pytest.approx(0.5, abs=1e-5)


def _full_lp_error(basis, values):
    """Sup error of one HiGHS solve over all 2m rows, tolerances at 1e-10."""
    m, p = basis.shape
    cost = np.zeros(p + 1)
    cost[-1] = 1.0
    ones = np.ones((m, 1))
    res = linprog(cost, A_ub=np.block([[basis, -ones], [-basis, -ones]]),
                  b_ub=np.concatenate([values, -values]), bounds=[(None, None)] * (p + 1),
                  method="highs", options={"primal_feasibility_tolerance": 1e-10,
                                           "dual_feasibility_tolerance": 1e-10})
    assert res.success
    return float(np.max(np.abs(values - basis @ res.x[:p])))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sup_fit_monomial_chebyshev_error(n):
    # x^n - 2^{1-n} T_n(x) is the best approximation by degree < n, and the
    # grid holds the n + 1 extrema of T_n, so the discrete error is 2^{1-n}
    xs = np.union1d(np.linspace(-1.0, 1.0, 2001), np.cos(np.pi * np.arange(n + 1) / n))
    basis = np.stack([xs**j for j in range(n)], axis=1)
    coeffs, err = sup_fit(basis, xs**n)
    assert err == pytest.approx(2.0 ** (1 - n), rel=1e-12)
    cheb = np.polynomial.chebyshev.cheb2poly([0] * n + [1])
    assert np.allclose(coeffs, -(2.0 ** (1 - n)) * cheb[:n], atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(p=st.integers(1, 5), m=st.integers(1, 4000), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-9, 1e-3, 1.0, 1e3]))
@example(p=3, m=156, seed=3, scale=1.0)  # HiGHS alone ends 2.4e-12 above the optimum
def test_sup_fit_matches_full_lp(p, m, seed, scale):
    m = max(m, p + 1)
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, m)
    basis = np.stack([x**j for j in range(p)], axis=1) + 0.1 * rng.standard_normal((m, p))
    values = scale * (np.sin(3.0 * x) + 0.5 * rng.standard_normal(m))
    coeffs, err = sup_fit(basis, values)
    assert err == float(np.max(np.abs(values - basis @ coeffs)))
    tol = 1e-12 * max(1.0, float(np.max(np.abs(values))))
    assert err <= _full_lp_error(basis, values) + tol


def test_sup_fit_rank_deficient_basis():
    xs = np.linspace(-1, 1, 3001)
    full = np.stack([np.ones_like(xs), xs, 2.0 * xs], axis=1)
    coeffs, err = sup_fit(full, xs**2)
    assert err == pytest.approx(0.5, rel=1e-12)
    assert err == float(np.max(np.abs(xs**2 - full @ coeffs)))
    assert np.all(np.isfinite(coeffs))


def _no_linprog(*args, **kwargs):
    raise AssertionError("linprog called")


def _stall_gap(monkeypatch, B, values, rows, stall):
    """The gap and tol in the ValueError of sup_fit(B, values), which must
    name the rows and how the exchange stalled; scipy's LP is patched to fail
    the test if anything calls it."""
    monkeypatch.setattr(scipy.optimize, "linprog", _no_linprog)
    with pytest.raises(ValueError) as info:
        sup_fit(B, values)
    found = re.fullmatch(rf"sup-norm fit over {rows} rows: the exchange stalled {stall}, "
                         r"gap (\S+) > tol (\S+)", str(info.value))
    assert found, str(info.value)
    return float(found[1]), float(found[2])


def test_sup_fit_raises_when_the_exchange_stalls(monkeypatch):
    # with no exchange allowed, the gap is the least-squares residual's max
    xs = np.linspace(-1, 1, 401)
    B = np.stack([np.ones_like(xs), xs], axis=1)
    monkeypatch.setattr(fitting, "_MAX_EXCHANGES", 0)
    gap, tol = _stall_gap(monkeypatch, B, xs**2, 401, "after 0 exchanges")
    lsq = np.linalg.lstsq(B, xs**2, rcond=None)[0]
    assert gap == pytest.approx(np.max(np.abs(xs**2 - B @ lsq)), rel=1e-3) and gap > tol


def test_sup_fit_raises_at_a_singular_reference(monkeypatch):
    # 33 rows on at most 8 distinct abscissae with a degree-7 basis: the
    # data are interpolated, and the exchange meets a singular reference
    # [B_J, sigma] with its gap at rounding level (8.3e-25), still above tol
    rng = np.random.default_rng(4)
    x = np.sort(rng.uniform(-1, 1, 33))
    X = x[rng.integers(0, 8, 33)]
    gap, tol = _stall_gap(monkeypatch, np.vander(X, 8, increasing=True), np.sin(5 * X), 33,
                          "at a singular reference")
    assert tol < gap < 1e-20


def test_sup_fit_raises_on_an_unforced_stall(monkeypatch):
    # 30 rows on 7 distinct abscissae with a degree-6 basis and noisy data:
    # the exchange runs out of steps with nothing forced, 3.5e-13 above its
    # dual bound against a tol of 1.8e-13
    rng = np.random.default_rng(6)
    xs = np.sort(rng.uniform(-1, 1, 7))
    x = xs[rng.integers(0, 7, 30)]
    v = np.sin(5 * x) + 0.1 * rng.standard_normal(30)
    gap, tol = _stall_gap(monkeypatch, np.vander(x, 7, increasing=True), v, 30,
                          "after 100 exchanges")
    assert tol < gap < 1e-12


@pytest.mark.parametrize("basis, values", [
    (np.ones(5), np.ones(5)),
    (np.ones((5, 2, 1)), np.ones(5)),
    (np.ones((5, 2)), np.ones(4)),
    (np.ones((5, 2)), np.ones((5, 1))),
    (np.ones((5, 2)), np.array([1.0, 2.0, np.nan, 4.0, 5.0])),
    (np.ones((5, 2)), np.array([1.0, 2.0, np.inf, 4.0, 5.0])),
    (np.array([[1.0, 0.0]] * 4 + [[1.0, -np.inf]]), np.ones(5)),
])
@pytest.mark.parametrize("method", ["lp", "lawson"])
def test_sup_fit_rejects_malformed_input(basis, values, method):
    with pytest.raises(ValueError):
        sup_fit(basis, values, method=method)


def test_sup_fit_rejects_any_method_but_lp():
    # "lp" is the one method: a well-formed fit asked for "lawson" is refused
    xs = np.linspace(-1, 1, 21)
    with pytest.raises(ValueError, match="'lawson'"):
        sup_fit(np.stack([np.ones_like(xs), xs], axis=1), xs**2, method="lawson")


@pytest.fixture(scope="module")
def kinked_state():
    problem, mesh = kinked_trace_problem(0.6, 0.5, mx=80, my=40)
    return solve_extension(problem, mesh)


@pytest.mark.parametrize("case", [2, 3])
def test_exchange_certifies_degenerate_references(monkeypatch, kinked_state, case):
    # decay regions: x symmetric about 0, so the rows of [1, x] repeat on every
    # z level, and case 3 adds the h(z) column; the exchange must finish on its
    # own (no LP fallback) with E <= h + tol and E <= the full LP's error + tol
    monkeypatch.setattr(fitting, "linprog", _no_linprog)
    levels = []
    exchange = fitting._exchange

    def spy(*args):
        found = exchange(*args)
        levels.append(found[1])
        return found

    monkeypatch.setattr(fitting, "_exchange", spy)
    geom = MAGeometry(kinked_state.s)
    for j in range(6):
        X, Z, V = _region(kinked_state, 0.5**j, case)
        basis = _case_basis(case, X, Z, geom)
        coeffs, err = sup_fit(basis, V)
        tol = 1e-12 * max(1.0, float(np.max(np.abs(V))))
        assert err <= levels[-1] + tol
        assert err <= _full_lp_error(basis, V) + tol


@settings(max_examples=200, deadline=None)
@given(s=st.floats(0.05, 0.95), case=st.sampled_from([1, 2, 3]), nx=st.integers(7, 40),
       nz=st.integers(4, 20), random_x=st.booleans(), grading=st.floats(1.0, 4.0),
       stride=st.integers(1, 3), shape=st.sampled_from(["smooth", "kinked", "noisy"]),
       scale=st.sampled_from([1e-8, 1e-3, 1.0, 1e3]), seed=st.integers(0, 2**32 - 1))
def test_exchange_certifies_package_bases(s, case, nx, nz, random_x, grading, stride, shape,
                                          scale, seed):
    # the bases the decay fits and Campanato's iteration build, on tensor
    # (x, z) node sets thinned by a stride as `_region` thins them: the
    # exchange ends on its certificate h <= E_opt <= E <= h + tol, no stall
    geom = MAGeometry(s)
    rng = np.random.default_rng(seed)
    xs = np.sort(rng.uniform(-1.0, 1.0, nx)) if random_x else np.linspace(-1.0, 1.0, nx)
    zs = (np.arange(nz) / (nz - 1)) ** grading
    Z, X = (a.ravel()[::stride] for a in np.meshgrid(zs, xs, indexing="ij"))
    V = np.abs(X) ** 0.6 + geom.h(Z) if shape == "kinked" else np.sin(3.0 * X) + np.cos(2.0 * Z)
    if shape == "noisy":
        V = V + 0.1 * rng.standard_normal(len(V))
    V = scale * V
    certified = []
    exchange = fitting._exchange

    def spy(B, r, tol, rows):
        y, h = exchange(B, r, tol, rows)
        certified.append((h, tol))
        return y, h

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fitting, "_exchange", spy)
        coeffs, err = sup_fit(_case_basis(case, X, Z, geom), V)
    for h, tol in certified:
        assert h <= err + tol and err <= h + tol


def _assert_fitter_matches_fresh_fits(basis, value_list):
    """One sup_fitter(basis) over every vector, then a fresh sup_fit for each:
    the same coefficients and error, bit for bit."""
    fit = fitting.sup_fitter(basis)
    reused = [fit(values) for values in value_list]
    for values, (coeffs, err) in zip(value_list, reused):
        fresh_coeffs, fresh_err = sup_fit(basis, values)
        assert np.array_equal(coeffs, fresh_coeffs) and err == fresh_err


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 60), p=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
       shape=st.sampled_from(["full", "zero column", "dependent column", "m <= rank"]))
@example(m=1, p=1, seed=0, shape="full")
@example(m=40, p=3, seed=1, shape="dependent column")
def test_sup_fitter_reused_equals_fresh_sup_fits(m, p, seed, shape):
    # random bases, with a zero or a dependent column, or no more rows than
    # the rank (the least-squares fit is returned); the zero vector has a
    # zero least-squares residual
    rng = np.random.default_rng(seed)
    m = min(m, p) if shape == "m <= rank" else max(m, p + 1)
    x = rng.uniform(-1.0, 1.0, m)
    basis = np.stack([x**j for j in range(p)], axis=1) + 0.1 * rng.standard_normal((m, p))
    if shape == "zero column":
        basis[:, rng.integers(p)] = 0.0
    elif shape == "dependent column" and p > 1:
        basis[:, -1] = 2.0 * basis[:, 0] - basis[:, p // 2]
    value_list = [np.sin(3.0 * x) + 0.5 * rng.standard_normal(m), np.zeros(m),
                  np.abs(x) ** 0.7, 1e-6 * rng.standard_normal(m)]
    _assert_fitter_matches_fresh_fits(basis, value_list)


def _sup_fitter_reference(basis):
    """sup_fitter as scipy.linalg.qr's default mode ran it: the basis scaled
    in its own memory order, both pivoted QRs in mode "r" on copies LAPACK
    may not overwrite, with finiteness checks, and B = B[:, keep]."""
    from scipy.linalg import qr

    basis = np.asarray(basis, dtype=float)
    m = basis.shape[0]
    col = np.max(np.abs(basis), axis=0)
    col[col == 0.0] = 1.0
    B = basis / col
    R, perm = qr(B, mode="r", pivoting=True)
    diag = np.abs(np.diag(R))
    rank = np.sum(diag > np.finfo(float).eps * max(B.shape) * np.max(diag, initial=0.0))
    keep = np.sort(perm[:rank])
    B = B[:, keep]
    rows = qr(B.T, mode="r", pivoting=True)[1][:rank] if 0 < rank < m else None

    def fit(values):
        coeffs, *_ = np.linalg.lstsq(basis, values, rcond=None)
        r = values - basis @ coeffs
        if np.max(np.abs(r)) > 0.0 and rows is not None:
            tol = 1e-12 * min(max(1.0, float(np.max(np.abs(values)))), float(np.max(np.abs(r))))
            coeffs[keep] += fitting._exchange(B, r, tol, rows)[0] / col[keep]
        return coeffs, float(np.max(np.abs(values - basis @ coeffs)))

    return fit


def _fit_or_message(fit, values):
    try:
        return fit(values)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(m=st.integers(1, 300), q=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["gaussian", "vandermonde", "repeated rows", "dependent column",
                             "zero column"]),
       order=st.sampled_from(["C", "F"]))
@example(m=30, q=6, seed=25, kind="repeated rows", order="C")  # stalls after 100 exchanges
@example(m=33, q=6, seed=25, kind="repeated rows", order="F")  # stalls at a singular reference
@example(m=60, q=6, seed=12, kind="repeated rows", order="C")  # a C-ordered B moves its bits
@example(m=40, q=1, seed=0, kind="gaussian", order="C")
def test_sup_fitter_equals_the_default_mode_qr_path(m, q, seed, kind, order):
    # the column-major basis work and raw-mode QRs move no bit: coefficients,
    # errors and stall messages equal the default-mode path's, for C- and
    # F-ordered bases, and the caller's basis is left as it was (for q = 1
    # basis.T is contiguous already, and scaling it in place would write
    # through to the caller)
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, m)
    if kind == "repeated rows":  # on q abscissae, where the exchange can stall
        x = x[rng.integers(0, min(q, m), m)]
    basis = (rng.standard_normal((m, q)) if kind == "gaussian"
             else np.vander(x, q, increasing=True))
    if kind == "dependent column" and q > 1:
        basis[:, -1] = 2.0 * basis[:, 0] - basis[:, q // 2]
    elif kind == "zero column":
        basis[:, rng.integers(q)] = 0.0
    basis = np.array(basis, order=order)
    before = basis.copy(order="K")  # the layout sets the bits of basis @ coeffs
    values = np.sin(5.0 * x) + 0.1 * rng.standard_normal(m)
    found = _fit_or_message(fitting.sup_fitter(basis), values)
    expected = _fit_or_message(_sup_fitter_reference(before), values)
    if isinstance(expected, str):
        assert found == expected
    else:
        assert np.array_equal(found[0], expected[0]) and found[1] == expected[1]
    assert np.array_equal(basis, before)


def test_fit_counts_of_a_decay_ladder_and_a_campanato_run(kinked_state):
    # the fit work of the degenerate case-3 ladder and zoom, counted inside
    # the fit sup_fitter returns: one basis per decay scale, one for the
    # whole Campanato run
    def fit_counts(measure):
        with obs.recording() as counts:
            measure()
        return {k: v for k, v in counts.items() if k.startswith("fitting.")}

    assert fit_counts(lambda: schauder_decay(kinked_state, 3)) == {
        "fitting.bases": 8, "fitting.fits": 8, "fitting.fit_rows": 9748,
        "fitting.exchange_steps": 62}
    assert fit_counts(lambda: campanato_iterate(kinked_state, 3, alpha=0.5)) == {
        "fitting.bases": 1, "fitting.fits": 8, "fitting.fit_rows": 30400,
        "fitting.exchange_steps": 70}


def _region_reference(state, geom, r, case):
    """_region as a selection from the whole grid: np.nonzero of the
    cylinder's node mask, then every stride-th node."""
    xs, zs = state.x_axes[0], state.z_nodes
    inside = _decay_cylinder(r, case).contains(geom, xs[None, :], zs[:, None])
    if inside.any(axis=0).sum() < 7 or inside.any(axis=1).sum() < 4:
        return None
    iz, ix = np.nonzero(inside)
    X, Z, V = xs[ix], zs[iz], state.values[iz, ix]
    if len(V) > 6000:
        stride = int(np.ceil(len(V) / 6000))
        X, Z, V = X[::stride], Z[::stride], V[::stride]
    return X, Z, V


@pytest.mark.parametrize("nx, my", [(81, 40), (201, 60), (401, 120)])
@pytest.mark.parametrize("case", [1, 2, 3])
def test_region_equals_the_full_grid_selection(nx, my, case):
    # the larger grids put more than 6000 nodes in the widest cylinders,
    # so the stride thins them
    s = 0.45
    rng = np.random.default_rng(nx + case)
    zs = MAGeometry(s).section_interval(0.0, 1.0)[1] * (np.arange(my + 1) / my) ** 3
    state = ExtensionState(s, [np.linspace(-1.5, 1.5, nx)], transform_to_y(zs, s),
                           rng.standard_normal((my + 1, nx)), 0.0, 0.0)
    scales = 0
    for j in range(10):
        found = _region(state, 0.5**j, case)
        expected = _region_reference(state, state.geom, 0.5**j, case)
        if expected is None:
            assert found is None
            break
        assert all(np.array_equal(a, b) for a, b in zip(found, expected))
        scales += 1
    assert scales >= 3


@settings(max_examples=12, deadline=None)
@given(case=st.sampled_from([2, 3]), j=st.integers(0, 5), seed=st.integers(0, 2**16))
def test_sup_fitter_on_decay_regions_equals_fresh_sup_fits(kinked_state, case, j, seed):
    # the degenerate bases of the decay fits: rows of [1, x] repeat on every
    # z level, and case 3 adds x^2 / 2 and h(z)
    geom = MAGeometry(kinked_state.s)
    X, Z, V = _region(kinked_state, 0.5**j, case)
    noise = np.random.default_rng(seed).standard_normal(len(V))
    _assert_fitter_matches_fresh_fits(_case_basis(case, X, Z, geom),
                                      [V, V - V.mean(), V + 1e-3 * noise, np.sin(5.0 * X) * V])


def test_decay_region_excludes_the_mesh_row_on_the_section_boundary():
    # grading 3 and h(Z) = 1 give h(z_j) = (j/my)^6, so row 70 of the
    # default 260x140 kinked mesh lies on the boundary of S_{4^-3} at scale 3:
    # z_70 is the section endpoint to the last bit and the strict rule leaves
    # it out.  Taking it in moves the default config's exponent from 1.4722
    # to 1.4830; this pins today's decision until the rule for boundary rows
    # is settled.
    cfg = default_config("schauder-decay")
    s, prob = cfg.data["setup"]["s"], cfg.data["problem"]
    problem, mesh = kinked_trace_problem(s, cfg.data["setup"]["alpha"], prob["mx"], prob["my"])
    assert (prob["mx"], prob["my"], prob["case"]) == (260, 140, 2)
    state = solve_extension(problem, mesh)
    geom = MAGeometry(s)
    zs = state.z_nodes
    assert zs[70] == geom.section_interval(0.0, 4.0**-3)[1]
    X, Z, V = _region(state, 0.5**3, 2)
    assert np.array_equal(np.unique(Z), zs[:70])


def _campanato_reference(state, case, alpha, rho, depth, fit_mesh):
    """campanato_iterate as a loop that samples the zoomed state on the whole
    fit grid, selects the fit region and calls sup_fit afresh at every step."""
    s = state.s
    geom = MAGeometry(s)
    gam = alpha + 2.0 * s
    xw = np.sqrt(2.0) * rho * 1.02
    zcap = rho**2 if case in (1, 2) else rho**3
    Zfit = geom.section_interval(0.0, zcap)[1] * 1.02
    dx0 = float(np.min(np.diff(state.x_axes[0])))
    zs = transform_to_z(fit_mesh.y_nodes(transform_to_y(Zfit, s), s), s)
    Zg, Xg = np.meshgrid(zs, fit_mesh.x_axes((-xw, xw), 1)[0], indexing="ij")
    c = b = A = d = 0.0
    coefficients, errors = [], []
    for k in range(depth):
        if rho**k * xw < 4.0 * dx0 / np.sqrt(2.0):
            break
        V = state.values_at(rho**k * Xg, (rho**k) ** (2 * s) * Zg)
        X, Z = Xg.ravel(), Zg.ravel()
        member = (0.5 * X**2 < rho**2) & (geom.h(Z) < zcap)
        X, Z, W = X[member], Z[member], V.ravel()[member]
        Xo, Zo = rho**k * X, rho ** (2 * s * k) * Z
        Pk = c + b * Xo + 0.5 * A * Xo**2 + d * geom.h(Zo)
        theta, err = sup_fit(_case_basis(case, X, Z, geom), (W - Pk) / rho ** (k * gam))
        errors.append(float(err))
        theta = np.concatenate([theta, np.zeros(4 - len(theta))])
        c += rho ** (k * gam) * theta[0]
        b += rho ** (k * (gam - 1.0)) * theta[1]
        A += rho ** (k * (gam - 2.0)) * theta[2]
        d += rho ** (k * (gam - 2.0)) * theta[3]
        coefficients.append({"c": float(c), "b": float(b), "A": float(A), "d": float(d)})
    return coefficients, errors


@pytest.mark.parametrize("case", [1, 2, 3])
def test_campanato_equals_a_loop_of_fresh_fits(kinked_state, case):
    mesh = ExtensionMesh(nx=97, my=40, grading=3.0)
    rep = campanato_iterate(kinked_state, case, alpha=0.5, rho=0.5, depth=8)
    coefficients, errors = _campanato_reference(kinked_state, case, 0.5, 0.5, 8, mesh)
    assert rep.steps == len(coefficients) >= 2
    assert rep.coefficients == coefficients and rep.step_errors == errors


def test_kinked_decay_and_campanato_make_no_lp_call(monkeypatch, kinked_state):
    monkeypatch.setattr(fitting, "linprog", _no_linprog)
    for case in (2, 3):
        assert len(schauder_decay(kinked_state, case, rho=0.5, depth=6).scales) >= 4
        assert campanato_iterate(kinked_state, case, alpha=0.5, rho=0.5, depth=4).steps >= 2


def test_holder_seminorm_basics():
    g = MAGeometry(0.5)
    x, z = _sample_points()
    c = np.full_like(x, 3.0)
    assert holder_seminorm(g, x, z, c, 0.8) == 0.0
    u = np.sin(2 * x) + z
    s1 = holder_seminorm(g, x, z, u, 0.8)
    # homogeneity and shift invariance
    assert holder_seminorm(g, x, z, 2.5 * u, 0.8) == pytest.approx(2.5 * s1, rel=1e-12)
    assert holder_seminorm(g, x, z, u + 7.0, 0.8) == pytest.approx(s1, rel=1e-12)
    with pytest.raises(ValueError):
        holder_seminorm(g, x, z, u, 2.5)


def test_holder_seminorm_linear_in_x():
    # U = x with beta = 1: the quotient is maximized along z = z' lines at sqrt(2)
    g = MAGeometry(0.5)
    xg, zg = np.meshgrid(np.linspace(-1, 1, 30), np.linspace(-0.5, 0.5, 20),
                         indexing="ij")
    x, z = xg.ravel(), zg.ravel()
    val = holder_seminorm(g, x, z, x.copy(), 1.0)
    assert val == pytest.approx(np.sqrt(2.0), rel=1e-9)


def test_holder_seminorm_delta_power():
    # U = delta_Phi(0, .)^(beta/2): pairs through the origin give exactly 1
    g = MAGeometry(0.75)
    beta = 0.9
    x, z = _sample_points(300, seed=1)
    x[0], z[0] = 0.0, 0.0
    delta0 = g.delta_phi(0.0, x) + g.delta_h(0.0, z)
    u = delta0 ** (beta / 2.0)
    val = holder_seminorm(g, x, z, u, beta)
    assert val >= 1.0 - 1e-9
    assert val < 10.0  # bounded by the quasi-triangle inflation


def _dense_holder_seminorm(g, x, z, v, beta):
    """holder_seminorm over the full ordered-pair matrix at once."""
    x = x.reshape(len(v), -1)
    diff = x[:, None, :] - x[None, :, :]
    delta = 0.5 * np.sum(diff * diff, axis=-1) + (
        g.h(z)[None, :] - g.h(z)[:, None] - g.hp(z)[:, None] * (z[None, :] - z[:, None]))
    mask = delta > 1e-300
    return float(np.max(np.abs(v[None, :] - v[:, None])[mask] / delta[mask] ** (beta / 2.0)))


@pytest.mark.parametrize("n", [1, 2])
def test_holder_seminorm_equals_dense_pairwise_max(n):
    # more than 1,414 nodes (2e6 ordered pairs), where a stride subsample
    # gave a lower bound: 1.4318 for 1.4342 on the 1-D kinked state
    if n == 1:
        g = MAGeometry(0.4)
        problem, mesh = kinked_trace_problem(0.4, 0.5, mx=40, my=24)
        x, z, v = solve_extension(problem, mesh).node_points()
    else:
        g = MAGeometry(0.7)
        rng = np.random.default_rng(3)
        x, z = rng.uniform(-1.0, 1.0, (1500, 2)), rng.uniform(0.0, 1.0, 1500)
        v = np.abs(x[:, 0]) ** 0.5 + np.sin(3.0 * x[:, 1]) * z
    assert len(v) > 1414
    assert holder_seminorm(g, x, z, v, 0.5) == _dense_holder_seminorm(g, x, z, v, 0.5)


def test_harnack_run_with_overflowing_modes_errors_instead_of_reporting_nan(tmp_path):
    # on a large S_R the mode profiles overflow, and cos * inf would sum to
    # NaN; RuntimeWarnings are errors here, so the refusal comes first
    for R in (1e10, 1e300):
        cfg = validate({"experiment": "harnack", "setup": {"s": 0.4},
                        "problem": {"R": R, "family_size": 2, "nx": 17, "my": 8}})
        stage = run(cfg, str(tmp_path)).stages[0]
        assert stage["status"] == "error"
        assert stage["details"]["exception"].startswith(f"ValueError('R = {R:g} is too large")


@pytest.mark.parametrize("R", [2.0, 5.0, 20.0, 100.0])
def test_harnack_run_with_a_section_beyond_the_family_box_names_R(tmp_path, R):
    # the family is positive on h(z) <= 1 only; a larger S_R makes a member
    # negative there, and the error names R and that box, not only the sign
    cfg = validate({"experiment": "harnack", "setup": {"s": 0.4},
                    "problem": {"R": R, "family_size": 6, "nx": 33, "my": 16}})
    stage = run(cfg, str(tmp_path)).stages[0]
    assert stage["status"] == "error"
    assert re.match(rf"ValueError\('R = {R:g} is too large: family member \d+ is negative on "
                    r"S_R, .* positive only on the box h\(z\) <= 1, y <= 1.549'\)$",
                    stage["details"]["exception"])


def test_harnack_quotient_constants_and_perturbation():
    s = 0.5
    xs = np.linspace(-1.5, 1.5, 41)
    zs = np.concatenate([[0.0], np.geomspace(1e-3, 1.5, 30)])
    y = transform_to_y(zs, s)
    ones = np.ones((len(zs), len(xs)))
    state = ExtensionState(s, [xs], y, 2.0 * ones, 0.0, 0.0)
    rep = harnack_quotient(state, (0.0, 0.0), 0.5)
    assert rep.quotient == 1.0
    # small harmonic perturbation: quotient tends to 1
    quots = []
    for amp in (0.2, 0.02):
        combo = HarmonicCombo(s, const=1.0, modes=[(amp, 1.0, 0.3)])
        vals = np.broadcast_to(combo(xs[None, :], zs[:, None] * np.ones_like(xs)),
                               ones.shape)
        st = ExtensionState(s, [xs], y, vals, 0.0, 0.0)
        quots.append(harnack_quotient(st, (0.0, 0.0), 0.5).quotient)
    assert quots[0] > quots[1] >= 1.0
    assert quots[1] < 1.05
    # negative inputs are rejected
    bad = ExtensionState(s, [xs], y, ones - 2.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        harnack_quotient(bad, (0.0, 0.0), 0.5)


def test_harnack_family_stability():
    s = 0.75
    family = positive_harmonic_family(s, 6, seed=3)
    rep1 = harnack_family_report(s, family, 65, 32)
    rep2 = harnack_family_report(s, family, 65, 32, refine=2)
    assert rep1["min_quotient"] >= 1.0 - 1e-9
    assert abs(rep2["C_H_hat"] - rep1["C_H_hat"]) <= 0.2 * rep1["C_H_hat"]


def test_harnack_family_report_takes_the_two_counts_it_samples():
    # the C_H_hat and min_quotient that an ExtensionMesh(nx=65, my=32), of
    # which the report read only nx and my, gave at s = 0.3 and 0.75
    expected = {(0.3, 1): (1.2530125147621212, 1.0629800683369175),
                (0.3, 2): (1.25684322872563, 1.0824460126387971),
                (0.75, 1): (1.271087761737256, 1.1574778985747753),
                (0.75, 2): (1.2739467245118539, 1.1607919199980483)}
    for (s, refine), values in expected.items():
        family = positive_harmonic_family(s, 6, seed=3)
        rep = harnack_family_report(s, family, 65, 32, refine=refine)
        assert (rep["C_H_hat"], rep["min_quotient"]) == values


def test_harnack_family_report_refuses_a_member_at_another_s():
    # a family built at s = 0.7 and reported at s = 0.3 mixed the two
    # geometries and gave a C_H_hat without an error
    family = positive_harmonic_family(0.3, 3, seed=1)
    family[2] = positive_harmonic_family(0.7, 1, seed=1)[0]
    with pytest.raises(ValueError, match=re.escape(
            "family member 2 has s = 0.7, not the report's 0.3")):
        harnack_family_report(0.3, family, 33, 16)
    harnack_family_report(0.3, family[:2], 33, 16)


@pytest.mark.parametrize("s", [0.3, 0.7])
def test_state_entry_points_read_the_state_geometry_in_2d(s):
    # a 2-D state's geometry has n = 2: harnack_quotient and
    # holder_seminorm_state give the bits of the n = 2 sections on its nodes
    rng = np.random.default_rng(7)
    xs, ys = np.linspace(-1.0, 1.0, 9), np.linspace(-0.8, 0.8, 7)
    zs = np.concatenate([[0.0], np.geomspace(1e-2, 1.0, 5)])
    state = ExtensionState(s, [xs, ys], transform_to_y(zs, s),
                           rng.uniform(0.5, 2.0, (6, 9, 7)), 0.0, 0.0)
    geom = MAGeometry(s, n=2)
    assert (state.geom.s, state.geom.n) == (s, 2)
    x, z, v = state.node_points()
    center, R = ((0.1, -0.2), 0.2), 0.8
    assert (harnack_quotient(state, center, R)
            == _HarnackSections(geom, x, z, center, R, 0.5).report(v))
    member = SectionDescriptor(*center, R).contains(geom, x, z)
    assert 1 < member.sum() < len(v)
    assert (holder_seminorm_state(state, center, R, 0.5)
            == holder_seminorm(geom, x[member], z[member], v[member], 0.5))


def test_harnack_report_keeps_the_whole_x_center():
    # a 2-D report names its section's x-center; a 1-D one keeps its float
    s = 0.5
    xs, ys = np.linspace(-1.0, 1.0, 9), np.linspace(-0.8, 0.8, 7)
    zs = np.concatenate([[0.0], np.geomspace(1e-2, 1.0, 5)])
    values = np.random.default_rng(3).uniform(0.5, 2.0, (6, 9, 7))
    state = ExtensionState(s, [xs, ys], transform_to_y(zs, s), values, 0.0, 0.0)
    rep = harnack_quotient(state, ((0.1, -0.2), 0.2), 0.8)
    assert rep.center_x == (0.1, -0.2) and rep.center_z == 0.2
    line = ExtensionState(s, [xs], transform_to_y(zs, s), values[:, :, 3], 0.0, 0.0)
    for cx in (0.1, (0.1,), np.array([0.1])):
        rep = harnack_quotient(line, (cx, 0.2), 0.8)
        assert type(rep.center_x) is float and rep.center_x == 0.1


def _family_profile_per_mode(s, size, seed):
    """positive_harmonic_family with the box-top profile evaluated for every
    member and mode."""
    rng = np.random.default_rng(seed)
    ycap = harmonic_family_ycap(s)
    family = []
    for _ in range(size):
        nmodes = int(rng.integers(1, 4))
        ks = rng.integers(1, 4, nmodes)
        phases = rng.uniform(0.0, 2.0 * np.pi, nmodes)
        raw = rng.uniform(0.2, 1.0, nmodes)
        growth = sum(r * harmonic_mode_profile(s, k, ycap) for r, k in zip(raw, ks))
        family.append(HarmonicCombo(s, const=1.0,
                                    modes=list(zip(0.9 * raw / growth, ks.astype(float), phases))))
    return family


@pytest.mark.parametrize("s, size, seed", [(0.05, 20, 0), (0.4, 1, 7), (0.75, 12, 3),
                                           (0.95, 5, 11)])
def test_harmonic_family_profiles_once_per_wave_number(s, size, seed):
    family = positive_harmonic_family(s, size, seed=seed)
    reference = _family_profile_per_mode(s, size, seed)
    assert [(c.const, c.modes) for c in family] == [(c.const, c.modes) for c in reference]
    if size == 1:  # the sliding fixture's one member
        xs, zs, U = sliding_fixture(MAGeometry(s), "harmonic", 21, 17, seed=seed)
        assert np.array_equal(U, reference[0](xs[:, None], zs[None, :]))


def _even_reflection(state):
    """(x, z, v): the nodes of a 1-D state and, for z > 0, their mirrors
    (x, -z) with the same values: the even reflection across z = 0."""
    Z, X = (a.ravel() for a in np.meshgrid(state.z_nodes, state.x_axes[0], indexing="ij"))
    V = state.values.ravel()
    up = Z > 0.0
    return np.concatenate([X, X[up]]), np.concatenate([Z, -Z[up]]), np.concatenate([V, V[up]])


@pytest.mark.parametrize("s, R, kappa, refine", [(0.3, 0.5, 0.5, 1), (0.75, 0.3, 0.4, 2),
                                                 (0.5, 1.0, 0.6, 1)])
def test_harnack_family_half_grid_equals_the_reflected_grid(s, R, kappa, refine):
    # each member's report is the quotient over the reflected grid, levels
    # -z and z, which the family report reduces on z >= 0 only
    family = positive_harmonic_family(s, 8, seed=5)
    rep = harnack_family_report(s, family, 33, 16, kappa=kappa, R=R, refine=refine)
    geom = MAGeometry(s)
    nx, my = 32 * refine + 1, 16 * refine
    xs = np.linspace(-np.sqrt(2.0 * R) * 1.05, np.sqrt(2.0 * R) * 1.05, nx)
    zcap = geom.section_interval(0.0, R)[1] * 1.05
    ys = transform_to_y(np.concatenate([[0.0], np.geomspace(zcap * 1e-3, zcap, my)]), s)
    for combo, got in zip(family, rep["reports"]):
        state = ExtensionState(s, [xs], ys, combo.at_y(xs[None, :], ys[:, None]), 0.0, 0.0)
        x, z, v = _even_reflection(state)
        assert got == _HarnackSections(geom, x, z, (0.0, 0.0), R, kappa).report(v)


def _value_or_error(fn):
    try:
        return fn()
    except ValueError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(s=st.floats(0.05, 0.95), x0=st.floats(-1.0, 1.0),
       z0=st.one_of(st.just(0.0), st.floats(0.0, 1.0)), R=st.floats(0.03, 3.0),
       kappa=st.floats(0.1, 0.9), beta=st.floats(0.1, 1.9), seed=st.integers(0, 2**32 - 1))
def test_even_reflection_changes_no_harnack_or_holder_value(s, x0, z0, R, kappa, beta, seed):
    # for z0 >= 0 and t > 0, delta_h(z0, -t) = delta_h(z0, t) + 2 h'(z0) t, so
    # a mirrored node lies in a section only if its twin does; and no pair
    # across z = 0 has a larger Hoelder quotient than its twin pair, so the
    # half-space state gives the reflection's values bit for bit
    geom = MAGeometry(s)
    rng = np.random.default_rng(seed)
    xs = np.linspace(-2.0, 2.0, 25)
    zs = np.concatenate([[0.0], np.geomspace(1e-3, 2.0, 12)])
    state = ExtensionState(s, [xs], transform_to_y(zs, s),
                           rng.uniform(0.5, 2.0, (len(zs), len(xs))), 0.0, 0.0)
    x, z, v = _even_reflection(state)
    center = (x0, z0)
    assert (_value_or_error(lambda: harnack_quotient(state, center, R, kappa))
            == _value_or_error(lambda: _HarnackSections(geom, x, z, center, R, kappa).report(v)))
    member = SectionDescriptor(x0, z0, R).contains(geom, x, z)
    half = _value_or_error(lambda: holder_seminorm_state(state, center, R, beta))
    assert half == (holder_seminorm(geom, x[member], z[member], v[member], beta)
                    if member.any() else "section S_R contains no grid nodes")


def test_holder_seminorm_state_refuses_a_section_without_nodes():
    s = 0.5
    xs = np.linspace(-1.0, 1.0, 9)
    ys = transform_to_y(np.linspace(0.0, 1.0, 6), s)
    state = ExtensionState(s, [xs], ys, np.ones((6, 9)), 0.0, 0.0)
    with pytest.raises(ValueError, match="section S_R contains no grid nodes"):
        holder_seminorm_state(state, (5.0, 0.0), 0.01, 0.5)


@pytest.mark.parametrize("kappa", [2.0, 1.0, 0.0, -0.5, np.nan])
def test_harnack_refuses_kappa_outside_the_unit_interval(kappa):
    # kappa = 2 used to give a quotient over S_{2R}, where nonnegativity was
    # never checked, and kappa = nan to report an S_{kappa R} without nodes
    s, R = 0.4, 0.5
    family = positive_harmonic_family(s, 2, seed=5)
    xs = np.linspace(-1.2, 1.2, 21)
    ys = transform_to_y(np.concatenate([[0.0], np.geomspace(1e-3, 1.0, 10)]), s)
    state = ExtensionState(s, [xs], ys, family[0].at_y(xs[None, :], ys[:, None]), 0.0, 0.0)
    match = re.escape(f"Harnack kappa must lie in (0, 1), got {kappa!r}")
    with pytest.raises(ValueError, match=match):
        harnack_quotient(state, (0.0, 0.0), R, kappa)
    with pytest.raises(ValueError, match=match):
        harnack_family_report(s, family, 21, 10, kappa=kappa, R=R)


def test_approximation_distance_monotone():
    s = 0.5
    mesh = ExtensionMesh(nx=97, my=40)
    dists = [approximation_distance(s, e, mesh) for e in (1e-1, 1e-2, 1e-3)]
    assert dists[0] > dists[1] > dists[2]
    # identical problems at eps0 = 0
    assert approximation_distance(s, 0.0, mesh) < 1e-11


def test_schauder_decay_polynomial_exact():
    # exactly representable input: zero error at every scale, zero increments
    st = _polynomial_state(0.75, 3, mx=100, my=48)
    rep = schauder_decay(st, 3, rho=0.5, depth=6, noise_floor=0.0)
    assert max(row["E"] for row in rep.scales) < 1e-10
    assert all(d < 1e-9 for d in rep.increments["dc"][1:])
    assert all(d < 1e-9 for d in rep.increments["dd"][1:])


def test_schauder_decay_harmonic_saturation():
    # smooth harmonic input: the fitted exponent saturates at the order cap
    for s, case in ((0.25, 1), (0.5, 2)):
        combo = HarmonicCombo(s, const=0.3, modes=[(0.5, 1.0, 0.4), (0.2, 2.0, 1.1)])
        st = _synthetic_state(s, combo, mx=160, my=80)
        rep = schauder_decay(st, case, rho=0.5, depth=7, noise_floor=1e-13)
        assert rep.fitted_exponent >= case - 0.25


def test_schauder_report_serialization(tmp_path):
    cfg = validate({"experiment": "schauder-decay", "setup": {"s": 0.5},
                    "problem": {"benchmark": "polynomial", "case": 2, "mx": 60, "my": 32,
                                "depth": 4}})
    assert run(cfg, str(tmp_path)).stages[0]["status"] == "pass"
    data = json.loads((tmp_path / "decay_report.json").read_text())
    assert data["case"] == 2 and len(data["scales"]) == 5
    lines = (tmp_path / "decay_report.csv").read_text().splitlines()
    assert lines[0] == "j,r,nodes,sup_error"
    # float cells are repr(float): the CSV reads back to the JSON's numbers
    assert [[float(v) for v in line.split(",")] for line in lines[1:]] == \
        [[row["j"], row["r"], row["nodes"], row["E"]] for row in data["scales"]]


def test_campanato_polynomial_correctors_vanish():
    # case 1 with a constant input: interpolation is exact, correctors vanish
    st1 = _polynomial_state(0.25, 1, mx=80, my=40)
    rep1 = campanato_iterate(st1, 1, alpha=0.3, rho=0.5, depth=4)
    assert all(d < 1e-12 for d in rep1.increments["dc"][1:])
    assert rep1.limit["c"] == pytest.approx(0.37, abs=1e-12)
    # case 3: correctors after the first step sit at the interpolation floor
    st = _polynomial_state(0.75, 3, mx=100, my=48)
    rep = campanato_iterate(st, 3, alpha=0.7, rho=0.5, depth=5)
    assert all(d < 1e-4 for d in rep.increments["dc"][1:])
    assert rep.limit["c"] == pytest.approx(0.37, abs=1e-4)
    assert rep.limit["d"] == pytest.approx(-0.15, abs=1e-3)


def test_campanato_matches_direct_fit():
    s, case, alpha = 0.25, 1, 0.3
    combo = HarmonicCombo(s, const=0.3, modes=[(0.5, 1.0, 0.4)])
    st = _synthetic_state(s, combo, mx=160, my=80)
    rep = campanato_iterate(st, case, alpha=alpha, rho=0.5, depth=6)
    dec = schauder_decay(st, case, rho=0.5, depth=6, noise_floor=1e-13)
    tol = 2.0 * max(row["E"] for row in dec.scales)
    assert abs(rep.limit["c"] - dec.scales[-1]["coeffs"]["c"]) <= tol
    # the limit constant agrees with the trace value at the origin
    u00 = combo(np.array([0.0]), np.array([0.0]))[0]
    assert abs(rep.limit["c"] - u00) <= tol
    # geometric increments: |dc_k| <= D rho^{k(alpha+2s)} for a fitted finite D
    gam = alpha + 2 * s
    ratios = [d / 0.5 ** (k * gam) for k, d in enumerate(rep.increments["dc"])]
    assert np.isfinite(max(ratios))


def test_seminorm_scaling_covariance():
    # rescaling multiplies the geometry-adapted seminorm by rho^beta
    s, beta, rho = 0.6, 0.8, 0.5
    combo = HarmonicCombo(s, const=1.0, modes=[(0.4, 1.0, 0.2)])
    prob = harmonic_combo_problem(combo)
    st = solve_extension(prob, ExtensionMesh(nx=129, my=48))
    V = rescale_solution(st, rho)
    semi_V = holder_seminorm_state(V, (0.0, 0.1), 0.3, beta)
    # the same point pairs on the source live in the rho^2-scaled section;
    # the pullback keeps the values, so both seminorms see the same pairs
    semi_U_scaled = holder_seminorm_state(st, (0.0, rho ** (2 * s) * 0.1), rho**2 * 0.3, beta)
    assert semi_V > 0.0
    assert semi_V == rho**beta * semi_U_scaled


def test_interior_norm_report():
    xs = np.linspace(0, np.pi, 401)
    k = 2
    u = k ** (-1.0) * np.sin(k * xs)
    sub = (xs > 0.7) & (xs < 2.4)
    rep = interior_norm_report(xs, u, 1.5, sub, data_norm=2.0)
    # closed-form derivative: relies on u' = cos(2x); seminorm measured against
    # a dense pairwise oracle of the analytic derivative
    up = np.cos(k * xs)[sub]
    xss = xs[sub]
    diff = np.abs(up[:, None] - up[None, :])
    dist = np.abs(xss[:, None] - xss[None, :])
    m = dist > 0
    oracle = np.max(diff[m] / dist[m] ** 0.5)
    assert rep.order == 1
    assert rep.holder_seminorm == pytest.approx(oracle, rel=5e-3)
    assert np.isfinite(rep.ratio)
    # zero data: all norms vanish
    rep0 = interior_norm_report(xs, np.zeros_like(xs), 1.5, sub, data_norm=1.0)
    assert rep0.sup_u == 0.0 and rep0.holder_seminorm == 0.0


def test_interior_norm_report_refuses_grids_it_would_get_wrong():
    xs = np.linspace(0.0, 1.0, 41)
    u, sub = np.sin(xs), (xs > 0.2) & (xs < 0.8)
    # differences with the spacing xs[1] - xs[0] read a ratio of ~54 on x^2
    with pytest.raises(ValueError, match="uniform"):
        interior_norm_report(xs**2, u, 1.5, sub, data_norm=1.0)
    with pytest.raises(ValueError, match="uniform"):
        interior_norm_report(np.zeros_like(xs), u, 1.5, sub, data_norm=1.0)
    # a decreasing uniform grid is differenced correctly and stays allowed
    assert np.isfinite(interior_norm_report(xs[::-1], u, 1.5, sub, data_norm=1.0).ratio)
    with pytest.raises(ValueError, match="3 nodes"):
        interior_norm_report(xs[:2], u[:2], 1.5, sub[:2], data_norm=1.0)
    with pytest.raises(ValueError, match="sub_mask"):
        interior_norm_report(xs, u, 1.5, np.zeros_like(sub), data_norm=1.0)


def test_interior_norm_report_refuses_a_subdomain_of_one_node():
    # one node has no Hoelder pair: the ratio would have no Hoelder part
    xs = np.linspace(0.0, 1.0, 41)
    u, one = np.sin(xs), np.arange(41) == 20
    with pytest.raises(ValueError, match="sub_mask needs 2 nodes"):
        interior_norm_report(xs, u, 1.5, one, data_norm=1.0)
    rep = interior_norm_report(xs, u, 1.5, one | (np.arange(41) == 21), data_norm=1.0)
    assert rep.holder_seminorm > 0.0


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 700), gamma=st.floats(0.01, 0.99), seed=st.integers(0, 2**31),
       repeat=st.booleans())
@example(n=513, gamma=0.5, seed=0, repeat=False)  # three row blocks, the last of one row
def test_holder_quotient_equals_dense_pairwise_max(n, gamma, seed, repeat):
    rng = np.random.default_rng(seed)
    xs = np.sort(rng.uniform(-3.0, 3.0, n))
    if repeat:  # coincident points are skipped, as in the dense form
        xs[n // 2] = xs[0]
    g = rng.standard_normal(n)
    diff = np.abs(g[:, None] - g[None, :])
    dist = np.abs(xs[:, None] - xs[None, :])
    m = dist > 1e-300
    dense = float(np.max(diff[m] / dist[m] ** gamma)) if np.any(m) else 0.0
    assert holder_quotient(xs, g, gamma) == dense


def _dense_quotient(xs, g, gamma):
    """max |g_i - g_j| / |x_i - x_j|^gamma over every pair apart, by the full matrix."""
    xs, g = np.asarray(xs, dtype=float), np.asarray(g, dtype=float)
    diff = np.abs(g[:, None] - g[None, :])
    dist = np.abs(xs[:, None] - xs[None, :])
    m = dist > 1e-300
    return float(np.max(diff[m] / dist[m] ** gamma)) if np.any(m) else 0.0


def _quotient_case(kind, n, rng):
    if kind == "unsorted":  # random order, coincident points, a random walk
        xs = rng.uniform(-2.0, 2.0, n)
        xs[rng.integers(0, n, n // 4)] = xs[0]
        return xs, np.cumsum(rng.standard_normal(n))
    xs = np.linspace(0.0, np.pi, n)
    if kind == "smooth":  # nearly every block pair pruned
        return xs, np.sin(rng.uniform(1.0, 6.0) * xs)
    return xs, np.round(np.sin(3.0 * xs) * 2.0) / 2.0  # plateaus of equal g


# leaf blocks hold 16 points and row blocks 256: n on either side of both
@pytest.mark.parametrize("n", [2, 15, 16, 17, 255, 256, 257, 511, 512, 513])
@pytest.mark.parametrize("kind", ["unsorted", "smooth", "plateaus"])
@pytest.mark.parametrize("gamma", [0.01, 0.99])
def test_holder_quotient_block_bounds_are_exact(n, kind, gamma):
    rng = np.random.default_rng(n)
    xs, g = _quotient_case(kind, n, rng)
    assert holder_quotient(xs, g, gamma) == _dense_quotient(xs, g, gamma)


def test_holder_quotient_prunes_smooth_data(monkeypatch):
    # a regression to evaluating every pair would still give the right value
    import fracext.regularity as regularity

    kernel, pairs = regularity._block_pair_max, []

    def spy(x_rows, g_rows, x_cols, g_cols, gamma):
        pairs.append(x_rows.size * x_cols.shape[1])
        return kernel(x_rows, g_rows, x_cols, g_cols, gamma)

    monkeypatch.setattr(regularity, "_block_pair_max", spy)
    n = 513
    xs = np.linspace(0.0, np.pi, n)
    g = np.sin(2.0 * xs)
    assert holder_quotient(xs, g, 0.5) == _dense_quotient(xs, g, 0.5)
    assert 0 < sum(pairs) < 0.25 * n * (n - 1) / 2


@pytest.mark.parametrize("values", [
    dict(xs=[0.0, np.nan, 1.0], g=[0.0, 5.0, 1.0], gamma=0.5, name="xs"),
    dict(xs=[0.0, np.inf, 1.0], g=[0.0, 5.0, 1.0], gamma=0.5, name="xs"),
    dict(xs=[0.0, 0.5, 1.0], g=[0.0, np.inf, 1.0], gamma=0.5, name="g"),
    dict(xs=[0.0, 0.5, 1.0], g=[0.0, np.nan, 1.0], gamma=0.5, name="g"),
    dict(xs=[0.0, 0.5, 1.0], g=[0.0, 5.0, 1.0], gamma=0.0, name="gamma"),
    dict(xs=[0.0, 0.5, 1.0], g=[0.0, 5.0, 1.0], gamma=-0.5, name="gamma"),
    dict(xs=[0.0, 0.5, 1.0], g=[0.0, 5.0, 1.0], gamma=np.nan, name="gamma"),
    dict(xs=[0.0, 0.5, 1.0], g=[0.0, 5.0, 1.0], gamma=np.inf, name="gamma"),
    dict(xs=[0.0, 0.5, 1.0], g=[0.0, 5.0], gamma=0.5, name="length"),
])
def test_holder_quotient_rejects_inputs_it_would_get_wrong(values):
    with pytest.raises(ValueError, match=values["name"]):
        holder_quotient(values["xs"], values["g"], values["gamma"])


def test_holder_quotient_memory_at_4097_points():
    # rows of 256 points against every later point peak at 33 MiB for this
    # size; the surviving block pairs of smooth or random data take ~1 MiB
    import tracemalloc

    xs = np.linspace(0.0, np.pi, 4097)
    for g in (np.sin(2.0 * xs), np.random.default_rng(0).standard_normal(len(xs))):
        tracemalloc.start()
        try:
            holder_quotient(xs, g, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


@pytest.mark.parametrize("s", [0.3, 0.7])
def test_end_to_end_holder_constants_equal_dense_maxima(tmp_path, s):
    from fracext.config import default_config
    from fracext.gridfn import BoxGrid, GridFunction
    from fracext.semigroup import CoefficientField, SemigroupStepper, fractional_inverse

    cfg = default_config("end-to-end", s)
    details = run(cfg, str(tmp_path)).stages[0]["details"]
    report = json.loads((tmp_path / "endtoend_report.json").read_text())
    N, k = cfg.problem["grid_points"], cfg.problem["k"]
    frac, alpha = cfg.problem["subdomain_fraction"], cfg.setup["alpha"]
    grid = BoxGrid.interval(0.0, np.pi, N + 1)
    x = grid.axes()[0]
    f = GridFunction.from_callable(grid, lambda xx: np.sin(k * xx))
    u = fractional_inverse(SemigroupStepper(CoefficientField.identity(1), grid), f, s)[0].values
    assert report["f_holder_const"] == details["f_holder_const"] == _dense_quotient(
        x, f.values, alpha)
    # the default alpha + 2s lies in (1, 2): one centred difference, all
    # nodes of the subdomain interior to the grid
    assert report["norm_report"]["order"] == 1
    du = (u[2:] - u[:-2]) / (2 * (x[1] - x[0]))
    sub = (x >= 0.5 * (1 - frac) * np.pi) & (x <= (0.5 + 0.5 * frac) * np.pi)
    assert not (sub[0] or sub[-1])
    dense = _dense_quotient(x[sub], du[sub[1:-1]], alpha + 2 * s - 1)
    assert report["norm_report"]["holder_seminorm"] == dense


# -- closed-form oracles evaluated on their own axes ----------------------------------------


@pytest.mark.parametrize("refine", [1, 2])
@settings(max_examples=15, deadline=None)
@given(st.floats(0.05, 0.95), st.floats(0.05, 0.9), st.floats(0.1, 0.95),
       st.integers(0, 2**32 - 1))
@example(0.6, 0.5, 0.5, 11)
def test_harnack_family_report_equals_full_grid_evaluation(refine, s, R, kappa, seed):
    # the family's shared sections give the quotients, bit for bit, of
    # harnack_quotient on one state per member
    family = positive_harmonic_family(s, 4, seed=seed)
    rep = harnack_family_report(s, family, 33, 16, kappa=kappa, R=R, refine=refine)
    geom = MAGeometry(s)
    xlim = np.sqrt(2.0 * R) * 1.05
    zcap = geom.section_interval(0.0, R)[1] * 1.05
    xs = np.linspace(-xlim, xlim, 32 * refine + 1)
    zs = np.concatenate([[0.0], np.geomspace(zcap * 1e-3, zcap, 16 * refine)])
    Zq, Xq = np.meshgrid(zs, xs, indexing="ij")
    for combo, got in zip(family, rep["reports"]):
        state = ExtensionState(s, [xs], transform_to_y(zs, s), combo(Xq, Zq),
                               0.0, 0.0)
        ref = harnack_quotient(state, (0.0, 0.0), R, kappa)
        assert got == ref


def test_solve_extension_field_error_equals_full_grid_evaluation(tmp_path):
    from fracext.benchmarks import eigen_extension_problem
    from fracext.config import default_config, validate
    from fracext.runner import run
    s, k, nx, my = 0.4, 2, 65, 24
    cfg = validate({"experiment": "solve-extension", "setup": {"s": s},
                    "problem": {"nx": nx, "my": my, "k": k}})
    details = run(cfg, str(tmp_path)).stages[0]["details"]
    problem, oracle = eigen_extension_problem(s, k, Z=1.0)
    state = solve_extension(problem, ExtensionMesh(nx=nx, my=my))
    Zq, Xq = np.meshgrid(state.z_nodes, state.x_axes[0], indexing="ij")
    assert details["field_error"] == float(np.max(np.abs(state.values - oracle(Xq, Zq))))


@pytest.mark.parametrize("case", [0, 1, 2, 3])
def test_synthetic_state_equals_full_grid_evaluation(case):
    s = 0.55
    if case == 0:
        fn = HarmonicCombo(s, const=0.3, modes=[(0.5, 1.0, 0.4), (0.2, 2.0, 1.1)])
        st = _synthetic_state(s, fn, mx=40, my=24)
    else:
        st = _polynomial_state(s, case, mx=40, my=24)
        geom = MAGeometry(s)
        fn = [None,
              lambda x, z: 0.37 + 0.0 * x,
              lambda x, z: 0.37 + 0.21 * x + 0.0 * geom.h(z),
              lambda x, z: 0.37 + 0.21 * x + 0.5 * 0.4 * x**2 - 0.15 * geom.h(z)][case]
    Zq, Xq = np.meshgrid(st.z_nodes, st.x_axes[0], indexing="ij")
    assert np.array_equal(st.values, fn(Xq, Zq))


_X12 = np.linspace(0.0, 1.0, 12)
_PTS = (np.linspace(-1.0, 1.0, 8), np.linspace(0.0, 1.0, 8))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("call, match", [
    (lambda st: schauder_decay(st, 2, rho=2.0), r"rho must lie in \(0, 1\), got 2.0"),
    (lambda st: schauder_decay(st, 2, rho=1.0), r"rho must lie in \(0, 1\), got 1.0"),
    (lambda st: schauder_decay(st, 5), "case must be 1, 2 or 3, got 5"),
    (lambda st: campanato_iterate(st, 5, 0.5), "case must be 1, 2 or 3, got 5"),
    (lambda st: campanato_iterate(st, 2, 0.5, rho=1.5), r"rho must lie in \(0, 1\), got 1.5"),
    (lambda st: campanato_iterate(st, 2, 0.5, rho=0.0), r"rho must lie in \(0, 1\), got 0.0"),
    (lambda st: rescale_solution(st, np.nan), "rho must be finite and positive, got nan"),
    (lambda st: rescale_solution(st, np.inf), "rho must be finite and positive, got inf"),
    (lambda st: st.geom.trace_center(-1.0), "section radius must be positive"),
    (lambda st: st.geom.trace_center(0.0), "section radius must be positive"),
    (lambda st: st.geom.trace_center(np.nan), "section center and radius must be finite"),
    (lambda st: st.geom.trace_center(np.inf), "section center and radius must be finite"),
    (lambda st: interior_norm_report(_X12, np.sin(_X12)[:-1], 1.5, _X12 > 0.2, 1.0),
     r"interior_norm_report: u must have the shape of xs, \(12,\), got \(11,\)"),
    (lambda st: interior_norm_report(_X12, np.sin(_X12), 1.5, (_X12 > 0.2)[1:], 1.0),
     r"interior_norm_report: sub_mask must have the shape of xs, \(12,\), got \(11,\)"),
    (lambda st: holder_seminorm(st.geom, *_PTS, np.where(_PTS[0] > 0.5, np.nan, 1.0), 0.5),
     "holder_seminorm: vals must be finite"),
    (lambda st: holder_seminorm(st.geom, _PTS[0], _PTS[1] + np.inf, np.ones(8), 0.5),
     "holder_seminorm: x_pts and z_pts must be finite"),
    (lambda st: holder_seminorm(st.geom, *_PTS, np.ones(7), 0.5),
     "holder_seminorm: x_pts, z_pts and vals must hold one entry per point"),
    (lambda st: holder_seminorm(st.geom, _PTS[0], _PTS[1][:-1], np.ones(8), 0.5),
     "holder_seminorm: x_pts, z_pts and vals must hold one entry per point"),
    (lambda st: harnack_family_report(st.s, []),
     "harnack_family_report: family must hold at least one member"),
], ids=["decay-rho-2", "decay-rho-1", "decay-case-5", "campanato-case-5", "campanato-rho-1.5",
        "campanato-rho-0", "rescale-nan", "rescale-inf", "trace-center-negative",
        "trace-center-zero", "trace-center-nan", "trace-center-inf", "norm-u-length",
        "norm-mask-length", "seminorm-nan-values", "seminorm-inf-points", "seminorm-short-vals",
        "seminorm-short-z", "harnack-empty-family"])
def test_measurements_refuse_inputs_they_would_get_wrong(call, match):
    # each of these returned a number from meaningless input (a fitted
    # exponent from growing scales, NaN or complex axes and centers, a NaN
    # seminorm) or leaked a numpy error that names no argument
    with pytest.raises(ValueError, match=match):
        call(_polynomial_state(0.4, 3, mx=20, my=12))

"""Regularity lab: seminorms, Harnack quotients, approximation distance,
decay fitting and the inductive iteration."""

import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linprog

from fracext import fitting
from fracext.benchmarks import (harmonic_combo_problem, kinked_trace_problem,
                                positive_harmonic_family)
from fracext.config import validate
from fracext.extension import (ExtensionMesh, ExtensionState, HarmonicCombo,
                               rescale_solution, solve_extension, transform_to_y)
from fracext.fitting import sup_fit
from fracext.geometry import MAGeometry
from fracext.regularity import (_case_basis, _region, approximation_distance,
                                campanato_iterate, harnack_family_report, harnack_quotient,
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
    # Lawson fallback agrees
    coeffs2, err2 = sup_fit(B, xs**2, method="lawson", lawson_iters=40)
    assert err2 == pytest.approx(0.5, abs=5e-3)


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


def _scaled_lp_fit(basis, values):
    """One HiGHS solve over all 2m rows for the correction to the least-squares
    fit, with unit-maximum columns and the residual scaled to 1e6."""
    m, p = basis.shape
    lsq, *_ = np.linalg.lstsq(basis, values, rcond=None)
    r = values - basis @ lsq
    col = np.max(np.abs(basis), axis=0)
    unit = float(np.max(np.abs(r))) / 1e6
    cost = np.zeros(p + 1)
    cost[-1] = 1.0
    ones = np.ones((m, 1))
    B = basis / col
    res = linprog(cost, A_ub=np.block([[B, -ones], [-B, -ones]]),
                  b_ub=np.concatenate([r, -r]) / unit, bounds=[(None, None)] * (p + 1),
                  method="highs")
    assert res.success
    return lsq + res.x[:p] * unit / col


def test_sup_fit_falls_back_to_the_full_lp_when_the_exchange_stalls(monkeypatch):
    xs = np.linspace(-1, 1, 401)
    B = np.stack([np.ones_like(xs), xs, xs**2], axis=1)
    monkeypatch.setattr(fitting, "_MAX_EXCHANGES", 0)
    coeffs, err = sup_fit(B, np.abs(xs) ** 0.7)
    ref = _scaled_lp_fit(B, np.abs(xs) ** 0.7)
    assert np.array_equal(coeffs, ref)
    assert err == float(np.max(np.abs(np.abs(xs) ** 0.7 - B @ ref)))


def test_sup_fit_falls_back_to_lawson_when_the_lp_fails(monkeypatch):
    xs = np.linspace(-1, 1, 401)
    B = np.stack([np.ones_like(xs), xs], axis=1)
    monkeypatch.setattr(fitting, "_MAX_EXCHANGES", 0)
    monkeypatch.setattr(fitting, "linprog", lambda *a, **k: SimpleNamespace(success=False))
    coeffs, err = sup_fit(B, xs**2)
    ref_coeffs, ref_err = sup_fit(B, xs**2, method="lawson")
    assert np.array_equal(coeffs, ref_coeffs) and err == ref_err


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


def _no_linprog(*args, **kwargs):
    raise AssertionError("linprog called")


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

    def spy(B, r, tol):
        found = exchange(B, r, tol)
        levels.append(found[1])
        return found

    monkeypatch.setattr(fitting, "_exchange", spy)
    geom = MAGeometry(kinked_state.s)
    for j in range(6):
        X, Z, V = _region(kinked_state, geom, 0.5**j, case)
        basis = _case_basis(case, X, Z, geom)
        coeffs, err = sup_fit(basis, V)
        tol = 1e-12 * max(1.0, float(np.max(np.abs(V))))
        assert err <= levels[-1] + tol
        assert err <= _full_lp_error(basis, V) + tol


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
        xs, z, v = solve_extension(problem, mesh).node_points()
        x = xs[0]
    else:
        g = MAGeometry(0.7)
        rng = np.random.default_rng(3)
        x, z = rng.uniform(-1.0, 1.0, (1500, 2)), rng.uniform(0.0, 1.0, 1500)
        v = np.abs(x[:, 0]) ** 0.5 + np.sin(3.0 * x[:, 1]) * z
    assert len(v) > 1414
    assert holder_seminorm(g, x, z, v, 0.5) == _dense_holder_seminorm(g, x, z, v, 0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_harnack_report_refuses_nonfinite_node_values(bad):
    s = 0.5
    xs = np.linspace(-1.5, 1.5, 41)
    zs = np.concatenate([[0.0], np.geomspace(1e-3, 1.5, 30)])
    vals = np.ones((len(zs), len(xs)))
    vals[3, 20] = bad
    state = ExtensionState(s, [xs], transform_to_y(zs, s), vals, 0.0, 0.0, reflected=True)
    with pytest.raises(ValueError, match="finite node values"):
        harnack_quotient(MAGeometry(s), state, (0.0, 0.0), 0.5)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the family's own overflow, as in a run
def test_harnack_run_with_overflowing_modes_errors_instead_of_reporting_nan(tmp_path):
    # at R = 1e300 the mode profiles overflow and cos * inf sums to NaN
    cfg = validate({"experiment": "harnack", "setup": {"s": 0.4},
                    "problem": {"R": 1e300, "family_size": 2, "nx": 17, "my": 8}})
    stage = run(cfg, str(tmp_path)).stages[0]
    assert stage["status"] == "error"
    assert "finite node values" in stage["details"]["exception"]


def test_harnack_quotient_constants_and_perturbation():
    s = 0.5
    g = MAGeometry(s)
    xs = np.linspace(-1.5, 1.5, 41)
    zs = np.concatenate([[0.0], np.geomspace(1e-3, 1.5, 30)])
    y = transform_to_y(zs, s)
    ones = np.ones((len(zs), len(xs)))
    state = ExtensionState(s, [xs], y, 2.0 * ones, 0.0, 0.0, reflected=True)
    rep = harnack_quotient(g, state, (0.0, 0.0), 0.5)
    assert rep.quotient == 1.0
    # small harmonic perturbation: quotient tends to 1
    quots = []
    for amp in (0.2, 0.02):
        combo = HarmonicCombo(s, const=1.0, modes=[(amp, 1.0, 0.3)])
        vals = np.broadcast_to(combo(xs[None, :], zs[:, None] * np.ones_like(xs)),
                               ones.shape)
        st = ExtensionState(s, [xs], y, vals, 0.0, 0.0, reflected=True)
        quots.append(harnack_quotient(g, st, (0.0, 0.0), 0.5).quotient)
    assert quots[0] > quots[1] >= 1.0
    assert quots[1] < 1.05
    # negative inputs are rejected
    bad = ExtensionState(s, [xs], y, ones - 2.0, 0.0, 0.0, reflected=True)
    with pytest.raises(ValueError):
        harnack_quotient(g, bad, (0.0, 0.0), 0.5)


def test_harnack_family_stability():
    s = 0.75
    family = positive_harmonic_family(s, 6, seed=3)
    rep1 = harnack_family_report(s, family, ExtensionMesh(nx=65, my=32))
    rep2 = harnack_family_report(s, family, ExtensionMesh(nx=65, my=32), refine=2)
    assert rep1["min_quotient"] >= 1.0 - 1e-9
    assert abs(rep2["C_H_hat"] - rep1["C_H_hat"]) <= 0.2 * rep1["C_H_hat"]


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
    prob = harmonic_combo_problem(s, combo)
    st = solve_extension(prob, ExtensionMesh(nx=129, my=48))
    g = MAGeometry(s)
    V = rescale_solution(st, rho, target_mesh=ExtensionMesh(nx=129, my=48),
                         target_domain=(-1.2, 1.2, 0.6))
    semi_V = holder_seminorm_state(g, V, (0.0, 0.1), 0.3, beta)
    # the same point pairs on the source live in the rho^2-scaled section
    semi_U_scaled = holder_seminorm_state(
        g, st, (0.0, rho ** (2 * s) * 0.1), rho**2 * 0.3, beta)
    assert semi_V == pytest.approx(rho**beta * semi_U_scaled, rel=0.1)


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


# -- closed-form oracles evaluated on their own axes ----------------------------------------


@pytest.mark.parametrize("refine", [1, 2])
@settings(max_examples=15, deadline=None)
@given(st.floats(0.05, 0.95), st.floats(0.05, 0.9), st.floats(0.1, 0.95),
       st.integers(0, 2**32 - 1))
@example(0.6, 0.5, 0.5, 11)
def test_harnack_family_report_equals_full_grid_evaluation(refine, s, R, kappa, seed):
    # the family's shared sections give the quotients, bit for bit, of
    # harnack_quotient on one reflected state per member
    family = positive_harmonic_family(s, 4, seed=seed)
    mesh = ExtensionMesh(nx=33, my=16)
    rep = harnack_family_report(s, family, mesh, kappa=kappa, R=R, refine=refine)
    geom = MAGeometry(s)
    xlim = np.sqrt(2.0 * R) * 1.05
    zcap = geom.section_interval(0.0, R)[1] * 1.05
    xs = np.linspace(-xlim, xlim, (mesh.nx - 1) * refine + 1)
    zs = np.concatenate([[0.0], np.geomspace(zcap * 1e-3, zcap, mesh.my * refine)])
    Zq, Xq = np.meshgrid(zs, xs, indexing="ij")
    for combo, got in zip(family, rep["reports"]):
        state = ExtensionState(s, [xs], 2.0 * s * zs ** (1.0 / (2 * s)), combo(Xq, Zq),
                               0.0, 0.0, reflected=True)
        ref = harnack_quotient(geom, state, (0.0, 0.0), R, kappa)
        assert got == ref


def test_solve_extension_field_error_equals_full_grid_evaluation(tmp_path):
    from fracext.benchmarks import eigen_extension_problem
    from fracext.config import validate
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

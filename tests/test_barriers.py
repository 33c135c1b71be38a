"""Barriers, inf-convolutions, sliding paraboloids and contact sets, touch test."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracext import barriers
from fracext.barriers import (EPS_LADDER, SCAN_MARGIN, BarrierCase1, BarrierCase2,
                              BarrierNotFound, ContactReport, TouchReport, cell_measures,
                              inf_convolution, sample_annulus, search_case2_parameters,
                              slide_paraboloids, touch_test)
from fracext.benchmarks import eigen_extension_problem, sliding_fixture, vertex_lattice
from fracext.config import default_config, validate
from fracext.extension import ExtensionMesh, ExtensionState, solve_extension
from fracext.geometry import MAGeometry, SectionDescriptor, transform_to_y, transform_to_z
from fracext.runner import _touching_exact, run
from fracext.semigroup import ds_constant


# -- barriers -----------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("s", [0.25, 0.75])
def test_sample_annulus_points_in_annulus(s, n):
    g = MAGeometry(s, n=n)
    x0 = 0.3 if n == 1 else np.array([0.3, -0.2])
    z0, R, rho = 1.0, 0.5, 0.1
    xs, zs = sample_annulus(g, x0, z0, R, rho, 2000, seed=3)
    d = g.delta_Phi((x0, z0), (xs, zs))
    assert np.all(d >= rho * (1.0 - 1e-12)) and np.all(d < R * (1.0 + 1e-12))
    assert np.any(zs < z0) and np.any(zs > z0)
    # the per-sample loop it replaced draws from the generator in the same
    # order; its first 200 samples serve as the reference
    rng = np.random.default_rng(3)
    u = rng.uniform(rho, R, 2000)
    frac = rng.uniform(0.0, 1.0, 2000)
    side = rng.integers(0, 2, 2000)
    for i in range(200):
        direction = rng.normal(size=n)
        x = np.atleast_1d(x0) + direction / np.linalg.norm(direction) * np.sqrt(2 * u[i] * frac[i])
        z = g.section_endpoint(z0, u[i] * (1.0 - frac[i]), -1.0 if side[i] else 1.0)
        assert np.allclose(np.atleast_1d(xs[i]), x, rtol=0.0, atol=1e-14)
        assert zs[i] == z


def test_barrier_case1_fixture():
    # s = 1/2, R = 1/2 = delta_h(z0, 0) puts z0 at 1; alpha = 9 > (n+1)/rho = 8
    g = MAGeometry(0.5)
    bar = BarrierCase1(g, 0.5, 0.25, 9.0)
    assert bar.z0 == 1.0
    assert bar(0.0, 0.0) == pytest.approx(0.0, abs=1e-15)
    rep = bar.verify(samples=10_000, seed=0)
    assert rep["passes"] and rep["operator_min"] > 0.0
    assert rep["dz_trace"] > 0.0
    # boundary values: 0 on the outer section boundary, positive on the inner
    zlo, zhi = g.section_interval(1.0, 0.5)
    assert bar(0.0, zhi) == pytest.approx(0.0, abs=1e-15)
    zin = g.section_interval(1.0, 0.25)[1]
    assert bar(0.0, zin) == pytest.approx(np.exp(-9 * 0.25) - np.exp(-9 * 0.5))


def test_barrier_case1_other_s_and_validation():
    g = MAGeometry(0.25)
    bar = BarrierCase1(g, 0.5, 0.2, 11.0)
    assert bar.z0 == (0.5 / 0.25) ** 0.25  # delta_h(z0, 0) = s z0^{1/s} = 0.5
    assert bar.verify(samples=4000)["passes"]
    with pytest.raises(ValueError):
        BarrierCase1(g, 0.5, 0.2, 5.0)   # alpha too small
    # R and z0 can no longer disagree: the center comes from R
    assert g.delta_h(BarrierCase1(g, 0.4, 0.2, 11.0).z0, 0.0) == pytest.approx(0.4)
    with pytest.raises(ValueError):
        BarrierCase1(MAGeometry(0.75), 0.75, 0.2, 11.0)  # wrong regime


def test_barrier_case2_fixture():
    s = 0.75
    g = MAGeometry(s)
    R, rho = 0.5, 1.0 / 8.0
    bar = search_case2_parameters(g, R, rho)
    rep = bar.verify(samples=10_000, seed=1)
    assert rep["passes"]
    assert rep["operator_min"] > 0 and rep["bracket_scan_min"] > 0
    assert rep["dz_trace"] > 0 and rep["inner_bound_low"] > 0
    # profile structure
    p = bar.profile
    assert p.psi_mass <= 3.0 * p.eps * p.mu_S
    zg = np.linspace(0.0, p.z_hi, 2000)
    he = bar.h_eps(zg)
    assert he[0] == pytest.approx(0.0, abs=1e-12)
    assert he[-1] == pytest.approx(0.0, abs=1e-10)
    assert np.all(he <= 1e-12)
    psi = bar.psi(zg)
    assert np.all((psi >= p.eps - 1e-12) & (psi <= 1.0 + 1e-12))
    # |h_eps'(0)| <= 6 (n+1) eps mu_h(S), the derivative-at-trace bound
    assert abs(bar.h_eps_prime(0.0)) <= 6.0 * (g.n + 1) * p.eps * p.mu_S


def test_barrier_case2_bvp_oracle():
    # h_eps'' = 2(n+1) psi h'' checked by second differences off the endpoints
    s = 0.75
    g = MAGeometry(s)
    bar = BarrierCase2(g, 0.5, 0.125, 0.1, 40.0)
    zs = np.linspace(0.05 * bar.profile.z_hi, 0.95 * bar.profile.z_hi, 40)
    h = 1e-6
    dzz = (bar.h_eps(zs + h) - 2 * bar.h_eps(zs) + bar.h_eps(zs - h)) / h**2
    target = 2.0 * (g.n + 1) * bar.psi(zs) * g.hpp(zs)
    rel = np.abs(dzz - target) / np.abs(target)
    assert np.max(rel) < 2e-2 and np.median(rel) < 1e-3


def test_barrier_case2_eps_too_large():
    s = 0.75
    g = MAGeometry(s)
    with pytest.raises(ValueError, match="reduce eps"):
        BarrierCase2(g, 0.5, 0.125, 0.9)


@pytest.mark.parametrize("alpha", [9.0, 800.0, 2000.0])
def test_barrier_case1_large_alpha_decided_by_sign(alpha):
    # e^{-alpha E} with E in [rho, R) = [1/4, 1/2) underflows at alpha = 2000
    g = MAGeometry(0.5)
    bar = BarrierCase1(g, 0.5, 0.25, alpha)
    rep = bar.verify(samples=10_000, seed=3)
    assert rep["passes"] and rep["bracket_min"] > 0.0
    assert rep["log_dz_trace"] == pytest.approx(np.log(alpha) - 0.5 * alpha
                                                + np.log(g.hp(1.0)), rel=1e-12)
    if alpha < 2000.0:
        assert np.log(rep["operator_min"]) == pytest.approx(rep["log_operator_min"],
                                                            rel=1e-12)
    else:
        assert rep["operator_min"] == 0.0
        assert -1000.0 < rep["log_operator_min"] < np.log(np.finfo(float).tiny)


@pytest.mark.parametrize("s", [0.001, 0.002, 0.005])
def test_barrier_check_passes_at_small_s(tmp_path, s):
    # z^{2-1/s} overflows near z = 0, where P = +inf is the honest bracket
    # term; RuntimeWarnings are errors here, so an unguarded overflow errors
    # the stage
    stage = run(default_config("barrier-check", s), str(tmp_path)).stages[0]
    assert stage["status"] == "pass", stage["details"].get("exception")
    assert stage["details"]["bracket_min"] > 0.0


def _case2_args(s, R=0.5, rho_fraction=0.5):
    return MAGeometry(s), R, R * rho_fraction


def test_case2_search_builds_one_profile_per_eps(monkeypatch):
    built = []
    init = BarrierCase2.__init__

    def counting(self, geom, R, rho, eps, alpha=None):
        built.append(eps)
        init(self, geom, R, rho, eps, alpha)

    monkeypatch.setattr(BarrierCase2, "__init__", counting)
    for s in (0.6, 0.7, 0.9):
        built.clear()
        bar = search_case2_parameters(*_case2_args(s))
        assert built == list(EPS_LADDER[:EPS_LADDER.index(bar.eps) + 1])
    built.clear()
    with pytest.raises(BarrierNotFound) as info:
        search_case2_parameters(*_case2_args(0.947))
    assert built == list(EPS_LADDER)
    assert [eps for eps, _ in info.value.reasons] == list(EPS_LADDER)
    assert "slope" in info.value.reasons[0][1] and "bump set" in info.value.reasons[1][1]


@pytest.mark.parametrize("s", [0.85, 0.9, 0.93])
def test_case2_bracket_holds_inside_the_transition_window(s):
    # near s = 1 the window where psi falls is narrower than the uniform scan
    # spacing; a dense check of the worst-case bracket there
    g, R, rho = _case2_args(s)
    bar = search_case2_parameters(g, R, rho)
    z = np.linspace(bar.profile.z_eps, bar.profile.z_tilde, 200_001)
    P, Q = bar.bracket_terms(np.maximum(0.0, rho - g.delta_h(bar.z0, z)), z)
    assert np.min(bar.alpha * P - Q) > 0.99 * SCAN_MARGIN * (g.n + 1)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.55, 0.93), st.floats(0.3, 1.0), st.floats(0.3, 0.7),
       st.integers(1, 2**31))
def test_case2_search_minimal_alpha_or_reasons(s, R, rho_fraction, seed):
    g, R, rho = _case2_args(s, R, rho_fraction)
    try:
        bar = search_case2_parameters(g, R, rho)
    except BarrierNotFound as exc:
        assert [eps for eps, _ in exc.reasons] == list(EPS_LADDER)
        assert all(reason for _, reason in exc.reasons)
        return
    assert bar.verify(samples=4000, seed=seed)["passes"]
    margin = SCAN_MARGIN * (g.n + 1)
    assert bar.bracket_scan_min() >= margin - 1e-12
    lower = BarrierCase2(g, R, rho, bar.eps, bar.alpha / (1.0 + 1e-3))
    assert lower.bracket_scan_min() < margin


def test_case2_predicates_read_no_exponentials():
    # at s = 0.9 every e^{-alpha ...} value underflows to 0; the verdict stands
    bar = search_case2_parameters(*_case2_args(0.9))
    rep = bar.verify(samples=4000, seed=5)
    assert rep["passes"] and bar.alpha > 1e4
    assert rep["operator_min"] == 0.0 and rep["inner_bound_low"] == 0.0
    assert rep["log_inner_bound_low"] < rep["log_inner_bound_high"] < 0.0
    assert rep["log_operator_min"] < np.log(np.finfo(float).tiny)


# -- inf-convolution ------------------------------------------------------------------


def _rect_grid(nx=31, nz=25):
    xs = np.linspace(-1.0, 1.0, nx)
    zs = np.linspace(0.1, 1.1, nz)
    return xs, zs


def test_infconv_constant_fixed_point():
    xs, zs = _rect_grid()
    U = np.full((len(xs), len(zs)), 2.7)
    assert np.allclose(inf_convolution(xs, zs, U, 0.1), 2.7)


def test_infconv_brute_force_oracle():
    rng = np.random.default_rng(4)
    xs, zs = _rect_grid(13, 11)
    U = rng.normal(size=(13, 11))
    eps = 0.3
    # brute force over all nodes
    X, Z = np.meshgrid(xs, zs, indexing="ij")
    P = np.stack([X.ravel(), Z.ravel()], axis=1)
    D = ((P[:, None, :] - P[None, :, :]) ** 2).sum(-1) / eps
    brute = (U.ravel()[None, :] + D).min(axis=1).reshape(U.shape)
    assert np.allclose(inf_convolution(xs, zs, U, eps), brute, atol=1e-12)


def test_infconv_ordering_monotonicity_lipschitz():
    xs, zs = _rect_grid(41, 31)
    U = np.abs(xs)[:, None] + 0.0 * zs[None, :]   # Lipschitz constant 1
    e1, e2 = 0.05, 0.2
    U1 = inf_convolution(xs, zs, U, e1)
    U2 = inf_convolution(xs, zs, U, e2)
    assert np.all(U1 <= U + 1e-13)
    assert np.all(U2 <= U1 + 1e-13)
    assert np.max(np.abs(U1 - U)) <= 1.0**2 * e1 / 4.0 + 1e-12
    assert np.max(np.abs(U2 - U)) <= 1.0**2 * e2 / 4.0 + 1e-12
    with pytest.raises(ValueError):
        inf_convolution(xs, zs, U, 0.0)


def test_infconv_semiconcavity():
    rng = np.random.default_rng(5)
    xs, zs = _rect_grid(33, 27)
    U = np.cos(3 * xs)[:, None] * (1 + zs)[None, :] + 0.1 * rng.normal(size=(33, 27))
    eps = 0.15
    Ue = inf_convolution(xs, zs, U, eps)
    hx = xs[1] - xs[0]
    d2x = (Ue[2:, :] - 2 * Ue[1:-1, :] + Ue[:-2, :]) / hx**2
    hz = zs[1] - zs[0]
    d2z = (Ue[:, 2:] - 2 * Ue[:, 1:-1] + Ue[:, :-2]) / hz**2
    assert np.max(d2x) <= 2.0 / eps + 1e-8
    assert np.max(d2z) <= 2.0 / eps + 1e-8


# -- sliding paraboloids -----------------------------------------------------------------


def test_slide_on_own_paraboloid():
    g = MAGeometry(0.6)
    xs, zs, U = sliding_fixture(g, "paraboloid", nx=31, nz=31, opening=1.0)
    rep = slide_paraboloids(g, xs, zs, U, [(0.1, 0.6)], 1.0)
    # U is itself a paraboloid of the same opening: P_v - U is constant, so the
    # touching value is exact wherever the contact lands
    (v, nodes, c) = rep.contact_map[0]
    P = -1.0 * (g.delta_phi(v[0], xs)[:, None] + g.delta_h(v[1], zs)[None, :]) + c
    assert np.min(U - P) >= -1e-12
    for (i, j) in nodes:
        assert U[i, j] - P[i, j] == pytest.approx(0.0, abs=1e-11)


def test_slide_convex_brute_force_and_measures():
    g = MAGeometry(0.4)
    xs, zs, U = sliding_fixture(g, "convex", nx=41, nz=41, opening=1.0)
    verts = vertex_lattice(xs, zs, 8)
    rep = slide_paraboloids(g, xs, zs, U, verts, 1.0)
    assert rep.mu_A > 0 and rep.mu_B > 0
    for (v, nodes, c) in rep.contact_map:
        shifted = U + 1.0 * (g.delta_phi(v[0], xs)[:, None] + g.delta_h(v[1], zs)[None, :])
        i, j = np.unravel_index(np.argmin(shifted), shifted.shape)
        assert (i, j) in [tuple(nn) for nn in nodes]
        assert c == pytest.approx(shifted[i, j], abs=1e-12)


def test_slide_measure_ratio_stability():
    g = MAGeometry(0.6)
    xs, zs, U = sliding_fixture(g, "harmonic", nx=41, nz=41, opening=0.5, seed=2)
    rep1 = slide_paraboloids(g, xs, zs, U, vertex_lattice(xs, zs, 6), 0.5)
    xs2, zs2, U2 = sliding_fixture(g, "harmonic", nx=81, nz=81, opening=0.5, seed=2)
    rep2 = slide_paraboloids(g, xs2, zs2, U2, vertex_lattice(xs2, zs2, 12), 0.5)
    assert rep1.mu_A > 0 and rep2.mu_A > 0
    assert abs(rep2.measure_ratio - rep1.measure_ratio) <= 0.25 * rep1.measure_ratio


def test_cell_measures_partition():
    g = MAGeometry(0.7)
    xs = np.linspace(-1, 1, 21)
    zs = np.linspace(0.05, 1.0, 17)
    cells = cell_measures(g, xs, zs)
    total = (xs[-1] - xs[0]) * g.mu_h_interval(zs[0], zs[-1])
    assert cells.sum() == pytest.approx(total, rel=1e-12)


def test_contact_csv(tmp_path):
    cfg = validate({"experiment": "slide-paraboloids", "setup": {"s": 0.5},
                    "problem": {"fixture": "convex", "nx": 21, "nz": 21, "vertex_stride": 10,
                                "check_refinement": False}})
    run(cfg, str(tmp_path))
    lines = (tmp_path / "contacts.csv").read_text().strip().split("\n")
    assert lines[0] == "vertex_x,vertex_z,contact_x,contact_z,touching_value"
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    assert len(rows) >= 9 and all(len(r) == 5 for r in rows)  # one contact per vertex


def _slide_reference(geom, xs, zs, U, vertices, opening):
    """The per-vertex scan of every grid node that slide_paraboloids reproduces."""
    cells = cell_measures(geom, xs, zs)
    contact_mask = np.zeros(U.shape, dtype=bool)
    vertex_mask = np.zeros(U.shape, dtype=bool)
    contact_map = []
    for (vx, vz) in vertices:
        shifted = U + opening * (geom.delta_phi(vx, xs)[:, None]
                                 + geom.delta_h(vz, zs)[None, :])
        c = float(np.min(shifted))
        tol = 1e-12 * max(1.0, abs(c))
        nodes = np.argwhere(shifted <= c + tol)
        for (i, j) in nodes:
            contact_mask[i, j] = True
        contact_map.append(((float(vx), float(vz)), [tuple(n) for n in nodes], c))
        vertex_mask[np.argmin(np.abs(xs - vx)), np.argmin(np.abs(zs - vz))] = True
    touching = np.array([c for (_, _, c) in contact_map])
    return ContactReport(opening, touching, contact_map, contact_mask,
                         float(cells[contact_mask].sum()), float(cells[vertex_mask].sum()))


def _report_fields(rep):
    """Every ContactReport field but the mask, in ==-comparable form."""
    return (rep.opening, rep.touching_values.tolist(), rep.contact_map, rep.mu_A, rep.mu_B)


def _assert_same_slide(rep, ref):
    assert _report_fields(rep) == _report_fields(ref)
    assert np.array_equal(rep.contact_mask, ref.contact_mask)


def _put_on_contact_edge(geom, xs, zs, U, vertex, opening, ulps):
    """Lower the column minimum of vertex's highest column onto its contact
    limit c + tol, shifted by `ulps` units in the last place: the column
    whose membership only the filter's rounding slack decides."""
    vx, vz = vertex
    w = opening * (geom.delta_phi(vx, xs)[:, None] + geom.delta_h(vz, zs)[None, :])
    shifted = U + w
    c = float(np.min(shifted))
    limit = c + 1e-12 * max(1.0, abs(c))
    j = int(np.argmax(shifted.min(axis=0)))
    if shifted[:, j].min() <= limit:
        return U
    i = int(np.argmin(shifted[:, j]))
    target = limit
    for _ in range(abs(ulps)):
        target = np.nextafter(target, np.sign(ulps) * np.inf)
    U = U.copy()
    U[i, j] = target - w[i, j]
    return U


@settings(max_examples=150, deadline=None)
@given(s=st.floats(0.05, 0.95), opening=st.floats(0.05, 3.0),
       fixture=st.sampled_from(["convex", "paraboloid", "harmonic"]),
       nx=st.integers(9, 33), nz=st.integers(9, 33), stride=st.integers(1, 8),
       seed=st.integers(0, 3), extra=st.integers(0, 6), edge=st.integers(-1, 40),
       ulps=st.integers(-4, 4))
def test_slide_equals_per_vertex_scan(s, opening, fixture, nx, nz, stride, seed, extra,
                                      edge, ulps):
    g = MAGeometry(s)
    xs, zs, U = sliding_fixture(g, fixture, nx, nz, opening, seed=seed)
    verts = vertex_lattice(xs, zs, stride)
    rng = np.random.default_rng(seed)
    # off-lattice, out-of-grid and duplicate vertices
    verts += [(float(x), float(z)) for x, z in zip(rng.uniform(-1.5, 1.5, extra),
                                                   rng.uniform(-0.2, 1.6, extra))]
    verts += [verts[k] for k in rng.integers(0, len(verts), extra)]
    if edge >= 0:
        U = _put_on_contact_edge(g, xs, zs, U, verts[edge % len(verts)], opening, ulps)
    _assert_same_slide(slide_paraboloids(g, xs, zs, U, verts, opening),
                       _slide_reference(g, xs, zs, U, verts, opening))


@pytest.mark.parametrize("block", [1, 7, 200])
def test_slide_and_infconv_blocks_do_not_change_results(monkeypatch, block):
    g = MAGeometry(0.45)
    xs, zs, U = sliding_fixture(g, "harmonic", nx=23, nz=17, opening=0.8, seed=3)
    verts = vertex_lattice(xs, zs, 2)
    ref = _slide_reference(g, xs, zs, U, verts, 0.8)
    Dz = (zs[:, None] - zs[None, :]) ** 2 / 0.1
    stage1 = U[:, :, None] + Dz[None, :, :]
    arg_w = np.argmin(stage1, axis=1)
    M1 = np.take_along_axis(stage1, arg_w[:, None, :], axis=1)[:, 0, :]
    stage2 = M1[:, None, :] + ((xs[:, None] - xs[None, :]) ** 2 / 0.1)[:, :, None]
    arg_i = np.argmin(stage2, axis=0)
    monkeypatch.setattr(barriers, "BLOCK_ELEMENTS", block)
    _assert_same_slide(slide_paraboloids(g, xs, zs, U, verts, 0.8), ref)
    assert np.array_equal(inf_convolution(xs, zs, U, 0.1),
                          np.take_along_axis(stage2, arg_i[None], axis=0)[0])


def test_infconv_and_refined_slide_memory_is_bounded():
    g = MAGeometry(0.6)
    xs, zs, U = sliding_fixture(g, "harmonic", nx=241, nz=241, opening=1.0, seed=1)
    verts = vertex_lattice(xs, zs, 24)
    for fn in (lambda: inf_convolution(xs, zs, U, 0.05),
               lambda: slide_paraboloids(g, xs, zs, U, verts, 1.0)):
        tracemalloc.start()
        try:
            fn()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


@pytest.mark.parametrize("change, match", [
    (dict(U=np.zeros((5, 5))), "shape"),
    (dict(U=np.where(np.eye(9, 7) > 0, np.nan, 0.0)), "U must be finite"),
    (dict(opening=-1.0), "opening"),
    (dict(opening=np.inf), "opening"),
    (dict(vertices=[]), "vertices"),
])
def test_slide_rejects_bad_input(change, match):
    g = MAGeometry(0.5)
    args = dict(xs=np.linspace(-1, 1, 9), zs=np.linspace(0.1, 1, 7), U=np.zeros((9, 7)),
                vertices=[(0.0, 0.5)], opening=1.0)
    args.update(change)
    with pytest.raises(ValueError, match=match):
        slide_paraboloids(g, **args)


def test_infconv_rejects_nonfinite_values():
    xs, zs = _rect_grid(9, 7)
    U = np.zeros((9, 7))
    U[3, 2] = np.inf
    with pytest.raises(ValueError, match="finite"):
        inf_convolution(xs, zs, U, 0.1)


def test_runner_touch_check_catches_a_wrong_touch():
    g = MAGeometry(0.5)
    xs, zs, U = sliding_fixture(g, "convex", nx=21, nz=21, opening=1.0)
    rep = slide_paraboloids(g, xs, zs, U, vertex_lattice(xs, zs, 5), 1.0)
    assert _touching_exact(g, xs, zs, U, rep)
    rep.touching_values = rep.touching_values + np.where(np.arange(25) == 7, 1e-9, 0.0)
    assert not _touching_exact(g, xs, zs, U, rep)  # that paraboloid crosses U
    rep.touching_values[7] -= 2e-9
    assert not _touching_exact(g, xs, zs, U, rep)  # below U but off its contacts


def test_sliding_report_counts_contact_cells(tmp_path):
    cfg = validate({"experiment": "slide-paraboloids", "setup": {"s": 0.5},
                    "problem": {"fixture": "convex", "nx": 21, "nz": 21, "vertex_stride": 10}})
    m = run(cfg, str(tmp_path))
    d = m.stages[0]["details"]
    assert d["contact_cells"] == 9 and d["contact_cells_refined"] >= 9


# -- touch test ----------------------------------------------------------------------------


def _touch_state(s, fn, nx=41, nz=40, zmin=1e-3, values=lambda v: v):
    """A 1-D state on [-1, 1] x {0, geomspace(zmin, 1, nz)} holding fn(x, z)
    at its nodes, passed through `values` first."""
    xs = np.linspace(-1.0, 1.0, nx)
    y = transform_to_y(np.concatenate([[0.0], np.geomspace(zmin, 1.0, nz)]), s)
    U = np.broadcast_to(fn(xs[None, :], transform_to_z(y, s)[:, None]), (nz + 1, nx))
    return ExtensionState(s, [xs], y, values(U.copy()), 0.0, 0.0)


def _touch_reference(geom, xs, zs, U, ix0, section_radius):
    """The touch test written on plain (x, z) arrays and U[x, z], for the
    state form to equal bit for bit."""
    x0, u0 = xs[ix0], U[ix0, 0]
    sect = SectionDescriptor((x0,), 0.0, section_radius).contains(geom, xs[:, None], zs[None, :])
    osc = max(1e-12, np.max(np.abs(U[sect] - u0)))
    span = 4.0 * osc / max(1e-12, np.sqrt(2.0 * section_radius))
    dx = xs - x0
    m = sect & (zs > 0)[None, :]
    best = None
    for g in np.linspace(-span, span, 33):
        for q in np.linspace(0.0, 8.0 * osc / max(1e-12, section_radius), 17):
            P = u0 + g * dx[:, None] + 0.5 * q * dx[:, None] ** 2
            if np.all(P[:, 0][sect[:, 0]] >= U[:, 0][sect[:, 0]] - 1e-12) and np.any(m):
                a_min = float(np.max((U - P)[m] / np.broadcast_to(zs[None, :], U.shape)[m]))
                best = a_min if best is None or a_min < best else best
    if best is None:
        return TouchReport(False, None, None)
    return TouchReport(True, float(np.ceil(best / 1e-3) * 1e-3), float(best))


def test_touch_linear_in_z():
    st = _touch_state(0.5, lambda x, z: z + 0.0 * x)
    rep = touch_test(st, len(st.x_axes[0]) // 2, 0.3)
    assert rep.feasible
    assert rep.exact_min_slope == pytest.approx(1.0, abs=1e-10)


def test_touch_concave_h_profile():
    # U = -h(z): h'(0) = 0, so the minimal slope tends to 0 from below as the
    # grid's first z-level shrinks (the lattice floor is -h(z_1)/z_1)
    g = MAGeometry(0.75)
    slopes = []
    for zmin in (1e-3, 1e-5):
        st = _touch_state(0.75, lambda x, z: -g.h(z) + 0.0 * x, zmin=zmin)
        z1 = st.z_nodes[1]
        rep = touch_test(st, 20, 0.3)
        assert rep.feasible and rep.exact_min_slope <= 0.0
        assert abs(rep.exact_min_slope) <= g.h(z1) / z1 + 1e-12
        slopes.append(rep.exact_min_slope)
    assert abs(slopes[1]) < abs(slopes[0])


def test_touch_solved_extension_slope_bound():
    # on a solved Neumann problem, the minimal touching slope approximates the
    # prescribed datum at the touching point within 5%
    s, k = 0.5, 1
    problem, _ = eigen_extension_problem(s, k, Z=1.0)
    st = solve_extension(problem, ExtensionMesh(nx=257, my=128, grading=2.0))
    xs = st.x_axes[0]
    ix0 = int(np.argmin(np.abs(xs - np.pi / 2)))  # sin(kx) = 1 there
    rep = touch_test(st, ix0, 0.002)
    target = -ds_constant(s) * k ** (2 * s) * np.sin(k * xs[ix0])
    assert rep.feasible
    assert abs(rep.exact_min_slope - target) <= 0.05 * abs(target)


@pytest.mark.parametrize("s", [0.3, 0.5, 0.8])
def test_touch_on_a_solved_state_equals_the_array_form(s):
    # the state form reads its geometry, axes and U[x, z] = values.T from the
    # state and must equal the touch test on those arrays, bit for bit
    problem, _ = eigen_extension_problem(s, 1, Z=1.0)
    st = solve_extension(problem, ExtensionMesh(nx=129, my=48))
    reports = []
    for ix0, radius in ((64, 0.01), (20, 0.05), (100, 0.002), (0, 0.01)):
        reports.append(touch_test(st, ix0, radius))
        assert reports[-1] == _touch_reference(st.geom, st.x_axes[0], st.z_nodes,
                                               st.values.T.copy(), ix0, radius)
    assert sum(rep.feasible for rep in reports) >= 3


def test_touch_requires_trace_row():
    xs = np.linspace(-1, 1, 11)
    st = ExtensionState(0.5, [xs], np.linspace(0.1, 1.0, 9), np.zeros((9, 11)), 0.0, 0.0)
    with pytest.raises(ValueError, match="trace row z_nodes"):
        touch_test(st, 5, 0.2)


def test_touch_refuses_a_2d_state():
    xs = np.linspace(-1, 1, 11)
    st = ExtensionState(0.5, [xs, xs], np.linspace(0.0, 1.0, 9), np.zeros((9, 11, 11)), 0.0, 0.0)
    with pytest.raises(ValueError, match="touch test implemented for 1-D x"):
        touch_test(st, 5, 0.2)


@pytest.mark.parametrize("values, ix0, match", [
    (lambda U: U[:-1], 10, re.escape("values must have shape (len(y_nodes), *map(len, x_axes)) "
                                     "= (11, 21), got (10, 21)")),
    (lambda U: np.where(U > 1.5, np.nan, U), 10, "values must be finite, got 6 non-finite values"),
    (lambda U: U, 30, r"ix0 must be a node index in \[0, 21\), got 30"),
    (lambda U: U, 2.0, "ix0 must be a node index"),
], ids=["shape", "nan-values", "ix0-past-the-grid", "ix0-float"])
def test_touch_refuses_malformed_input(values, ix0, match):
    # each of these used to leak an IndexError, or (NaN where U > 1.5) to
    # report a feasible touch with slope 1 read off the finite nodes alone;
    # a field of the wrong shape or with a NaN is refused by the state itself
    with pytest.raises(ValueError, match=match):
        touch_test(_touch_state(0.5, lambda x, z: x * x + z, nx=21, nz=10, values=values),
                   ix0, 0.3)

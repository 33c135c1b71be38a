"""Extension solver: transforms, benchmarks against closed forms, maximum
principle, rescaling, and the derivative-decay measurements."""

import dataclasses
import math
import re
import sys
import tracemalloc
import types
import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import lapack

from fracext import extension, obs, semigroup
from fracext.benchmarks import (eigen_extension_problem, harmonic_combo_problem,
                                x_derivative_scaling, z_decay_exponent)
from fracext.extension import (ExtensionMesh, ExtensionProblem, ExtensionState, HarmonicCombo,
                               harmonic_mode_profile, rescale_solution, solve_extension,
                               transform_to_y, transform_to_z)
from fracext.config import validate
from fracext.geometry import MAGeometry
from fracext.gridfn import BoxGrid, GridFunction
from fracext.runner import run
from fracext.semigroup import (CoefficientField, SemigroupStepper, bessel_extension_profile,
                               ds_constant, extension_via_semigroup_multi,
                               fractional_inverse)


def test_transform_examples():
    # identity at s = 1/2
    zs = np.linspace(0.0, 3.0, 13)
    assert np.array_equal(transform_to_y(zs, 0.5), zs)
    # direct substitution at s = 1/4
    assert transform_to_y(1.0, 0.25) == pytest.approx(0.5, abs=1e-15)
    # round-trip to machine precision, and h(z) = c_s y^2 / 2
    for s in (0.25, 0.6, 0.9):
        g = MAGeometry(s)
        z = np.linspace(1e-6, 2.0, 50)
        y = transform_to_y(z, s)
        assert np.allclose(transform_to_z(y, s), z, rtol=1e-13)
        assert np.allclose(g.h(z), g.c_s * y**2 / 2.0, rtol=1e-12)
    with pytest.raises(ValueError):
        transform_to_y(-1.0, 0.5)


def test_transform_maps_sections_to_intervals():
    # z in S^+_{c_s r} iff y in (0, sqrt(2 r))
    for s in (0.3, 0.75):
        g = MAGeometry(s)
        r = 0.63
        zhi = g.section_interval(0.0, g.c_s * r)[1]
        assert transform_to_y(zhi, s) == pytest.approx(np.sqrt(2.0 * r), rel=1e-12)


def test_constant_solution_exact():
    for s in (0.25, 0.75):
        prob = ExtensionProblem(s=s, coeff=CoefficientField.identity(1),
                                domain=(-1.0, 1.0), Z=1.0, bottom=("neumann", 0.0),
                                g_lateral=3.5, g_top=3.5)
        st = solve_extension(prob, ExtensionMesh(nx=33, my=16))
        assert np.max(np.abs(st.values - 3.5)) < 1e-11
        assert st.residual_interior < 1e-12 and st.residual_bottom < 1e-12


def test_linear_in_z_solution_exact():
    # U = c0 z has constant weighted flux; the scheme reproduces it exactly
    s, c0 = 0.7, 1.3
    prob = ExtensionProblem(s=s, coeff=CoefficientField.identity(1),
                            domain=(-1.0, 1.0), Z=1.0,
                            bottom=("neumann", c0),
                            g_lateral=lambda x, z: c0 * z * np.ones_like(x),
                            g_top=lambda x: c0 * 1.0 * np.ones_like(x))
    st = solve_extension(prob, ExtensionMesh(nx=33, my=24))
    Zq = np.broadcast_to(st.z_nodes[:, None], st.values.shape)
    assert np.max(np.abs(st.values - c0 * Zq)) < 1e-10


def test_eigen_benchmark_all_s():
    for s in (0.25, 0.5, 0.75):
        problem, oracle = eigen_extension_problem(s, 2, Z=1.0)
        st = solve_extension(problem, ExtensionMesh(nx=193, my=64))
        Zq, Xq = np.meshgrid(st.z_nodes, st.x_axes[0], indexing="ij")
        assert np.max(np.abs(st.values - oracle(Xq, Zq))) < 5e-3
        assert np.max(np.abs(st.trace() - np.sin(2 * st.x_axes[0]))) < 5e-3


def test_grid_convergence_monotone():
    s = 0.6
    combo = HarmonicCombo(s, const=1.0, modes=[(0.5, 1.0, 0.3)])
    prob = harmonic_combo_problem(combo, domain=(-1.0, 1.0), Z=1.0)
    errs = []
    for nx, my in ((33, 16), (65, 32), (129, 64)):
        st = solve_extension(prob, ExtensionMesh(nx=nx, my=my))
        Zq, Xq = np.meshgrid(st.z_nodes, st.x_axes[0], indexing="ij")
        errs.append(np.max(np.abs(st.values - combo(Xq, Zq))))
    assert errs[0] > errs[1] > errs[2]


@pytest.mark.parametrize("s", [0.3, 0.7])
def test_harmonic_combo_problem_takes_s_from_the_combination(s):
    # the problem is the zero-Neumann one of the combination at its own s, so
    # the solve gives the field of that problem written out, bit for bit, and
    # stays close to the combination (it missed by 0.84 at a foreign s)
    combo = HarmonicCombo(s, const=1.0, modes=[(0.4, 1.0, 0.2)])
    Z = MAGeometry(s).q_s
    explicit = ExtensionProblem(
        s=s, coeff=CoefficientField.identity(1), domain=(-np.sqrt(2.0), np.sqrt(2.0)), Z=Z,
        bottom=("neumann", 0.0), g_lateral=lambda x, z: combo(x, z),
        g_top=lambda x: combo(x, Z))
    mesh = ExtensionMesh(nx=129, my=48)
    st = solve_extension(harmonic_combo_problem(combo), mesh)
    assert st.s == s and st.geom.s == s
    assert np.array_equal(st.values, solve_extension(explicit, mesh).values)
    Zq, Xq = np.meshgrid(st.z_nodes, st.x_axes[0], indexing="ij")
    assert np.max(np.abs(st.values - combo(Xq, Zq))) < 1e-3


def test_neumann_flux_readback_consistency():
    s, k = 0.5, 2
    problem, oracle = eigen_extension_problem(s, k, Z=1.0)
    mesh = ExtensionMesh(nx=193, my=64)
    neu = solve_extension(problem, mesh)
    xs = neu.x_axes[0]
    fexp = -ds_constant(s) * k ** (2 * s) * np.sin(k * xs[1:-1])
    # the FV read-back reproduces the prescribed datum to solver precision
    assert np.max(np.abs(neu.flux_trace().ravel() - fexp)) < 1e-10
    # duality: Dirichlet-bottom solve reads back the flux within 2x the
    # single-solve field error of the benchmark
    dir_prob = ExtensionProblem(s=s, coeff=CoefficientField.identity(1),
                                domain=(0.0, np.pi), Z=1.0,
                                bottom=("dirichlet", lambda x: np.sin(k * x)),
                                g_lateral=0.0, g_top=problem.g_top)
    std = solve_extension(dir_prob, mesh)
    Zq, Xq = np.meshgrid(std.z_nodes, std.x_axes[0], indexing="ij")
    field_err = np.max(np.abs(std.values - oracle(Xq, Zq)))
    flux_err = np.max(np.abs(std.flux_trace().ravel() - fexp))
    scale = abs(ds_constant(s)) * k ** (2 * s)
    assert flux_err <= 2.0 * scale * max(field_err,
                                         np.max(np.abs(neu.trace() - np.sin(k * xs))))


def test_values_at_refuses_negative_heights():
    st = _random_state("n1")
    with pytest.raises(ValueError, match="half-space z >= 0; z must be nonnegative"):
        st.values_at(np.array([0.0, 0.0]), np.array([0.1, -0.1]))


def _random_state(kind, seed=0):
    """A state with random values on graded axes: n = 1 or n = 2."""
    rng = np.random.default_rng(seed)
    s = rng.uniform(0.1, 0.9)
    n = 2 if kind == "n2" else 1
    x_axes = [np.cumsum(rng.uniform(0.2, 1.0, m)) - 3.0 for m in (17, 9)[:n]]
    y = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 0.2, 12))])
    values = rng.standard_normal((len(y), *(len(a) for a in x_axes))) * 10.0 ** rng.uniform(-3, 3)
    return ExtensionState(s, x_axes, y, values, 0.0, 0.0)


@pytest.mark.parametrize("kind, bad, match", [
    ("n1", np.nan, "values must be finite, got 1 non-finite values"),
    ("n1", np.inf, "values must be finite, got 1 non-finite values"),
    ("n1", "shape", re.escape("values must have shape (len(y_nodes), *map(len, x_axes)) = "
                              "(13, 17), got (13, 16)")),
    ("n2", "shape", re.escape("values must have shape (len(y_nodes), *map(len, x_axes)) = "
                              "(13, 17, 9), got (13, 9, 17)")),
], ids=["nan", "inf", "shape-n1", "shape-n2"])
def test_extension_state_refuses_a_wrong_shape_and_nonfinite_values(kind, bad, match):
    # one finite value per node, or the constructor refuses the field: every
    # measurement that takes a state reads its values unchecked
    st = _random_state(kind)
    if bad == "shape":
        values = st.values[..., :-1] if kind == "n1" else st.values.transpose(0, 2, 1)
    else:
        values = st.values.copy()
        values.flat[40] = bad
    with pytest.raises(ValueError, match=match):
        ExtensionState(st.s, st.x_axes, st.y_nodes, values, 0.0, 0.0)


def _queries(st, rng, count):
    zmax = st.z_nodes[-1]
    z = rng.uniform(0.0, zmax, count)
    xs = [rng.uniform(a[0], a[-1], count) for a in st.x_axes]
    return (xs[0] if st.n == 1 else np.stack(xs, axis=-1)), z


@pytest.mark.parametrize("kind", ["n1", "n2"])
@pytest.mark.parametrize("seed", range(4))
def test_values_at_matches_scipy_regular_grid_interpolator(kind, seed):
    from scipy.interpolate import RegularGridInterpolator
    st = _random_state(kind, seed)
    ref = RegularGridInterpolator((st.geom.h(st.z_nodes), *st.x_axes), st.values,
                                  method="linear", bounds_error=True)
    tol = 4 * np.spacing(np.max(np.abs(st.values)))
    rng = np.random.default_rng(100 + seed)
    x, z = _queries(st, rng, 500)
    pts = np.column_stack([st.geom.h(z), x])
    assert np.max(np.abs(st.values_at(x, z) - ref(pts))) <= tol
    # on the nodes, including the last ones, the node values come back exactly
    mesh = np.meshgrid(st.z_nodes, *st.x_axes, indexing="ij")
    xn = mesh[1] if st.n == 1 else np.stack(mesh[1:], axis=-1)
    assert np.array_equal(st.values_at(xn, mesh[0]), st.values)
    x, z, v = st.node_points()  # flat, x as (N, n) for n > 1
    assert np.array_equal(st.values_at(x, z), v)


@pytest.mark.parametrize("kind", ["n1", "n2"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_values_at_refuses_nonfinite_queries(kind, bad):
    st = _random_state(kind)
    x, z = _queries(st, np.random.default_rng(1), 5)
    st.values_at(x, z)
    xq, zq = x.copy(), z.copy()
    xq.flat[2] = zq[2] = bad
    with pytest.raises(ValueError):
        st.values_at(xq, z)
    with pytest.raises(ValueError):
        st.values_at(x, zq)


@pytest.mark.parametrize("kind", ["n1", "n2"])
@pytest.mark.parametrize("seed", range(3))
def test_values_at_broadcast_operands_equal_pointwise_queries(kind, seed):
    # cells are found per operand before the operands broadcast: a (1, nx)
    # x against an (nz, 1) z, a scalar z and a flat query give every point
    # the bits of its own one-point query, grid edges included
    st = _random_state(kind, seed)
    rng = np.random.default_rng(200 + seed)
    x, _ = _queries(st, rng, 7)
    x[0] = st.x_axes[0][0] if st.n == 1 else [a[0] for a in st.x_axes]
    x[-1] = st.x_axes[0][-1] if st.n == 1 else [a[-1] for a in st.x_axes]
    z = np.concatenate([[0.0], rng.uniform(0.0, st.z_nodes[-1], 3), [st.z_nodes[-1]]])
    grid = st.values_at(x[None], z[:, None])
    point = np.array([[st.values_at(xj, zi) for xj in x] for zi in z])
    assert grid.shape == point.shape == (5, 7) and np.array_equal(grid, point)
    flat_x = np.broadcast_to(x[None], (5, *x.shape)).reshape(35, *x.shape[1:])
    flat_z = np.broadcast_to(z[:, None], (5, 7)).ravel()
    assert np.array_equal(st.values_at(flat_x, flat_z), grid.ravel())
    for zi, row in zip(z, grid):
        assert np.array_equal(st.values_at(x, zi), row)


@pytest.mark.parametrize("shape", [(3, 1), (3, 3), (3,), ()])
def test_values_at_refuses_an_x_without_n_coordinates(shape):
    # an n = 2 state reads the last axis of x as the point's coordinates: a
    # (3, 1) x leaked an IndexError, a (3, 3) or (3,) x dropped a coordinate
    st = _random_state("n2")
    with pytest.raises(ValueError, match=re.escape(
            f"an n = 2 state takes x of shape (..., 2), got {shape}")):
        st.values_at(np.zeros(shape), 0.1)


def test_rescale_identity_and_oracle():
    s = 0.75
    combo = HarmonicCombo(s, const=1.0, modes=[(0.3, 1.0, 0.5)])
    prob = harmonic_combo_problem(combo)
    st = solve_extension(prob, ExtensionMesh(nx=129, my=48))
    r1 = rescale_solution(st, 1.0)
    assert np.array_equal(r1.values, st.values)
    # V(x, z) = U(rho x, rho^{2s} z) on the pulled-back nodes, checked against
    # the exact combination
    rho = 0.5
    V = rescale_solution(st, rho)
    assert np.array_equal(V.values, st.values)
    assert np.array_equal(V.x_axes[0], st.x_axes[0] / rho)
    Zq, Xq = np.meshgrid(V.z_nodes, V.x_axes[0], indexing="ij")
    assert np.max(np.abs(V.values - combo(rho * Xq, rho ** (2 * s) * Zq))) < 5e-4
    with pytest.raises(ValueError):
        rescale_solution(st, 0.0)


def test_rescaled_states_report_the_rescaled_flux():
    # V(x, z) = U(rho x, rho^{2s} z) has d_z V(x, 0) = rho^{2s} d_z U(rho x, 0)
    s, rho, k = 0.4, 0.5, 2
    problem, _ = eigen_extension_problem(s, k)
    U = solve_extension(problem, ExtensionMesh(nx=65, my=32))
    V = rescale_solution(U, rho)
    assert np.array_equal(V.flux_trace(), rho ** (2 * s) * U.flux_trace())
    xv = V.x_axes[0][1:-1]
    exact = -ds_constant(s) * k ** (2 * s) * np.sin(k * rho * xv)
    assert np.max(np.abs(V.flux_trace() - rho ** (2 * s) * exact)) < 1e-10
    # a state built from sampled values has no finite-volume flux: it reads
    # the two-point flux of its first face, on every x-node
    xs, ys = np.linspace(0.0, np.pi, 33) / rho, U.y_nodes[::2] / rho
    Zq, Xq = np.meshgrid(transform_to_z(ys, s), xs, indexing="ij")
    W = ExtensionState(s, [xs], ys, U.values_at(rho * Xq, rho ** (2 * s) * Zq), 0.0, 0.0)
    assert W.flux_trace().shape == (33,)
    assert np.array_equal(W.flux_trace(), W.z_derivative_faces()[1][0])


def test_hopf_maximum_principle_fixtures():
    # harmonic solves attain extrema on the lateral/top boundary, exactly
    fixtures = [
        (0.25, lambda x, z: 1.0 + 0.5 * np.sin(2 * x) + 0.2 * z * np.ones_like(x)),
        (0.5, lambda x, z: np.cos(x) + 0.1 * z**2 * np.ones_like(x)),
        (0.75, lambda x, z: 1.0 + 0.3 * np.sin(3 * x + 0.4) * np.ones_like(x)),
    ]
    for s, g in fixtures:
        prob = ExtensionProblem(s=s, coeff=CoefficientField.identity(1),
                                domain=(-1.0, 1.0), Z=1.0, bottom=("neumann", 0.0),
                                g_lateral=g, g_top=lambda x, g=g: g(x, 1.0))
        st = solve_extension(prob, ExtensionMesh(nx=49, my=24))
        interior = st.values[:-1, 1:-1]
        boundary = np.concatenate([st.values[-1], st.values[:, 0], st.values[:, -1]])
        assert interior.max() <= boundary.max() + 1e-11
        assert interior.min() >= boundary.min() - 1e-11


def test_z_derivative_decay_exponent():
    p = z_decay_exponent(0.5, nx=97, my=96)
    assert abs(p - 1.0) < 0.1


def test_x_derivative_scaling_exponents():
    for order in (1, 2):
        p = x_derivative_scaling(0.5, order, kmodes=(1.0, 2.0, 4.0), nx=193, my=32)
        assert abs(p + order / 2.0) < 0.15


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("field, changes", [
    ("Z", dict(Z=-1.0)),
    ("Z", dict(Z=np.nan)),
    ("Z", dict(Z=np.inf)),
    ("domain", dict(domain=(0.0, np.inf))),
    ("domain", dict(domain=(np.nan, 1.0))),
    ("domain", dict(domain=(1.0, 1.0))),
    ("domain", dict(domain=(1.0, -1.0))),
    ("domain", dict(coeff=CoefficientField.identity(2), domain=((0.0, 1.0), (0.0, np.inf)))),
    ("domain", dict(coeff=CoefficientField.identity(2), domain=((0.0, 1.0), (1.0, 0.0)))),
    ("domain", dict(domain=((0.0, 1.0), (0.0, 1.0)))),
    ("domain", dict(coeff=CoefficientField.identity(2), domain=(0.0, 1.0))),
    ("domain", dict(coeff=CoefficientField.identity(2), domain=((0.0, 1.0), (0.0,)))),
    ("domain", dict(coeff=CoefficientField.identity(2), domain=(0.0, 1.0, 0.0, 1.0))),
], ids=["Z-negative", "Z-nan", "Z-inf", "1d-inf", "1d-nan", "1d-empty", "1d-reversed",
        "2d-inf", "2d-reversed", "1d-two-axes", "2d-one-axis", "2d-ragged", "2d-flat"])
def test_extension_problem_refuses_bad_height_and_domain(field, changes):
    # refused up front, naming the field, before any warning, a y-node message
    # that blames the grading or a raw broadcast error
    kwargs = dict(s=0.5, coeff=CoefficientField.identity(1), domain=(-1.0, 1.0), Z=1.0)
    kwargs.update(changes)
    with pytest.raises(ValueError, match=f"^{field} "):
        solve_extension(ExtensionProblem(**kwargs), ExtensionMesh(nx=9, my=4, grading=1.0))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_extreme_heights_fail_fast_naming_z(s, tmp_path):
    # Z = 1e-300 overflows the y-pencil (or underflows Y), Z = 1e300 overflows
    # h(Z); both are refused before any warning, naming Z
    mesh = ExtensionMesh(nx=257, my=96)
    for Z in (1e-300, 1e300):
        with pytest.raises(ValueError, match=re.escape(f"height Z = {Z:g} ")):
            solve_extension(eigen_extension_problem(s, 1, Z=Z)[0], mesh)
    for Z in (1e-60, 1e30):
        state = solve_extension(eigen_extension_problem(s, 1, Z=Z)[0], mesh)
        assert np.all(np.isfinite(state.values))
    cfg = validate({"experiment": "solve-extension", "setup": {"s": s}, "problem": {"Z": 1e-300}})
    stage = run(cfg, str(tmp_path)).stages[0]
    assert stage["status"] == "error"
    assert "height Z = 1e-300" in stage["details"]["exception"]


def test_2d_solver_constant_and_max_principle():
    # a12 = 0.3 with a11 = a22 = 1 has eigenvalues 0.7 and 1.3, exactly the
    # declared bounds (the plane2d benchmark's mixed2d field): accepted
    coeff = CoefficientField.full_2d(lambda x, y: 1.0 + 0 * x,
                                     lambda x, y: 0.3 + 0 * x,
                                     lambda x, y: 1.0 + 0 * x, 0.7, 1.3)
    p = ExtensionProblem(s=0.6, coeff=coeff, domain=((0.0, 1.0), (0.0, 1.0)), Z=0.5,
                         bottom=("neumann", 0.0), g_lateral=2.0, g_top=2.0)
    st = solve_extension(p, ExtensionMesh(nx=(13, 13), my=10))
    assert np.max(np.abs(st.values - 2.0)) < 1e-11
    pm = ExtensionProblem(s=0.6, coeff=coeff, domain=((0.0, 1.0), (0.0, 1.0)), Z=0.5,
                          bottom=("neumann", 0.0),
                          g_lateral=lambda x1, x2, z:
                          1.0 + 0.5 * np.sin(3 * x1) * np.cos(2 * x2) + 0.2 * z,
                          g_top=lambda x1, x2: 1.3 + 0.4 * np.cos(x1 + x2))
    stm = solve_extension(pm, ExtensionMesh(nx=(13, 13), my=10))
    inner = stm.values[:-1, 1:-1, 1:-1]
    boundary = np.concatenate([stm.values[-1].ravel(), stm.values[:, 0, :].ravel(),
                               stm.values[:, -1, :].ravel(), stm.values[:, :, 0].ravel(),
                               stm.values[:, :, -1].ravel()])
    assert inner.max() <= boundary.max() + 1e-11
    assert inner.min() >= boundary.min() - 1e-11


def _constant_field(n, comps, lam, Lam):
    if n == 1:
        return CoefficientField(1, lambda x: np.full(np.shape(x), comps[0]), lam, Lam)
    return CoefficientField.full_2d(*(lambda x, y, v=v: np.full(np.broadcast(x, y).shape, v)
                                      for v in comps), lam, Lam)


@pytest.mark.parametrize("n, comps, lam, Lam, node", [
    (1, (1.0,), 30.0, 30.0, "(0.125): a11 = 1"),
    (1, (np.inf,), 0.5, 1.5, "(0.125): a11 = inf"),
    (1, (np.nan,), 0.5, 1.5, "(0.125): a11 = nan"),
    (2, (1.0, 0.0, 1.0), 30.0, 30.0, "(0.125, 0.125): a11 = 1, a12 = 0, a22 = 1"),
    (2, (1.0, 0.0, np.inf), 0.5, 1.5, "(0.125, 0.125): a11 = 1, a12 = 0, a22 = inf"),
    (2, (np.nan, 0.0, 1.0), 0.5, 1.5, "(0.125, 0.125): a11 = nan, a12 = 0, a22 = 1")])
def test_extension_refuses_a_field_outside_its_declared_bounds(n, comps, lam, Lam, node):
    # the solve and the fractional powers share x_operator's one check: the
    # same ValueError names the bounds and the first interior node, and NaN
    # or inf components fail it without a RuntimeWarning
    coeff = _constant_field(n, comps, lam, Lam)
    domain = (0.0, 1.0) if n == 1 else ((0.0, 1.0), (0.0, 1.0))
    grid = BoxGrid((0.0,) * n, (1.0,) * n, (9,) * n)
    problem = ExtensionProblem(s=0.5, coeff=coeff, domain=domain, Z=1.0)
    mesh = ExtensionMesh(nx=9 if n == 1 else (9, 9), my=8)
    message = re.escape(f"declared ellipticity bounds [{lam:g}, {Lam:g}] at node {node}")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            solve_extension(problem, mesh)
        with pytest.raises(ValueError, match=message):
            SemigroupStepper(coeff, grid)


def test_harmonic_mode_profile_value_at_zero():
    for s in (0.25, 0.75):
        assert harmonic_mode_profile(s, 2.0, 0.0) == 1.0
        prof = harmonic_mode_profile(s, 2.0, np.array([0.0, 0.5, 1.0]))
        assert prof[0] == 1.0 and np.all(np.diff(prof) > 0)


@pytest.mark.parametrize("s", [0.05, 0.3, 0.7, 0.95])
def test_harmonic_mode_profile_is_one_where_k_y_vanishes(s):
    # k = 0 is the constant mode; a k y that underflows to 0 reads as y = 0.
    # Elsewhere the closed form keeps its bits.
    from scipy.special import gamma, iv
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(harmonic_mode_profile(s, 0.0, np.array([0.0, 0.5, 1e300])),
                              np.ones(3))
        assert harmonic_mode_profile(s, 0, 0.5) == 1.0
        assert harmonic_mode_profile(s, 1e-200, 1e-200) == 1.0
        assert harmonic_mode_profile(s, -0.0, 0.5) == 1.0
        combo = HarmonicCombo(s, 1.0, [(1.0, 0.0, 0.0)])
        assert np.array_equal(combo(np.array([0.1, 2.0]), np.array([0.0, 0.4])), [2.0, 2.0])
        y = np.array([1e-12, 0.5, 3.0, 0.0])
        w = 2.0 * y[:3]
        ref = gamma(1.0 - s) * (w / 2.0) ** s * iv(-s, w)
        assert np.array_equal(harmonic_mode_profile(s, 2.0, y), np.append(ref, 1.0))


@pytest.mark.parametrize("k", [-2.0, -1e-300, np.nan, np.inf, -np.inf])
def test_harmonic_mode_profile_refuses_a_negative_or_non_finite_k(k):
    with pytest.raises(ValueError, match=re.escape(f"got k = {k}")):
        harmonic_mode_profile(0.3, k, np.array([0.0, 0.5]))
    with pytest.raises(ValueError, match="wave number"):
        HarmonicCombo(0.3, 1.0, [(1.0, k, 0.0)])(0.2, 0.5)


@pytest.mark.parametrize("s", [0.3, 0.5, 0.75])
def test_harmonic_combo_refuses_negative_heights(s):
    # the combo is a half-space field, as ExtensionState is: z < 0 is refused,
    # and -0.0 is the height 0.0
    combo = HarmonicCombo(s, 0.3, [(0.5, 1.0, 0.4), (0.2, 2.0, 1.1)])
    x = np.linspace(-1.0, 1.0, 5)
    with pytest.raises(ValueError, match="transform defined for z >= 0"):
        combo(x, -0.4)
    with pytest.raises(ValueError, match="transform defined for z >= 0"):
        combo(x[None, :], np.array([0.1, -0.4])[:, None])
    assert combo(x, -0.0).tobytes() == combo(x, 0.0).tobytes()


def test_state_save_roundtrip(tmp_path):
    problem, _ = eigen_extension_problem(0.5, 1, Z=1.0)
    st = solve_extension(problem, ExtensionMesh(nx=33, my=12))
    base = str(tmp_path / "state")
    st.save(base)
    from fracext.gridfn import read_grid_binary
    vals, axes = read_grid_binary(base + ".bin")
    assert np.array_equal(vals, st.values)
    assert np.allclose(axes[0], st.z_nodes)
    assert np.array_equal(axes[1], st.x_axes[0])
    import json
    sidecar = json.loads(open(base + ".json").read())
    assert sidecar["s"] == 0.5 and "residual_interior" in sidecar
    assert sorted(sidecar) == ["meta", "residual_bottom", "residual_interior", "s"]


def _tridiagonal(diagonals):
    """The CSR matrix of (lower, main, upper) diagonals."""
    return sp.diags(diagonals, [-1, 0, 1], format="csr")


def _assembled(op):
    """The matrix Ay (x) I + diag(V) (x) Ax that a level operator applies."""
    return (sp.kron(_tridiagonal(op.Ay), sp.identity(op.Ax.shape[0]), format="csr")
            + sp.kron(sp.diags(op.V), op.Ax, format="csr"))


def _solve_capturing_system(problem, mesh, assemble=True):
    """solve_extension plus the system (A, rhs) its linear solve received; A is
    assembled from the operator's factors unless `assemble` is False."""
    seen = {}

    def spy(A, rhs, solve):
        seen.update(A=A, rhs=rhs)
        return checked(A, rhs, solve)

    checked = extension._checked_solve
    with mock.patch.object(extension, "_checked_solve", spy):
        state = solve_extension(problem, mesh)
    return state, _assembled(seen["A"]) if assemble else seen["A"], seen["rhs"]


def _variable_1d_problem(s, lam, Lam, freq, bottom):
    coeff = CoefficientField(
        1, lambda x: lam + (Lam - lam) * (0.5 + 0.5 * np.sin(freq * x)), lam, Lam)
    return ExtensionProblem(s=s, coeff=coeff, domain=(-1.0, 1.0), Z=1.0,
                            bottom=(bottom, lambda x: np.cos(2.0 * x)),
                            F=lambda x, z: x * z,
                            g_lateral=lambda x, z: 1.0 + x * z,
                            g_top=lambda x: 1.0 + x)


def _variable_2d_problem(s, nx1, nx2, c12, freq, bottom):
    # variable a^{ij} with a12 != 0 make Ax nonsymmetric; square cells and
    # |a12| <= c12 < min(a11, a22) keep the upwinded mixed stencil
    coeff = CoefficientField.full_2d(lambda x1, x2: 1.0 + 0.5 * np.sin(freq * x1) ** 2,
                                     lambda x1, x2: c12 * np.cos(freq * (x1 + x2)),
                                     lambda x1, x2: 1.0 + 0.5 * np.cos(freq * x2) ** 2,
                                     0.5, 2.0)
    half = (nx2 - 1) / (nx1 - 1)
    return ExtensionProblem(s=s, coeff=coeff, domain=((-1.0, 1.0), (-half, half)), Z=1.0,
                            bottom=(bottom, lambda x1, x2: np.cos(2.0 * x1) * np.sin(x2 + 1.0)),
                            F=lambda x1, x2, z: x1 * z + x2,
                            g_lateral=lambda x1, x2, z: 1.0 + x1 * z - x2,
                            g_top=lambda x1, x2: 1.0 + x1 + x2 * x2)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.05, 0.85), st.integers(17, 129), st.integers(8, 64),
       st.none() | st.floats(1.0, 3.0), st.floats(0.2, 1.0), st.floats(1.0, 1e3),
       st.floats(0.5, 6.0), st.sampled_from(["neumann", "dirichlet"]))
@example(0.4, 65, 32, 2.0, 0.2, 1e3, 6.0, "neumann")  # a(x) spans [0.2, 200]
def test_1d_y_mode_diagonalization_matches_sparse_lu(s, nx, my, x_grading, lam, ratio, freq,
                                                     bottom):
    if x_grading is not None:
        nx += 1 - nx % 2  # a graded x-axis needs an odd node count
    prob = _variable_1d_problem(s, lam, lam * ratio, freq, bottom)
    mesh = ExtensionMesh(nx=nx, my=my, x_grading=x_grading)
    state, A, rhs = _solve_capturing_system(prob, mesh)
    j0 = 0 if bottom == "neumann" else 1
    field = state.values[j0:my, 1:-1].ravel()
    ref = spla.spsolve(A.tocsc(), rhs)
    # Two backward-stable solutions differ by at most omega |A^{-1}| (|A||x| + |b|)
    # (omega: the sum of their componentwise backward errors).  -A is an
    # M-matrix, so |A^{-1}| = (-A)^{-1} and one solve gives the bound.  It
    # exceeds 1e-10 max|U| only where K_{1/2} is huge (s > ~0.8 and fine y-meshes).
    g = np.abs(A) @ np.abs(ref) + np.abs(rhs)
    omega = np.max(np.abs(A @ ref - rhs) / g) + max(state.residual_interior,
                                                    state.residual_bottom)
    bound = omega * spla.spsolve(-A.tocsc(), g)
    assert np.all(np.abs(field - ref) <= 1e-10 * np.max(np.abs(state.values)) + bound)
    assert state.residual_interior <= 1e-12
    assert state.residual_bottom <= 1e-12


def _per_level_solve(problem, mesh):
    """Reference for `solve_extension` that calls the data once per level
    with a scalar height and builds the right-hand side row by row (the
    lateral data on the boundary nodes); the linear solve is the solver's.
    Returns (values, residual_interior, residual_bottom, flux_trace_fv, the
    raveled right-hand side)."""
    s, n, my = problem.s, problem.coeff.n, mesh.my
    axes = mesh.x_axes(problem.domain, n)
    _, y, K, Vw = extension._y_cells(problem.Z, s, mesh)
    Ax, Bx = semigroup.x_operator(problem.coeff, axes)
    Xint = np.meshgrid(*[ax[1:-1] for ax in axes], indexing="ij")
    Xfull = np.meshgrid(*axes, indexing="ij")
    kind, bdata = problem.bottom
    j0 = 0 if kind == "neumann" else 1
    inner = (slice(1, -1),) * n
    edge = np.ones(Xfull[0].shape, dtype=bool)
    edge[inner] = False
    X_edge = [X[edge] for X in Xfull]
    B_edge = Bx[:, edge.ravel()]
    zlev = transform_to_z(y, s)
    lateral = np.empty((my + 1, len(X_edge[0])))
    rhs = np.empty((my - j0, Ax.shape[0]))
    for j in range(my + 1):
        lateral[j] = problem.g_lateral(*X_edge, zlev[j])
        if j < my:
            BGj = B_edge @ lateral[j]
            Fj = np.broadcast_to(problem.F(*Xint, zlev[j]), Xint[0].shape).ravel()
            if j == 0:
                F0, BG0 = Fj, BGj
            if j >= j0:
                rhs[j - j0] = Vw[j] * Fj - Vw[j] * BGj
    g_top = np.broadcast_to(problem.g_top(*Xint), Xint[0].shape)
    u_bottom = np.broadcast_to(bdata(*Xint), Xint[0].shape)
    if kind == "neumann":
        rhs[0] += (2.0 * s) ** (1.0 - 2.0 * s) * u_bottom.ravel()
    else:
        rhs[0] -= K[0] * u_bottom.ravel()
    rhs[-1] -= K[my - 1] * g_top.ravel()
    off = K[j0:my - 1]
    diags = (off, -(K[j0:my] + np.concatenate([[0.0], K])[j0:my]), off)
    sol, err, _ = extension._checked_solve(extension._LevelOperator(diags, Vw[j0:my], Ax),
                                           rhs.ravel(),
                                           extension._y_mode_solver(diags, Vw[j0:my], Ax))
    W = np.empty((my + 1,) + edge.shape)
    W[:, edge] = lateral
    W[(my,) + inner] = g_top
    if kind == "dirichlet":
        W[(0,) + inner] = u_bottom
    W[(slice(j0, my),) + inner] = sol.reshape((my - j0,) + Xint[0].shape)
    w0, w1 = W[(0,) + inner].ravel(), W[(1,) + inner].ravel()
    flux = extension._dz_factor(s) * (K[0] * (w1 - w0) + Vw[0] * (Ax @ w0 + BG0 - F0))
    if kind == "neumann":
        res = float(np.max(err[1:])) if len(err) > 1 else 0.0, float(err[0])
    else:
        res = float(np.max(err)), 0.0
    return (W, *res, flux.reshape(Xint[0].shape), rhs.ravel())


_EPS = np.finfo(float).eps


def _constant_problem(n, bottom):
    domain = (-1.0, 1.0) if n == 1 else ((-1.0, 1.0), (0.0, 1.5))
    return ExtensionProblem(s=0.3, coeff=CoefficientField.identity(n), domain=domain, Z=1.0,
                            bottom=(bottom, 0.25), F=0.5, g_lateral=1.0, g_top=2.0)


def _array_power_problem(n, bottom):
    """Data through array powers: 1-D, HarmonicCombo lateral and top data;
    2-D, the plane2d benchmark's mixed-term source 2 a12 cos x1 cos x2 phi(z)
    (phi the Bessel profile of lam = 2)."""
    if n == 1:
        combo = HarmonicCombo(0.35, 1.0, [(0.3, 1.0, 0.2), (0.2, 3.0, 1.0)])
        return ExtensionProblem(s=0.35, coeff=CoefficientField.identity(1), domain=(-1.0, 1.0),
                                Z=1.0, bottom=(bottom, lambda x: combo(x, 0.0)),
                                g_lateral=combo, g_top=lambda x: combo(x, 1.0))
    s, a12 = 0.7, 0.3
    coeff = CoefficientField.full_2d(lambda x1, x2: 1.0 + 0.0 * x1, lambda x1, x2: a12 + 0.0 * x1,
                                     lambda x1, x2: 1.0 + 0.0 * x1, 1.0 - a12, 1.0 + a12)
    return ExtensionProblem(
        s=s, coeff=coeff, domain=((0.0, np.pi), (0.0, np.pi)), Z=1.0,
        bottom=(bottom, lambda x1, x2: np.sin(x1) * np.sin(x2)),
        F=lambda x1, x2, z: 2.0 * a12 * np.cos(x1) * np.cos(x2)
        * bessel_extension_profile(2.0, s, z),
        g_top=lambda x1, x2: np.sin(x1) * np.sin(x2) * bessel_extension_profile(2.0, s, 1.0))


_DATA_CASES = {
    "constant": _constant_problem,
    "polynomial": lambda n, bottom: (_variable_1d_problem(0.4, 0.5, 1.5, 2.0, bottom) if n == 1
                                     else _variable_2d_problem(0.4, 13, 11, 0.3, 2.0, bottom)),
    "array-powers": _array_power_problem,
}


@pytest.mark.parametrize("data", sorted(_DATA_CASES))
@pytest.mark.parametrize("bottom", ["neumann", "dirichlet"])
@pytest.mark.parametrize("n", [1, 2])
def test_one_call_per_datum_matches_the_per_level_reference(n, bottom, data):
    # constant and polynomial data give the reference's bits everywhere.  Data
    # through array powers may differ in the last bits from their per-level
    # scalar values: the right-hand sides and the boundary values agree to 4
    # ulp, the unknowns to the bound that two backward-stable solves of those
    # systems obey (see test_1d_y_mode_diagonalization_matches_sparse_lu).
    # The flux read-back multiplies the unknowns' differences by K_{1/2}, so
    # there it is compared on exact data only
    prob = _DATA_CASES[data](n, bottom)
    mesh = ExtensionMesh(nx=49, my=20) if n == 1 else ExtensionMesh(nx=(13, 11), my=12)
    state, A, rhs = _solve_capturing_system(prob, mesh)
    values, res_int, res_bottom, flux, ref_rhs = _per_level_solve(prob, mesh)
    if data != "array-powers":
        for got, ref in zip((state.values, state.residual_interior, state.residual_bottom,
                             state.meta["flux_trace_fv"], rhs),
                            (values, res_int, res_bottom, flux, ref_rhs)):
            assert np.array_equal(got, ref)
        return
    assert np.all(np.abs(rhs - ref_rhs) <= 4.0 * _EPS * (np.abs(rhs) + np.abs(ref_rhs)))
    unknowns = (slice(0 if bottom == "neumann" else 1, -1),) + (slice(1, -1),) * n
    data_nodes = np.ones(values.shape, dtype=bool)
    data_nodes[unknowns] = False
    assert np.all(np.abs(state.values - values)[data_nodes]
                  <= 4.0 * _EPS * np.abs(values)[data_nodes])
    field, ref = state.values[unknowns].ravel(), values[unknowns].ravel()
    g = np.abs(A) @ np.abs(ref) + np.abs(ref_rhs)
    omega = max(res_int, res_bottom) + max(state.residual_interior, state.residual_bottom)
    bound = spla.spsolve(-A.tocsc(), omega * g + np.abs(rhs - ref_rhs))
    assert np.all(np.abs(field - ref) <= bound)


def _counted(fn, calls, name):
    def counted(*args):
        calls[name] += 1
        return fn(*args)
    return counted


@pytest.mark.parametrize("bottom", ["neumann", "dirichlet"])
@pytest.mark.parametrize("n", [1, 2])
def test_each_datum_is_called_once_per_solve(n, bottom):
    prob = _DATA_CASES["polynomial"](n, bottom)
    calls = Counter()
    prob = dataclasses.replace(prob, bottom=(bottom, _counted(prob.bottom[1], calls, "bottom")),
                               **{name: _counted(getattr(prob, name), calls, name)
                                  for name in ("F", "g_lateral", "g_top")})
    solve_extension(prob, ExtensionMesh(nx=17, my=8) if n == 1 else ExtensionMesh((13, 11), 8))
    assert calls == {"F": 1, "g_lateral": 1, "g_top": 1, "bottom": 1}


def _bad_datum(n, datum, wrong_shape):
    """A datum written for one height or one node at a time (math.sin), or
    one whose value has the wrong shape."""
    if wrong_shape:
        return lambda *args: np.ones(7)
    if datum in ("F", "g_lateral"):
        return (lambda x, z: x * math.sin(z)) if n == 1 else (lambda x1, x2, z: x1 * math.sin(z))
    return (lambda x: math.cos(x)) if n == 1 else (lambda x1, x2: x2 * math.cos(x1))


_CONTRACTS = {"F": r"F\(x, z\) must accept z as an array of heights broadcasting against x",
              "g_lateral": r"g_lateral\(x, z\) must accept z as an array of heights "
                           "broadcasting against x",
              "g_top": r"g_top\(x\) must accept x as an array of nodes",
              "bottom": r"bottom\(x\) must accept x as an array of nodes"}


@pytest.mark.parametrize("wrong_shape", [False, True], ids=["scalar-only", "wrong-shape"])
@pytest.mark.parametrize("datum", sorted(_CONTRACTS))
@pytest.mark.parametrize("n", [1, 2])
def test_data_that_cannot_take_arrays_are_refused(n, datum, wrong_shape):
    # a ValueError naming the datum and its contract, never numpy's TypeError
    bad = _bad_datum(n, datum, wrong_shape)
    prob = dataclasses.replace(_DATA_CASES["polynomial"](n, "neumann"),
                               **{datum: ("neumann", bad) if datum == "bottom" else bad})
    mesh = ExtensionMesh(nx=17, my=8) if n == 1 else ExtensionMesh((13, 11), 8)
    with pytest.raises(ValueError, match=_CONTRACTS[datum]):
        solve_extension(prob, mesh)


@pytest.mark.parametrize("n, bottom, nx, my", [(1, "neumann", 1025, 64),
                                               (2, "dirichlet", (13, 11), 8)])
def test_extension_solves_count_their_work(n, bottom, nx, my):
    # levels x interior x-nodes unknowns, one y-mode per level, and the
    # fewest equal blocks of at most _BLOCK_BYTES (4 at 1025 x 64, 1 in 2-D)
    prob = _DATA_CASES["polynomial"](n, bottom)
    extension._pencil_modes.cache_clear()
    with obs.recording() as counts:
        state = solve_extension(prob, ExtensionMesh(nx=nx, my=my))
    nl = my if bottom == "neumann" else my - 1
    nxi = int(np.prod(np.subtract(nx, 2)))
    assert {k: v for k, v in counts.items() if k.startswith("extension.")} == {
        "extension.solves": 1, "extension.unknowns": nl * nxi, "extension.y_modes": nl,
        "extension.level_blocks": 4 if n == 1 else 1, "extension.pencil_factorizations": 1,
        "extension.refinements_kept": int(state.meta["refinement_kept"])}


@pytest.mark.parametrize("bottom", ["neumann", "dirichlet"])
@pytest.mark.parametrize("n", [1, 2])
def test_solves_on_one_y_mesh_share_one_pencil_factorization(n, bottom):
    # no coefficient or datum enters the y-pencil: a second problem on the
    # same (s, Z, my, grading, bottom) factors nothing, and its field has the
    # bits of the same solve with the pencil factored afresh
    if n == 1:
        first = _variable_1d_problem(0.4, 0.5, 1.5, 2.0, bottom)
        second = _variable_1d_problem(0.4, 0.8, 3.0, 5.0, bottom)
        mesh = ExtensionMesh(nx=49, my=20)
    else:
        first = _variable_2d_problem(0.4, 13, 11, 0.3, 2.0, bottom)
        second = _variable_2d_problem(0.4, 13, 11, 0.2, 3.0, bottom)
        mesh = ExtensionMesh(nx=(13, 11), my=12)
    second = dataclasses.replace(second, bottom=(bottom, lambda *x: 2.0 + x[0]),
                                 F=lambda *xz: np.sin(xz[0]) * xz[-1],
                                 g_top=lambda *x: 1.0 - x[0])
    extension._pencil_modes.cache_clear()
    solve_extension(first, mesh)
    with obs.recording() as counts:
        reused = solve_extension(second, mesh)
    assert counts["extension.pencil_factorizations"] == 0
    extension._pencil_modes.cache_clear()
    with obs.recording() as counts:
        fresh = solve_extension(second, mesh)
    assert counts["extension.pencil_factorizations"] == 1
    for got, ref in ((reused.values, fresh.values),
                     (reused.residual_interior, fresh.residual_interior),
                     (reused.residual_bottom, fresh.residual_bottom),
                     (reused.meta["flux_trace_fv"], fresh.meta["flux_trace_fv"])):
        assert np.array_equal(got, ref)


def test_pencil_modes_are_read_only():
    # every solve on the y-mesh is handed the same arrays
    d, e = np.array([-3.0, -2.0, -2.5]), np.array([1.0, 0.5])
    mu, P = extension._pencil_modes(d.tobytes(), e.tobytes())
    assert extension._pencil_modes(d.tobytes(), e.tobytes())[1] is P
    assert np.allclose(P @ np.diag(mu) @ P.T, np.diag(d) + np.diag(e, 1) + np.diag(e, -1),
                       rtol=0.0, atol=1e-14)
    for arr in (mu, P):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def _traced_peak(fn):
    """fn() and the peak of the bytes it had allocated at once (tracemalloc)."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("bottom", ["neumann", "dirichlet"])
def test_1d_solve_holds_at_most_seven_solution_arrays(bottom):
    # the right-hand side, the symmetric mode factors (2 per unknown), the
    # solution, one work array (the residual, then the refined solution) and
    # the mode-transform temporary, plus one for the blocks of the backward
    # error and the value array: the traced peak, in arrays of (nx - 2) my
    # doubles
    nx, my = 1025, 192
    prob = _variable_1d_problem(0.4, 0.5, 1.5, 2.0, bottom)
    mesh = ExtensionMesh(nx=nx, my=my)
    solve_extension(prob, mesh)  # first-call allocations stay outside the trace
    state, peak = _traced_peak(lambda: solve_extension(prob, mesh))
    assert state.residual_interior <= 1e-14 and state.residual_bottom <= 1e-14
    assert peak <= 7 * (nx - 2) * my * 8, peak / ((nx - 2) * my * 8)


def test_2d_solve_peak_grows_by_at_most_five_solution_arrays_beside_its_factors():
    # 25^2 x 20 and 25^2 x 40 with a12 != 0: what the peak gains with the
    # 20 added levels is their band LU (bands and pivots) and at most five
    # arrays of their size (four are held: the right-hand side, the
    # solution, the work array and the mode-transform temporary); the
    # x-operators and numpy's fixed buffers, as large as a few levels here,
    # cancel in the difference
    prob = _variable_2d_problem(0.4, 25, 25, 0.3, 2.0, "neumann")
    peaks = []
    for my in (20, 40):
        mesh = ExtensionMesh(nx=25, my=my)
        solve_extension(prob, mesh)
        peaks.append(_traced_peak(lambda: solve_extension(prob, mesh))[1])
    level = 23 * 23 * 8
    factors = _per_mode_band_bytes(prob, ExtensionMesh(nx=25, my=20)) + 23 * 23 * 4
    gained = (peaks[1] - peaks[0] - 20 * factors) / (20 * level)
    assert gained <= 5.0, gained


def test_backward_error_pass_allocates_a_few_blocks_beyond_its_inputs():
    # 1025 x 256: the solution spans 16 blocks of _BLOCK_BYTES.  With solves
    # that allocate nothing, _checked_solve holds the residual, |A| for one
    # pass at a time, and each block's temporaries (about five blocks); a
    # pass that formed any solution-sized temporary would add 16 blocks
    prob = _variable_1d_problem(0.4, 0.5, 1.5, 2.0, "neumann")
    _, A, rhs = _solve_capturing_system(prob, ExtensionMesh(nx=1025, my=256), assemble=False)
    assert len(A._blocks) == 16
    x = np.linspace(1.0, 2.0, rhs.size)
    abs_A = abs(A)
    abs_bytes = sum(d.nbytes for d in abs_A.Ay) + sum(
        a.nbytes for a in (abs_A.Ax.data, abs_A.Ax.indices, abs_A.Ax.indptr))
    del abs_A
    _, peak = _traced_peak(lambda: extension._checked_solve(
        A, rhs, lambda r, overwrite=False: r.ravel() if overwrite else x))
    assert peak - rhs.nbytes - abs_bytes <= 8 * extension._BLOCK_BYTES, \
        (peak - rhs.nbytes - abs_bytes) / extension._BLOCK_BYTES


def _per_mode_band_bytes(prob, mesh):
    """Bytes of one y-mode's band LU: N (3k + 1) doubles."""
    Ax, _ = semigroup.x_operator(prob.coeff, mesh.x_axes(prob.domain, 2))
    coo = Ax.tocoo()
    return 8 * Ax.shape[0] * (3 * int(np.max(np.abs(coo.col - coo.row))) + 1)


@pytest.mark.parametrize("modes", [1, 2])
@pytest.mark.parametrize("bottom", ["neumann", "dirichlet"])
def test_2d_band_lu_in_mode_batches_matches_one_batch(monkeypatch, modes, bottom):
    # a byte budget that holds `modes` y-modes' bands: every call factors,
    # substitutes and releases one batch at a time but keeps the last, which
    # the refinement step reuses; the field is the one-batch field
    prob = _variable_2d_problem(0.4, 13, 11, 0.3, 2.0, bottom)
    mesh = ExtensionMesh(nx=(13, 11), my=9)
    nl = 9 if bottom == "neumann" else 8
    runs = []
    for budget in (semigroup._BAND_BUDGET, modes * _per_mode_band_bytes(prob, mesh)):
        monkeypatch.setattr(semigroup, "_BAND_BUDGET", budget)
        with mock.patch.object(lapack, "dgbtrf", wraps=lapack.dgbtrf) as factor:
            runs.append((solve_extension(prob, mesh), factor.call_count))
    (one, one_factorizations), (batched, batched_factorizations) = runs
    assert one_factorizations == 1
    assert batched_factorizations == 2 * -(-nl // modes) - 1
    assert np.max(np.abs(batched.values - one.values)) <= 1e-13 * np.max(np.abs(one.values))
    for state in (one, batched):
        assert state.residual_interior <= 1e-14 and state.residual_bottom <= 1e-14
    assert batched.meta["refinement_kept"] == one.meta["refinement_kept"]


def test_2d_band_lu_in_mode_batches_bounds_the_traced_peak(monkeypatch):
    # 33^2 x 24 with a12 != 0: the bands of all 24 modes (18 MB) dominate the
    # one-batch peak; two modes per batch, 12 batches, at least halve it
    prob = _variable_2d_problem(0.4, 33, 33, 0.3, 2.0, "neumann")
    mesh = ExtensionMesh(nx=33, my=24)
    solve_extension(prob, mesh)
    one, one_peak = _traced_peak(lambda: solve_extension(prob, mesh))
    monkeypatch.setattr(semigroup, "_BAND_BUDGET", 2 * _per_mode_band_bytes(prob, mesh))
    batched, batched_peak = _traced_peak(lambda: solve_extension(prob, mesh))
    assert batched_peak <= 0.5 * one_peak, (batched_peak, one_peak)
    assert np.max(np.abs(batched.values - one.values)) <= 1e-13 * np.max(np.abs(one.values))


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_1d_variable_coefficient_source_converges_at_order_two(s):
    # U = (1 + z) sin x + x has U_zz = 0, so F = a U_xx = -a (1 + z) sin x
    # with variable a, the Neumann datum is sin x, and lateral and top data
    # come from U: an exact solution with F != 0 and nonzero lateral data
    def exact(x, z):
        return (1.0 + z) * np.sin(x) + x

    def a(x):
        return 1.0 + 0.5 * np.sin(x) ** 2

    prob = ExtensionProblem(s=s, coeff=CoefficientField(1, a, 1.0, 1.5),
                            domain=(-1.0, 1.0), Z=1.0, bottom=("neumann", np.sin),
                            F=lambda x, z: -a(x) * (1.0 + z) * np.sin(x),
                            g_lateral=exact, g_top=lambda x: exact(x, 1.0))
    errs = []
    for nx, my in ((33, 16), (65, 32), (129, 64)):
        state = solve_extension(prob, ExtensionMesh(nx=nx, my=my))
        Zq, Xq = np.meshgrid(state.z_nodes, state.x_axes[0], indexing="ij")
        errs.append(np.max(np.abs(state.values - exact(Xq, Zq))))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 1.9), (errs, orders)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.05, 0.85), st.integers(7, 21), st.integers(7, 21), st.integers(6, 24),
       st.floats(0.05, 0.5), st.floats(0.5, 4.0), st.sampled_from(["neumann", "dirichlet"]))
def test_y_mode_diagonalization_matches_sparse_lu(s, nx1, nx2, my, c12, freq, bottom):
    prob = _variable_2d_problem(s, nx1, nx2, c12, freq, bottom)
    state, A, rhs = _solve_capturing_system(prob, ExtensionMesh(nx=(nx1, nx2), my=my))
    assert abs(A - A.T).max() > 0.0
    # -A is an M-matrix, which the bound below needs
    assert (A - sp.diags(A.diagonal())).min() >= 0.0
    j0 = 0 if bottom == "neumann" else 1
    field = state.values[j0:my, 1:-1, 1:-1].ravel()
    ref = spla.spsolve(A.tocsc(), rhs)
    # the componentwise perturbation bound of test_1d_y_mode_diagonalization_matches_sparse_lu
    g = np.abs(A) @ np.abs(ref) + np.abs(rhs)
    omega = np.max(np.abs(A @ ref - rhs) / g) + max(state.residual_interior,
                                                    state.residual_bottom)
    bound = omega * spla.spsolve(-A.tocsc(), g)
    assert np.all(np.abs(field - ref) <= 1e-10 * np.max(np.abs(state.values)) + bound)
    assert state.residual_interior <= 1e-12
    assert state.residual_bottom <= 1e-12


def _anisotropic_2d_problem(s, nx1, nx2, base, amp, t, freq, bottom):
    # a11 = 1 < |a12| = t sqrt(a22) everywhere on square cells: beyond the
    # 7-point upwind stencil, Selling's offsets reach past the nearest
    # neighbours, and a22 may vary strongly
    def a22(x1, x2):
        return base + amp * (0.5 + 0.5 * np.sin(freq * x2)) + 0.0 * x1

    coeff = CoefficientField.full_2d(lambda x1, x2: np.ones(np.broadcast(x1, x2).shape),
                                     lambda x1, x2: t * np.sqrt(a22(x1, x2)), a22,
                                     (1.0 - t * t) * base / (1.0 + base), 1.0 + base + amp)
    return dataclasses.replace(_variable_2d_problem(s, nx1, nx2, 0.0, freq, bottom),
                               coeff=coeff)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.05, 0.85), st.integers(5, 11), st.integers(5, 11), st.integers(4, 12),
       st.floats(2.0, 6.0), st.floats(0.0, 16.0), st.floats(0.75, 0.95), st.floats(0.5, 9.0),
       st.sampled_from([-1.0, 1.0]), st.sampled_from(["neumann", "dirichlet"]))
@example(0.4, 9, 9, 8, 4.0, 0.0, 0.75, 1.0, 1.0, "neumann")  # a11 = 1, a22 = 4, a12 = 1.5
@example(0.6, 11, 11, 10, 2.0, 16.0, 0.9, 9.0, -1.0, "dirichlet")
def test_y_mode_solve_with_strong_anisotropy(s, nx1, nx2, my, base, amp, t, freq, sign,
                                             bottom):
    prob = _anisotropic_2d_problem(s, nx1, nx2, base, amp, sign * t, freq, bottom)
    state, A, rhs = _solve_capturing_system(prob, ExtensionMesh(nx=(nx1, nx2), my=my))
    assert (A - sp.diags(A.diagonal())).min() >= 0.0
    j0 = 0 if bottom == "neumann" else 1
    field = state.values[j0:my, 1:-1, 1:-1].ravel()
    ref = spla.spsolve(A.tocsc(), rhs)
    # the componentwise M-matrix bound of test_1d_y_mode_diagonalization_matches_sparse_lu
    g = np.abs(A) @ np.abs(ref) + np.abs(rhs)
    omega = np.max(np.abs(A @ ref - rhs) / g) + max(state.residual_interior,
                                                    state.residual_bottom)
    bound = omega * spla.spsolve(-A.tocsc(), g)
    assert np.all(np.abs(field - ref) <= 1e-10 * np.max(np.abs(state.values)) + bound)
    assert state.residual_interior <= 1e-12
    assert state.residual_bottom <= 1e-12


def test_2d_solve_without_sparse_lu():
    # U = sin x1 sin x2 phi_2(z) under a constant mixed coefficient a12 = 0.3
    s, a12, Z = 0.4, 0.3, 1.0
    coeff = CoefficientField.full_2d(lambda x1, x2: np.ones(np.broadcast(x1, x2).shape),
                                     lambda x1, x2: np.full(np.broadcast(x1, x2).shape, a12),
                                     lambda x1, x2: np.ones(np.broadcast(x1, x2).shape),
                                     1.0 - a12, 1.0 + a12)

    def oracle(x1, x2, z):
        return np.sin(x1) * np.sin(x2) * bessel_extension_profile(2.0, s, z)

    prob = ExtensionProblem(
        s=s, coeff=coeff, domain=((0.0, np.pi), (0.0, np.pi)), Z=Z,
        bottom=("neumann", lambda x1, x2: -ds_constant(s) * 2.0**s * np.sin(x1) * np.sin(x2)),
        F=lambda x1, x2, z: 2.0 * a12 * np.cos(x1) * np.cos(x2)
        * bessel_extension_profile(2.0, s, z),
        g_lateral=0.0, g_top=lambda x1, x2: oracle(x1, x2, Z))
    with mock.patch.object(spla, "spsolve", side_effect=AssertionError("spsolve called")):
        state = solve_extension(prob, ExtensionMesh(nx=25, my=20))
    assert state.residual_interior <= 1e-14
    Zq, X1, X2 = np.meshgrid(state.z_nodes, *state.x_axes, indexing="ij")
    assert np.max(np.abs(state.values - oracle(X1, X2, Zq))) < 1e-3


def test_checked_solve_keeps_better_of_plain_and_refined():
    # stub solves with a known error: the correction step of `good` recovers
    # the exact solution, that of `bad` adds a large error to it; A has
    # three levels of two x-nodes
    Ay = (np.array([1.0, 1.0]), np.array([-3.0, -3.0, -3.0]), np.array([1.0, 1.0]))
    op = extension._LevelOperator(Ay, np.array([1.0, 2.0, 0.5]),
                                  sp.csr_matrix(np.array([[-2.0, 1.0], [1.0, -2.0]])))
    A = _assembled(op).tocsc()
    x = np.array([1.0, -2.0, 3.0, 0.5, -1.5, 2.5])
    rhs = A @ x
    delta = np.array([1e-6, 0.0, -1e-6, 2e-6, 0.0, 1e-6])

    def good(r, overwrite=False):
        return x + delta if r is rhs else spla.spsolve(A, r.ravel())

    def bad(r, overwrite=False):
        return x + delta if r is rhs else spla.spsolve(A, r.ravel()) + 1e-3

    sol, rel, refined = extension._checked_solve(op, rhs, good)
    assert rel.shape == (3,)  # one maximum per level
    assert refined and np.max(rel) <= 1e-15
    assert np.max(np.abs(sol - x)) <= 1e-14
    sol, rel, refined = extension._checked_solve(op, rhs, bad)
    assert not refined and np.array_equal(sol, x + delta)
    plain = np.abs(A @ delta) / (np.abs(A) @ np.abs(x + delta) + np.abs(rhs))
    assert rel == pytest.approx(np.max(plain.reshape(3, 2), axis=1), rel=1e-8)
    with pytest.raises(RuntimeError, match="nonfinite"):
        extension._checked_solve(op, rhs, lambda r, overwrite=False: np.full(6, np.nan))


_MESH_COUNTS = st.integers(0, 12) | st.sampled_from([3, 4])
_GRADINGS = st.none() | st.floats(-1.0, 4.0) | st.sampled_from([0.0, float("nan"), float("inf")])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2]), st.floats(0.05, 0.9), _MESH_COUNTS, _MESH_COUNTS,
       st.integers(-1, 12), _GRADINGS, _GRADINGS, st.booleans(),
       st.sampled_from(["neumann", "dirichlet"]))
@example(1, 0.4, 4, 4, 6, None, 2.0, False, "neumann")  # even nx with x_grading
@example(1, 0.5, 5, 0, 2, None, 3.313964065548941e-118, False, "neumann")  # x-nodes coincide
def test_extension_mesh_gives_finite_state_or_value_error(n, s, nx1, nx2, my, grading,
                                                          x_grading, per_axis, bottom):
    # every mesh either solves to a finite state of the asked size or is refused
    # with ValueError; nx = 3 leaves a single interior x-node per axis
    if n == 1:
        coeff, domain = CoefficientField.identity(1), (-1.0, 1.0)
        data = (bottom, lambda x: np.cos(x))
        nx = nx1
    else:
        coeff, domain = CoefficientField.identity(2), ((-1.0, 1.0), (-1.0, 1.0))
        data = (bottom, lambda x1, x2: np.cos(x1) * np.cos(x2))
        nx = (nx1, nx2) if per_axis else nx1
    prob = ExtensionProblem(s=s, coeff=coeff, domain=domain, Z=1.0, bottom=data,
                            g_lateral=1.0, g_top=1.0)
    try:
        state = solve_extension(prob, ExtensionMesh(nx=nx, my=my, grading=grading,
                                                    x_grading=x_grading))
    except ValueError:
        return
    assert np.all(np.isfinite(state.values))
    assert state.values.shape == (my + 1, *([nx] * n if np.isscalar(nx) else nx))
    assert state.residual_interior <= 1e-12 and state.residual_bottom <= 1e-12


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([1, 2]), st.floats(0.05, 0.9), st.integers(3, 12), st.integers(3, 12),
       st.integers(2, 16), st.none() | st.floats(1.0, 3.0), st.floats(0.05, 0.5),
       st.sampled_from(["neumann", "dirichlet"]), st.integers(0, 2**32 - 1))
def test_level_operator_matches_the_assembled_matrix(n, s, nx1, nx2, my, x_grading, c12,
                                                     bottom, seed):
    # A and |A| applied through their factors agree with the kron-assembled
    # matrix to a few ulps of |A||x|: 1-D on graded and uniform x, 2-D with
    # variable a^{ij} and a12 != 0
    if n == 1:
        prob = _variable_1d_problem(s, 0.3, 1.7, 3.0, bottom)
        mesh = ExtensionMesh(nx=2 * nx1 + 1, my=my, x_grading=x_grading)
    else:
        prob = _variable_2d_problem(s, nx1, nx2, c12, 2.0, bottom)
        mesh = ExtensionMesh(nx=(nx1, nx2), my=my)
    _, op, _ = _solve_capturing_system(prob, mesh, assemble=False)
    A = _assembled(op)
    x = np.random.default_rng(seed).standard_normal(A.shape[0])
    scale = abs(A) @ np.abs(x)
    assert np.all(np.abs(_blockwise(op, x) - A @ x) <= 8.0 * np.finfo(float).eps * scale)
    assert np.all(np.abs(_blockwise(abs(op), np.abs(x)) - scale)
                  <= 8.0 * np.finfo(float).eps * scale)
    # the three diagonals sum every row as Ay's CSR product does, bit for bit
    X = x.reshape(len(op.V), -1)
    assert np.array_equal(_blockwise(op, x),
                          (_tridiagonal(op.Ay) @ X + op.V[:, None] * (op.Ax @ X.T).T).ravel())


def _blockwise(op, x):
    """A x from the rows of every block of levels."""
    X = x.reshape(len(op.V), -1)
    return np.concatenate([op.rows(X[near], b, near) for b, near in op._blocks]).ravel()


def test_transformed_solves_assemble_no_matrix():
    # no solve assembles its system: A is applied through its factors in
    # every dimension
    with mock.patch.object(sp, "kron", side_effect=AssertionError("kron called")):
        st1 = solve_extension(_variable_1d_problem(0.4, 0.5, 1.5, 2.0, "neumann"),
                              ExtensionMesh(nx=33, my=12))
        st2 = solve_extension(_variable_2d_problem(0.4, 9, 11, 0.3, 2.0, "dirichlet"),
                              ExtensionMesh(nx=(9, 11), my=8))
    assert max(st1.residual_interior, st2.residual_interior) <= 1e-14


def _frame_reach(frame):
    """Every object a frame's locals keep alive, following function
    closures, tuples, lists, dicts and level operators."""
    seen, stack = {}, list(frame.f_locals.values())
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
        elif isinstance(obj, extension._LevelOperator):
            stack += vars(obj).values()
    return list(seen.values())


@pytest.mark.parametrize("dim", [1, 2])
def test_checked_solve_keeps_no_abs_operator_through_the_solves(dim):
    # |A| = |Ay| (x) I + diag(V) (x) |Ax| is built inside each backward-error
    # pass: while either mode solve runs, the only operators _checked_solve
    # keeps alive are A's own Ay (its three diagonals) and Ax
    if dim == 1:
        prob, mesh = _variable_1d_problem(0.4, 0.5, 1.5, 2.0, "neumann"), ExtensionMesh(33, 12)
    else:
        prob, mesh = _variable_2d_problem(0.4, 9, 11, 0.3, 2.0, "neumann"), ExtensionMesh((9, 11), 8)
    held = []
    checked = extension._checked_solve

    def spy(A, rhs, solve):
        def watched(r, overwrite=False):
            reach = _frame_reach(sys._getframe(1))
            held.append(sorted(id(o) for o in reach if sp.issparse(o)
                               or isinstance(o, extension._LevelOperator)
                               or isinstance(o, tuple) and len(o) == 3
                               and all(isinstance(d, np.ndarray) for d in o))
                        == sorted(map(id, (A, A.Ay, A.Ax))))
            return solve(r, overwrite)
        return checked(A, rhs, watched)

    with mock.patch.object(extension, "_checked_solve", spy):
        state = solve_extension(prob, mesh)
    assert held == [True, True] and state.residual_interior <= 1e-14


def test_level_operator_refuses_abs_with_a_positive_diagonal():
    op = extension._LevelOperator((np.zeros(1), np.array([-2.0, -2.0]), np.zeros(1)),
                                  np.ones(2), sp.diags([[-1.0, 0.5]], [0]))
    with pytest.raises(ValueError, match="nonpositive diagonals"):
        abs(op)


@pytest.mark.parametrize("n, nx", [(1, (9, 11)), (2, (9, 11, 13)), (2, (9,))],
                         ids=["1d-two-counts", "2d-three-counts", "2d-one-count"])
def test_x_axes_refuses_a_mesh_count_per_axis_mismatch(n, nx):
    # a 1-D problem used to take 9 and drop 11, a 2-D one to drop 13, and
    # (9,) on 2-D failed later on the coefficient dimension
    domain = (0.0, 1.0) if n == 1 else ((0.0, 1.0), (0.0, 2.0))
    with pytest.raises(ValueError, match=f"nx gives {len(nx)} mesh counts for {n} x-dimensions"):
        ExtensionMesh(nx=nx, my=8).x_axes(domain, n)


@pytest.mark.parametrize("s, my, grading", [(0.4, 4, 1e-20), (0.4, 4, 1e-300),
                                            (0.4, 4, 5e-324), (0.999, 64, None),
                                            (0.995, 64, None)])
def test_coinciding_y_nodes_are_refused(s, my, grading):
    # a grading that makes adjacent y-nodes (or their powers y^{2s}) equal fails
    # fast, naming the grading and my, before any division by zero; at
    # s = 0.999 the default grading 500 gives y_1 = y_2 = 0, at s = 0.995 the
    # default 100 gives y_1^{2s} = 0
    prob = ExtensionProblem(s=s, coeff=CoefficientField.identity(1), domain=(-1.0, 1.0),
                            Z=1.0, bottom=("neumann", lambda x: np.cos(x)),
                            g_lateral=1.0, g_top=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"grading .* my = "):
            solve_extension(prob, ExtensionMesh(nx=5, my=my, grading=grading))


# 40 equal pieces on (0, pi), log-uniform in [1, 256]
_ROUGH_PIECES = np.exp(np.random.default_rng(0).uniform(0.0, np.log(256.0), 40))


_LADDER_COEFFS = {
    "a=1": CoefficientField.identity(1),
    "smooth": CoefficientField(1, lambda x: 1.0 + 3.0 * np.sin(3.0 * x) ** 2, 1.0, 4.0),
    "rough": CoefficientField(
        1, lambda x: _ROUGH_PIECES[np.clip((x / np.pi * 40).astype(int), 0, 39)], 1.0, 256.0),
}


@pytest.mark.parametrize("coeff, bottom", [
    pytest.param(coeff, bottom, id=name if bottom == "dirichlet" else f"{bottom}-{name}")
    for bottom in ("dirichlet", "neumann") for name, coeff in _LADDER_COEFFS.items()])
def test_finite_volume_y_error_converges_at_order_two_against_the_contour_route(coeff, bottom):
    # the contour semigroup gives U(., z) = phi(L, z) u exactly in z, with the
    # x-operator the finite volumes use, and d_z U(., 0) = -d_s L^s u.  With
    # lateral data 0, top data phi(L, 1) u and a Dirichlet bottom u, the
    # difference of the two fields is the y-error of the finite volumes
    # alone, for any coefficient; with the Neumann bottom f and
    # u = -L^{-s} f / d_s by the rational path, the trace error is that of
    # the fractional equation L^s u = -f / d_s solved through the extension.
    # At grading 3 both fall at order 2 in my
    grid = BoxGrid.interval(0.0, np.pi, 257)
    stepper = SemigroupStepper(coeff, grid)
    x = grid.axes()[0]
    f = GridFunction.from_callable(grid, lambda t: np.sqrt(np.abs(t - 1.3)) * np.sin(t))
    for s in (0.25, 0.5, 0.75) if bottom == "dirichlet" else (0.1, 0.25, 0.5, 0.75):
        u = f if bottom == "dirichlet" else GridFunction(
            grid, -fractional_inverse(stepper, f, s)[0].values / ds_constant(s))
        (top,), _ = extension_via_semigroup_multi(stepper, u, s, [1.0])
        prob = ExtensionProblem(s=s, coeff=coeff, domain=(0.0, np.pi), Z=1.0,
                                bottom=(bottom, lambda xq: np.interp(xq, x, f.values)),
                                g_top=lambda xq: np.interp(xq, x, top.values))
        errs = []
        for my in (24, 48, 96):
            state = solve_extension(prob, ExtensionMesh(nx=257, my=my, grading=3.0))
            assert np.array_equal(state.x_axes[0], x)
            if bottom == "dirichlet":
                levels, _ = extension_via_semigroup_multi(stepper, u, s, state.z_nodes[1:-1])
                err = np.max(np.abs(state.values[1:-1] - [level.values for level in levels]))
            else:
                err = np.max(np.abs(state.values[0] - u.values))
            errs.append(err / np.max(np.abs(u.values)))
        order = np.log2(errs[1] / errs[2])
        assert abs(order - 2.0) <= 0.1, (s, errs)

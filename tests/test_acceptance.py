"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.

The quotient lower bound (criterion 5) is sampled for s <= 1/2: the bound is a
property of the nondegenerate regime (the quotient vanishes at z = 0 when
s > 1/2, which is exactly why the second barrier construction exists).
"""

import json
import os

import numpy as np
import pytest

from fracext.barriers import BarrierCase1, inf_convolution, search_case2_parameters, \
    slide_paraboloids
from fracext.benchmarks import (eigen_extension_problem, kinked_trace_problem,
                                positive_harmonic_family, sliding_fixture,
                                vertex_lattice, z_decay_exponent)
from fracext.config import EXPERIMENT_KINDS, validate
from fracext.extension import (ExtensionMesh, ExtensionProblem, HarmonicCombo,
                               solve_extension, transform_to_y)
from fracext.geometry import (MAGeometry, doubling_check,
                              quasi_triangle_check, quotient_check,
                              scaling_identity_check)
from fracext.gridfn import BoxGrid, GridFunction
from fracext.regularity import harnack_family_report, schauder_decay
from fracext.runner import _synthetic_state, run
from fracext.semigroup import (CoefficientField, QuadratureSpec, SemigroupStepper,
                               ds_constant, extension_via_semigroup_multi,
                               fit_rel_error, fractional_apply, fractional_inverse)

S_VALUES = (0.25, 0.5, 0.75)


def _report(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_constant_identities():
    """ds(1/2) = 1, q_{1/2} = sqrt(2), c_{1/2} = 1, y-transform identity at s=1/2."""
    ok = abs(ds_constant(0.5) - 1.0) < 1e-14
    g = MAGeometry(0.5)
    ok &= g.q_s == np.sqrt(2.0)
    ok &= g.c_s == 1.0
    zs = np.linspace(0.0, 2.0, 21)
    ok &= bool(np.array_equal(transform_to_y(zs, 0.5), zs))
    _report(1, ok, f"d_(1/2)={ds_constant(0.5)!r}, q=sqrt2, c=1, y==z at s=1/2")


def test_criterion_02_scalar_balakrishnan_oracle():
    """The certified fits behind L^s and L^{-s} (beta = 1 - s and beta = s) on
    criterion 3's grid reproduce lam^{-beta} to relative 1e-6 at lam = 1, 4, 9."""
    grid = BoxGrid.interval(0.0, np.pi, 513)
    stepper = SemigroupStepper(CoefficientField.identity(1), grid)
    u = GridFunction.from_callable(grid, np.sin)
    worst = 0.0
    for s in S_VALUES:
        for op in (fractional_apply, fractional_inverse):
            _, info = op(stepper, u, s)
            for lam in (1.0, 4.0, 9.0):
                worst = max(worst, fit_rel_error(info, lam))
    _report(2, worst < 1e-6, f"worst scalar relative error {worst:.2e} < 1e-6")


def test_criterion_03_eigenfunction_spectral_mapping():
    """On (0, pi), dx = pi/512: L^s sin(kx) = k^{2s} sin(kx), rel L_inf < 1e-3."""
    grid = BoxGrid.interval(0.0, np.pi, 513)
    stepper = SemigroupStepper(CoefficientField.identity(1), grid)
    quad = QuadratureSpec()
    worst = 0.0
    for s in S_VALUES:
        for k in (1, 2, 4):
            u = GridFunction.from_callable(grid, lambda x: np.sin(k * x))
            out, _ = fractional_apply(stepper, u, s, quad)
            target = k ** (2.0 * s) * u.values
            rel = np.max(np.abs(out.values - target)) / np.max(np.abs(target))
            worst = max(worst, rel)
    _report(3, worst < 1e-3, f"worst eigen-mapping relative error {worst:.2e} < 1e-3")


def test_criterion_04_extension_consistency():
    """Direct solve vs semigroup extension L_inf < 1e-2; Neumann trace within 1%."""
    k = 2
    worst_field = 0.0
    worst_trace = 0.0
    for s in S_VALUES:
        problem, oracle = eigen_extension_problem(s, k, Z=1.0)
        state = solve_extension(problem, ExtensionMesh(nx=257, my=96))
        grid = BoxGrid.interval(0.0, np.pi, 257)
        stepper = SemigroupStepper(CoefficientField.identity(1), grid)
        u = GridFunction.from_callable(grid, lambda x: np.sin(k * x))
        zsel = state.z_nodes[8:96:8]
        Us, _ = extension_via_semigroup_multi(stepper, u, s, zsel)
        xq = grid.axes()[0]
        err = max(np.max(np.abs(state.values_at(xq, np.full_like(xq, z)) - Ug.values))
                  for z, Ug in zip(zsel, Us))
        worst_field = max(worst_field, err)
        # Richardson trace slope on the semigroup extension
        z0 = 1e-2 if s <= 0.5 else 1e-3
        (U1, U2), _ = extension_via_semigroup_multi(stepper, u, s, [z0, z0 / 2])
        q = min(1.0, 1.0 / s - 1.0)
        g1 = (U1.values - u.values) / z0
        g2 = (U2.values - u.values) / (z0 / 2)
        R = (2**q * g2 - g1) / (2**q - 1)
        target = -ds_constant(s) * k ** (2 * s) * u.values
        i = np.argmax(np.abs(target))
        worst_trace = max(worst_trace, abs(R[i] - target[i]) / abs(target[i]))
    ok = worst_field < 1e-2 and worst_trace < 0.01
    _report(4, ok, f"field agreement {worst_field:.2e} < 1e-2, "
                   f"trace slope rel {worst_trace:.2e} < 1e-2")


def test_criterion_05_geometry_property_suite():
    """Quasi-triangle over 1e5 triples, exact scaling, doubling sweep, quotient."""
    ok = True
    msgs = []
    for s in S_VALUES:
        geom = MAGeometry(s)
        qt = quasi_triangle_check(geom, samples=100_000, seed=11)
        K = qt["K_hat"]
        ok &= np.isfinite(K) and K >= 1.0
        sc = scaling_identity_check(geom, seed=11)
        ok &= sc["max_rel_err_h"] < 1e-12 and sc["max_rel_err_hp"] < 1e-12
        sections = [(z0, R) for z0 in (0.0, 0.7, 2.0) for R in np.geomspace(1e-3, 10, 9)]
        db = doubling_check(geom, sections)
        ok &= db["min_ratio"] > 0 and np.isfinite(db["max_ratio"])
        msgs.append(f"s={s}: K^={K:.2f}")
    for s in (0.25, 0.4, 0.5):
        q = quotient_check(MAGeometry(s), samples=40_000, seed=11)
        ok &= q["min_Q"] >= 1.0 - 1e-10
    _report(5, ok, "; ".join(msgs) + "; scaling 1e-12, doubling bounded, Q >= 1-1e-10")


def test_criterion_06_barrier_verification():
    """Case 1 fixture positivity at 1e4 samples; case 2 search passes all predicates."""
    g1 = MAGeometry(0.5)
    bar1 = BarrierCase1(g1, 0.5, 0.25, 9.0)
    rep1 = bar1.verify(samples=10_000, seed=21)
    g2 = MAGeometry(0.75)
    bar2 = search_case2_parameters(g2, 0.5, 1.0 / 8.0)
    rep2 = bar2.verify(samples=10_000, seed=22)
    ok = rep1["passes"] and rep2["passes"]
    _report(6, ok, f"case1 min operator {rep1['operator_min']:.3f} > 0; case2 at "
                   f"(eps={bar2.profile.eps}, alpha={bar2.alpha}) all "
                   f"predicates pass")


def test_criterion_07_discrete_hopf_maximum_principle():
    """Harmonic solves attain extrema on the lateral/top boundary, exactly."""
    fixtures = []
    for s in S_VALUES:
        fixtures.append((s, lambda x, z: 1.0 + 0.5 * np.sin(2 * x) + 0.2 * z
                         * np.ones_like(x)))
        fixtures.append((s, lambda x, z: np.cos(x) * np.ones_like(x) + 0.1 * z**2))
    ok = True
    for s, g in fixtures:
        prob = ExtensionProblem(s=s, coeff=CoefficientField.identity(1),
                                domain=(-1.0, 1.0), Z=1.0, bottom=("neumann", 0.0),
                                g_lateral=g, g_top=lambda x, g=g: g(x, 1.0))
        st = solve_extension(prob, ExtensionMesh(nx=65, my=32))
        interior = st.values[:-1, 1:-1]
        boundary = np.concatenate([st.values[-1], st.values[:, 0], st.values[:, -1]])
        tol = 1e-11 * max(1.0, np.max(np.abs(st.values)))
        ok &= interior.max() <= boundary.max() + tol
        ok &= interior.min() >= boundary.min() - tol
    _report(7, ok, f"{len(fixtures)} harmonic solves: extrema on lateral/top boundary")


def test_criterion_08_z_derivative_decay():
    """Fitted z-exponent of sup_x |d_z H| within 0.1 of 1/s - 1."""
    worst = 0.0
    details = []
    for s in S_VALUES:
        p = z_decay_exponent(s)
        err = abs(p - (1.0 / s - 1.0))
        worst = max(worst, err)
        details.append(f"s={s}: {p:.3f} (target {1 / s - 1:.3f})")
    _report(8, worst < 0.1, "; ".join(details))


def test_criterion_09_sliding_paraboloid_suite():
    """Exact touching, positive contact measure, ratio stable under refinement."""
    ok = True
    for s in (0.4, 0.75):
        geom = MAGeometry(s)
        for fixture in ("paraboloid", "convex", "harmonic"):
            xs, zs, U = sliding_fixture(geom, fixture, nx=41, nz=41, opening=0.5, seed=0)
            rep = slide_paraboloids(geom, xs, zs, U, vertex_lattice(xs, zs, 6), 0.5)
            ok &= rep.mu_A > 0
            for (v, nodes, c) in rep.contact_map:
                P = -0.5 * (geom.delta_phi(v[0], xs)[:, None]
                            + geom.delta_h(v[1], zs)[None, :]) + c
                gap = U - P
                ok &= bool(np.min(gap) >= -1e-10)
                ok &= all(abs(gap[i, j]) <= 1e-9 for (i, j) in nodes)
        xs, zs, U = sliding_fixture(geom, "harmonic", nx=41, nz=41, opening=0.5, seed=0)
        r1 = slide_paraboloids(geom, xs, zs, U, vertex_lattice(xs, zs, 6), 0.5)
        xs2, zs2, U2 = sliding_fixture(geom, "harmonic", nx=81, nz=81, opening=0.5, seed=0)
        r2 = slide_paraboloids(geom, xs2, zs2, U2, vertex_lattice(xs2, zs2, 12), 0.5)
        drift = abs(r2.measure_ratio - r1.measure_ratio) / r1.measure_ratio
        ok &= drift <= 0.25
    _report(9, ok, "touching exact, mu(A) > 0, ratio drift <= 25% under refinement")


def test_criterion_10_inf_convolution_suite():
    """Ordering, monotonicity in eps, Lipschitz bound, semiconcavity bound."""
    xs = np.linspace(-1.0, 1.0, 41)
    zs = np.linspace(0.1, 1.1, 33)
    U = np.abs(xs)[:, None] + 0.0 * zs[None, :]   # Lipschitz constant 1
    ok = True
    prev = None
    for eps in (0.02, 0.05, 0.2):
        Ue = inf_convolution(xs, zs, U, eps)
        ok &= bool(np.all(Ue <= U + 1e-13))
        ok &= np.max(np.abs(Ue - U)) <= eps / 4.0 + 1e-12
        if prev is not None:
            ok &= bool(np.all(Ue <= prev + 1e-13))
        prev = Ue
    rng = np.random.default_rng(31)
    V = np.cos(3 * xs)[:, None] * (1 + zs)[None, :] + 0.1 * rng.normal(size=(41, 33))
    eps = 0.1
    Ve = inf_convolution(xs, zs, V, eps)
    hx, hz = xs[1] - xs[0], zs[1] - zs[0]
    d2x = (Ve[2:] - 2 * Ve[1:-1] + Ve[:-2]) / hx**2
    d2z = (Ve[:, 2:] - 2 * Ve[:, 1:-1] + Ve[:, :-2]) / hz**2
    ok &= max(np.max(d2x), np.max(d2z)) <= 2.0 / eps + 1e-8
    _report(10, ok, "U_eps <= U, monotone in eps, L^2 eps/4 bound, 2/eps semiconcavity")


def test_criterion_11_schauder_decay():
    """Harmonic benchmark saturates the order cap; kinked benchmark fits alpha+2s
    within 0.15 in all three cases (r^3 z-scaling in case 3)."""
    ok = True
    details = []
    for case, s, alpha in ((1, 0.25, 0.3), (2, 0.5, 0.5), (3, 0.75, 0.7)):
        problem, mesh = kinked_trace_problem(s, alpha, mx=260, my=140)
        state = solve_extension(problem, mesh)
        rep = schauder_decay(state, case, rho=0.5, depth=9,
                             noise_floor=max(state.residual_interior, 1e-14),
                             fit_window=5)
        target = alpha + 2 * s
        err = abs(rep.fitted_exponent - target)
        ok &= err <= 0.15
        details.append(f"case{case}: {rep.fitted_exponent:.3f} vs {target:.2f}")
    for case, s in ((1, 0.25), (3, 0.75)):
        combo = HarmonicCombo(s, const=0.3, modes=[(0.5, 1.0, 0.4), (0.2, 2.0, 1.1)])
        st = _synthetic_state(s, combo, mx=160, my=80)
        rep = schauder_decay(st, case, rho=0.5, depth=7, noise_floor=1e-13)
        ok &= rep.fitted_exponent >= case - 0.25
        details.append(f"harmonic case{case}: {rep.fitted_exponent:.2f} >= {case}")
    _report(11, ok, "; ".join(details))


def test_criterion_12_harnack_quotients():
    """Q >= 1 always, Q = 1 on constants, C_H stable within 20% on refinement."""
    ok = True
    details = []
    total = 0
    for s in S_VALUES:
        family = positive_harmonic_family(s, 7, seed=41)
        total += len(family)
        rep1 = harnack_family_report(s, family, 97, 48, kappa=0.5, R=0.5)
        rep2 = harnack_family_report(s, family, 193, 96, kappa=0.5, R=0.5)
        ok &= rep1["min_quotient"] >= 1.0 - 1e-9
        drift = abs(rep2["C_H_hat"] - rep1["C_H_hat"]) / rep1["C_H_hat"]
        ok &= drift <= 0.20
        details.append(f"s={s}: C_H^={rep1['C_H_hat']:.2f} drift {drift:.1%}")
        # constants give exactly 1
        const = [HarmonicCombo(s, const=2.0, modes=[])]
        repc = harnack_family_report(s, const, 97, 48, kappa=0.5, R=0.5)
        ok &= repc["C_H_hat"] == 1.0
    _report(12, ok, f"{total}-solution family; " + "; ".join(details))


# Tiny (setup, problem) per experiment kind for the determinism reruns.
_TINY_RUNS = {
    "geometry-check": ({"s": 0.4}, {"samples": 100, "engulfing_samples": 10}),
    "fractional-apply": ({"s": 0.4}, {"grid_points": 16, "inverse": True,
                                      "quadrature": {"nodes": 8, "substeps": 2}}),
    "solve-extension": ({"s": 0.4}, {"nx": 17, "my": 8}),
    "barrier-check": ({"s": 0.4}, {"case": 1, "samples": 20}),
    "slide-paraboloids": ({"s": 0.4}, {"nx": 9, "nz": 9, "vertex_stride": 2,
                                       "check_refinement": False}),
    "harnack": ({"s": 0.4}, {"family_size": 2, "nx": 17, "my": 8}),
    "schauder-decay": ({"s": 0.4, "alpha": 0.5}, {"benchmark": "kinked", "case": 2,
                                                  "mx": 40, "my": 24}),
    "end-to-end": ({"s": 0.4}, {"grid_points": 16}),
}


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_criterion_13_determinism(tmp_path, kind):
    """Identical config + seed reproduce byte-identical reports and plots."""
    setup, problem = _TINY_RUNS[kind]
    dirs = [tmp_path / "r1", tmp_path / "r2"]
    for d in dirs:
        run(validate({"experiment": kind, "setup": setup, "problem": problem, "seed": 9,
                      "emit_plots": True}), str(d))
    names = sorted(os.listdir(dirs[0]))
    ok = names == sorted(os.listdir(dirs[1])) and len(names) >= 2
    for name in names:
        b1 = (dirs[0] / name).read_bytes()
        b2 = (dirs[1] / name).read_bytes()
        if name == "manifest.json":
            m1, m2 = json.loads(b1), json.loads(b2)
            for m in (m1, m2):
                m.pop("started")
                m.pop("finished")
            ok &= m1 == m2
        else:
            ok &= b1 == b2
    _report(13, ok, f"{kind}: {len(names)} outputs byte-identical across reruns "
                    "(timestamps excluded)")

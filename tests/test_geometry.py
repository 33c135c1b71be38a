"""Geometry module: closed-form identities, section machinery, empirical checks."""

import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from fracext import geometry, obs
from fracext.barriers import sample_annulus
from fracext.config import validate
from fracext.geometry import (MAGeometry, SectionDescriptor,
                              a_infinity_check, doubling_check, engulfing_check,
                              quasi_triangle_check, quotient_check,
                              scaling_identity_check)
from fracext.runner import run


def test_setup_validation():
    # MAGeometry owns s; lambda, Lambda and alpha are the config's
    for s in (1.2, 0.0, 1.0, float("nan")):
        with pytest.raises(ValueError, match="s must be in"):
            MAGeometry(s)
    with pytest.raises(ValueError, match="x-dimension"):
        MAGeometry(0.5, n=3)


def test_setup_constants_half():
    g = MAGeometry(0.5)
    assert g.q_s == np.sqrt(2.0)
    assert g.c_s == 1.0


def test_constants_and_checks_name_an_extreme_s():
    # s^2 underflows: q_s would divide by zero
    with pytest.raises(ValueError, match=r"s = 1e-300 is too close to 0"):
        MAGeometry(1e-300)
    # h = c |z|^1000 overflows on the scaling check's sample box
    with pytest.raises(ValueError, match=r"scaling_identity_check at s = 0\.001: overflow"):
        scaling_identity_check(MAGeometry(0.001), seed=0)
    # h' = c |z|^(2e-16) sign(z) is flat to rounding: a Newton step divides by zero
    g = MAGeometry(1.0 - 1e-16)
    with pytest.raises(ValueError, match=f"section endpoint at s = {g.s!r}: divide by zero"):
        g.section_interval(0.5, 0.1)


def test_an_endpoint_past_double_precision_names_s_z0_and_r():
    # h(2) ~ 4e55 at s = 0.005, so delta_h(2, .) = 1e-3 has no root in double
    # precision and Newton cannot converge; the error names the lane
    with pytest.raises(ValueError, match=r"s = 0\.005, z0 = 2\.0, R = 0\.001: Newton"):
        MAGeometry(0.005).section_interval(2.0, 1e-3)


def test_a_far_endpoint_at_s_0_002_is_the_mpmath_root():
    # far out a Newton step gains only a factor ~1 - s: from the reach, 200
    # steps did not reach the upper endpoint of S_1(0.3) at s = 0.002; from
    # q_s R^s, a bound on the half-width away from 0 at s <= 1/2, they do
    def f(z):  # delta_h(z0, z) - R
        s, z0 = mpmath.mpf(1) / 500, mpmath.mpf("0.3")
        h = lambda t: s**2 / (1 - s) * abs(t) ** (1 / s)
        return h(z) - h(z0) - s / (1 - s) * z0 ** (1 / s - 1) * (z - z0) - 1

    with mpmath.workdps(50):
        roots = [float(mpmath.findroot(f, (mpmath.mpf(a), mpmath.mpf(b)), solver="bisect"))
                 for a, b in ((-1.1, -1), (1, 1.1))]
    g = MAGeometry(0.002)
    ends = g.section_interval(0.3, 1.0)
    assert roots[1] == pytest.approx(1.02516587, abs=1e-8)
    for end, root in zip(ends, roots):
        assert abs(end - root) <= 4.0 * np.finfo(float).eps * abs(root)
    assert a_infinity_check(g)["lebesgue_ratios"][-1] == 2.0**-8


def test_delta_phi_examples():
    g = MAGeometry(0.5)
    g2 = MAGeometry(0.5, n=2)
    assert g.delta_phi(0.0, 0.0) == 0.0
    assert g2.delta_phi(np.array([0.0, 0.0]), np.array([2.0, 0.0])) == 2.0
    assert g2.delta_phi(np.array([1.0, 1.0]), np.array([2.0, 3.0])) == 2.5
    # symmetry and elementwise broadcasting in the scalar-coordinate case
    xs = np.linspace(-2, 2, 11)
    assert np.allclose(g.delta_phi(0.3, xs), g.delta_phi(xs, 0.3))


def test_delta_h_examples():
    g = MAGeometry(0.5)
    assert g.delta_h(1.0, 3.0) == pytest.approx(2.0, abs=1e-14)
    # z0 = 0: delta_h reduces to h for any s
    for s in (0.25, 0.4, 0.75):
        gs = MAGeometry(s)
        zs = np.linspace(-2, 2, 9)
        assert np.allclose(gs.delta_h(0.0, zs), gs.h(zs), atol=1e-14)
    # s = 1/3: h(z) = z^3/6 for z > 0; exact rational value 2/3
    g3 = MAGeometry(1.0 / 3.0)
    assert g3.delta_h(1.0, 2.0) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_delta_h_nonnegative_and_definite():
    rng = np.random.default_rng(7)
    for s in (0.25, 0.5, 0.75):
        g = MAGeometry(s)
        z0 = rng.uniform(-3, 3, 300)
        z = rng.uniform(-3, 3, 300)
        d = g.delta_h(z0, z)
        assert np.all(d >= -1e-14)
        assert np.all(g.delta_h(z0, z0) <= 1e-14)
        assert np.all(d[np.abs(z - z0) > 1e-3] > 0)


def test_mu_h_examples_and_additivity():
    g = MAGeometry(0.5)
    assert g.mu_h_interval(0.0, 2.0) == pytest.approx(2.0, abs=1e-14)
    for s in (0.25, 0.6):
        gs = MAGeometry(s)
        b = 1.7
        expected = 2.0 * s / (1.0 - s) * b ** ((1.0 - s) / s)
        assert gs.mu_h_interval(-b, b) == pytest.approx(expected, rel=1e-13)
        # additivity across adjacent intervals through 0
        total = gs.mu_h_interval(-1.0, 0.25) + gs.mu_h_interval(0.25, 2.0)
        assert total == pytest.approx(gs.mu_h_interval(-1.0, 2.0), rel=1e-13)
    g3 = MAGeometry(1.0 / 3.0)
    assert g3.mu_h_interval(1.0, 2.0) == pytest.approx(1.5, abs=1e-13)


def test_mu_h_vs_adaptive_quadrature():
    for s in (0.25, 0.5, 0.75):
        g = MAGeometry(s)
        w = lambda z: np.abs(z) ** (1.0 / s - 2.0)
        # away from 0: relative 1e-8
        val, _ = quad(w, 0.3, 1.9)
        assert abs(g.mu_h_interval(0.3, 1.9) - val) <= 1e-8 * abs(val)
        # across 0: absolute 1e-8 (integrable singularity or degeneracy)
        val0 = quad(w, -0.7, 0.0)[0] + quad(w, 0.0, 1.1)[0]
        assert abs(g.mu_h_interval(-0.7, 1.1) - val0) <= 1e-8


def test_hpp_rejected_at_zero():
    g = MAGeometry(0.75)
    with pytest.raises(ValueError):
        g.hpp(np.array([0.5, 0.0]))


def test_section_interval():
    g = MAGeometry(0.5)
    lo, hi = g.section_interval(0.0, 1.0)
    assert (lo, hi) == pytest.approx((-np.sqrt(2), np.sqrt(2)), abs=1e-14)
    lo, hi = g.section_interval(1.0, 2.0)
    assert (lo, hi) == pytest.approx((-1.0, 3.0), abs=1e-9)
    for s in (0.3, 0.8):
        gs = MAGeometry(s)
        R = 0.37
        half = gs.q_s * R**s
        assert gs.section_interval(0.0, R) == pytest.approx((-half, half))
        # off-center endpoints solve delta_h = R to high accuracy
        lo, hi = gs.section_interval(0.9, R)
        assert gs.delta_h(0.9, lo) == pytest.approx(R, rel=1e-9)
        assert gs.delta_h(0.9, hi) == pytest.approx(R, rel=1e-9)
    with pytest.raises(ValueError):
        g.section_interval(0.0, -1.0)


@pytest.mark.parametrize("z0, R", [(0.3, np.nan), (np.nan, 1.0), (0.3, np.inf), (np.inf, 1.0)])
def test_section_interval_rejects_non_finite(z0, R):
    with pytest.raises(ValueError):
        MAGeometry(0.5).section_interval(z0, R)
    with pytest.raises(ValueError):
        MAGeometry(0.5).section_interval(np.array([0.5, z0]), np.array([1.0, R]))


def _endpoint_oracle(g, z0, R, side):
    """Tight scalar brentq on delta_h(z0, .) - R, bracketed as section_endpoint is."""
    if z0 == 0.0:
        return side * g.q_s * R**g.s
    f = lambda z: float(g.delta_h(z0, z)) - R
    b = z0 + side * (g.q_s * (R + abs(float(g.delta_h(z0, 0.0)))) ** g.s + abs(z0))
    while f(b) < 0.0:
        b = z0 + 2.0 * (b - z0)
    lo, hi = sorted((z0, b))
    return brentq(f, lo, hi, xtol=1e-300, rtol=4 * np.finfo(float).eps, maxiter=500)


_s = st.floats(0.05, 0.95)
_z0 = st.one_of(st.floats(-2.0, 2.0), st.floats(-1e-6, 1e-6))
_R = st.floats(1e-6, 1e2)
_side = st.sampled_from([-1.0, 1.0])


def _close(a, b, z0, tol=1e-11):
    # relative to the section's scale: an endpoint much closer to 0 than z0
    # is fixed only up to the rounding of delta_h, which is relative to z0
    return abs(a - b) <= tol * max(abs(b), abs(z0))


@settings(max_examples=300, deadline=None)
@given(_s, _R)
def test_trace_center_puts_the_trace_on_the_section_boundary(s, R):
    # z0 = (R / s)^s has delta_h(z0, 0) = s z0^{1/s} = R, so S_R(z0) = (0, z_hi)
    g = MAGeometry(s)
    z0 = g.trace_center(R)
    assert z0 > 0.0 and z0 == (R / g.s) ** g.s
    assert abs(g.delta_h(z0, 0.0) - R) <= 1e-13 * R
    assert abs(g.section_interval(z0, R)[0]) <= 1e-14 * z0


@settings(max_examples=300, deadline=None)
@given(_s, _z0, _R, _side)
def test_section_endpoint_matches_tight_brentq(s, z0, R, side):
    g = MAGeometry(s)
    got = g.section_endpoint(z0, R, side)
    ref = _endpoint_oracle(g, z0, R, side)
    assert _close(got, ref, z0)
    assert np.sign(got - z0) == side


@settings(max_examples=200, deadline=None)
@given(_s, _z0, _R, _side, st.floats(0.1, 10.0))
def test_section_endpoint_anisotropic_scaling(s, z0, R, side, rho):
    # S_{rho^2 R}(rho^{2s} z0) = rho^{2s} S_R(z0)
    g = MAGeometry(s)
    k = rho ** (2.0 * s)
    scaled = g.section_endpoint(k * z0, rho**2 * R, side)
    assert _close(scaled, k * g.section_endpoint(z0, R, side), k * z0)


@settings(max_examples=50, deadline=None)
@given(_s, st.lists(st.tuples(st.one_of(_z0, st.sampled_from([0.0, -0.0])), _R, _side),
                    min_size=1, max_size=12))
def test_section_endpoint_array_equals_scalar_calls(s, lanes):
    g = MAGeometry(s)
    z0, R, side = (np.array(v) for v in zip(*lanes))
    got = g.section_endpoint(z0, R, side)
    assert got.shape == z0.shape
    assert np.array_equal(got, [g.section_endpoint(*lane) for lane in lanes])
    lo, hi = g.section_interval(z0, R)
    assert np.array_equal(lo, [g.section_interval(a, b)[0] for a, b in zip(z0, R)])
    assert np.array_equal(hi, [g.section_interval(a, b)[1] for a, b in zip(z0, R)])


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("s", [0.05, 0.3, 0.5, 0.75, 0.948])
def test_endpoint_newton_takes_at_most_25_steps_per_call(s, seed):
    # section centers and radii drawn as engulfing_check draws them; the
    # counters are paid once per call: lanes, Newton sweeps, lane-steps
    rng = np.random.default_rng(seed)
    r2 = rng.uniform(0.05, 1.0, 2000)
    r1 = r2 * rng.uniform(0.05, 0.95, 2000)
    t = np.exp(rng.uniform(np.log(1e-3), np.log(10.0), 2000))
    z0 = rng.uniform(-2.0, 2.0, 2000)
    g = MAGeometry(s)
    for R in (r2 * t, r1 * t):
        with obs.recording() as counts:
            g.section_interval(z0, R)
        assert counts["geometry.endpoint_lanes"] == 2 * np.count_nonzero(z0)
        assert 1 <= counts["geometry.endpoint_steps"] <= 25
        assert counts["geometry.endpoint_lane_steps"] <= 25 * counts["geometry.endpoint_lanes"]


def test_scale_point_membership_property():
    # the dilation (x, z) -> (rho x, rho^{2s} z) maps S_R x S_r to
    # S_{rho^2 R} x S_{rho^2 r}: membership before iff membership after,
    # against the raw delta definitions
    rng = np.random.default_rng(11)
    for s in (0.25, 0.5, 0.75):
        g = MAGeometry(s)
        for _ in range(200):
            rho = np.exp(rng.uniform(np.log(0.1), np.log(10.0)))
            R, r = rng.uniform(0.05, 2.0, 2)
            x0, z0 = rng.uniform(-1, 1, 2)
            x, z = rng.uniform(-2, 2, 2)
            before = (g.delta_phi(x0, x) < R) and (g.delta_h(z0, z) < r)
            after = (g.delta_phi(rho * x0, rho * x) < rho**2 * R) and \
                (g.delta_h(rho ** (2.0 * s) * z0, rho ** (2.0 * s) * z) < rho**2 * r)
            assert before == after
    # quadratic homogeneity at s = 1/2
    g = MAGeometry(0.5)
    assert g.delta_phi(0, 2.0) + g.delta_h(0, 2.0) == pytest.approx(4.0, abs=1e-13)


def test_exact_scaling_identity():
    for s in (0.25, 0.5, 0.75):
        rep = scaling_identity_check(MAGeometry(s), seed=1)
        assert rep["max_rel_err_h"] < 1e-12
        assert rep["max_rel_err_hp"] < 1e-12


def test_h_and_hp_are_their_closed_forms_bit_for_bit():
    # the exact-scaling check reads these bits; the endpoint solver's own
    # one-power h must not leak into them
    z = np.random.default_rng(8).uniform(-5.0, 5.0, 4096)
    for s in (0.05, 0.3, 0.5, 0.7, 0.95):
        g = MAGeometry(s)
        assert np.array_equal(g.h(z), s**2 / (1.0 - s) * np.abs(z) ** (1.0 / s))
        assert np.array_equal(g.hp(z), s / (1.0 - s) * np.abs(z) ** (1.0 / s - 1.0) * np.sign(z))


def _quasi_triangle_five_deltas(g, samples, seed):
    """quasi_triangle_check's report with each of its five deltas summed
    over the coordinate axis by np.sum."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-2.0, 2.0, size=(3, samples, g.n))
    zs = rng.uniform(-2.0, 2.0, size=(3, samples))

    def d(i, j):
        return 0.5 * np.sum((xs[j] - xs[i]) ** 2, axis=-1) + g.delta_h(zs[i], zs[j])

    num = d(0, 1)
    den = np.minimum(d(0, 2), d(2, 0)) + np.minimum(d(1, 2), d(2, 1))
    ok = den > 1e-12
    ratios = num[ok] / den[ok]
    return {"kind": "quasi-triangle", "s": g.s, "samples": int(ok.sum()),
            "K_hat": float(np.max(ratios)), "median_ratio": float(np.median(ratios))}


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("s", [0.05, 0.3, 0.7, 0.95])
def test_quasi_triangle_check_equals_the_five_delta_reference(s, n):
    g = MAGeometry(s, n=n)
    for seed in (0, 6061):
        assert quasi_triangle_check(g, 5000, seed) == _quasi_triangle_five_deltas(g, 5000, seed)


def test_quasi_triangle_finite():
    for s in (0.25, 0.5, 0.75):
        rep = quasi_triangle_check(MAGeometry(s), samples=20_000, seed=2)
        K = rep["K_hat"]
        assert np.isfinite(K) and K >= 1.0


def test_doubling_origin_closed_form():
    # at z0 = 0 the ratio |S| mu_h(S) / R equals 4/s for every R
    for s in (0.25, 0.5, 0.75):
        g = MAGeometry(s)
        rep = doubling_check(g, [(0.0, R) for R in (1e-3, 1e-1, 1.0, 10.0)])
        assert rep["min_ratio"] == pytest.approx(4.0 / s, rel=1e-10)
        assert rep["max_ratio"] == pytest.approx(4.0 / s, rel=1e-10)


def test_doubling_off_center_bounded():
    g = MAGeometry(0.75)
    rep = doubling_check(g, [(2.0, R) for R in np.geomspace(1e-3, 1.0, 7)])
    assert rep["min_ratio"] > 0
    assert np.isfinite(rep["max_ratio"])


def test_a_infinity_trend():
    for s in (0.25, 0.75):
        rep = a_infinity_check(MAGeometry(s))
        assert (rep["z0"], rep["R"], len(rep["lebesgue_ratios"])) == (0.3, 1.0, 8)
        w = rep["weight_ratios"]
        assert all(a > b for a, b in zip(w[:-1], w[1:]))
        assert w[-1] < 0.05


def test_quotient_bound_nondegenerate_regime():
    for s in (0.25, 0.4, 0.5):
        rep = quotient_check(MAGeometry(s), samples=20_000, seed=3)
        assert rep["min_Q"] >= 1.0 - 1e-10
    # degenerate regime: the quotient drops below 1 near z = 0, which is why
    # the second barrier construction exists
    g = MAGeometry(0.75)
    assert g.quotient(1.0, 0.01) < 1.0


def test_engulfing_no_violations():
    for s in (0.25, 0.5):
        rep = engulfing_check(MAGeometry(s), samples=3000, seed=4)
        assert rep["violations"] == 0
        assert rep["C0_hat"] > 0 and rep["C1_hat"] > 0
        assert rep["p0_hat"] >= 1.0 and rep["p1_hat"] >= 1.0


@pytest.mark.parametrize("samples", [1, 0])
def test_engulfing_check_refuses_fewer_than_two_samples(samples):
    # the exponent line is fitted through the samples: one point fixes no slope
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"samples must be >= 2, got {samples}"):
            engulfing_check(MAGeometry(0.3), samples=samples, seed=0)
    assert engulfing_check(MAGeometry(0.3), samples=2, seed=0)["samples"] == 2


def _quotient_whole_array(g, samples, seed):
    """quotient_check's report with Q evaluated on all the draws at once."""
    rng = np.random.default_rng(seed)
    z0 = np.exp(rng.uniform(np.log(1e-2), np.log(1e1), samples))
    z = np.exp(rng.uniform(np.log(1e-4), np.log(1e1), samples))
    keep = np.abs(z - z0) > 1e-12
    q = g.quotient(z0[keep], z[keep])
    return {"kind": "quotient", "s": g.s, "samples": int(keep.sum()),
            "min_Q": float(q.min()), "passes": bool(q.min() >= 1.0 - 1e-10)}


@pytest.mark.parametrize("n", [1, 2])
def test_blocked_samplers_equal_the_whole_array_reference(n):
    # quasi_triangle_check takes BLOCK_ELEMENTS // (3 (n + 1)) triples a
    # block and quotient_check BLOCK_ELEMENTS // 2 pairs: on either side of
    # one block, at one sample and at the benchmark's 20,000 the reports
    # keep every bit of a whole-array evaluation of the same draws
    g = MAGeometry(0.3, n=n)
    for block, check, reference in (
            (geometry.BLOCK_ELEMENTS // (3 * (n + 1)), quasi_triangle_check,
             _quasi_triangle_five_deltas),
            (geometry.BLOCK_ELEMENTS // 2, lambda g, m, seed: quotient_check(g, m, seed=seed),
             _quotient_whole_array)):
        for samples in (1, block - 1, block, block + 1, 20_000):
            assert check(g, samples, 6061) == reference(g, samples, 6061), (check, samples)


def test_samplers_refuse_a_bad_count_or_seed_by_name():
    g = MAGeometry(0.4)
    calls = {"quasi_triangle_check": lambda m, seed: quasi_triangle_check(g, m, seed),
             "quotient_check": lambda m, seed: quotient_check(g, m, seed=seed),
             "engulfing_check": lambda m, seed: engulfing_check(g, m, seed),
             "sample_annulus": lambda m, seed: sample_annulus(g, 1.0, 0.5, 0.1, m, seed)}
    for name, call in calls.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for samples in (0, -3, 2.5, True, None, "10", np.float64(10.0)):
                with pytest.raises(ValueError, match=r"^samples must be"):
                    call(samples, 0)
            for seed in (None, -1, 2.5, True, "0"):
                with pytest.raises(ValueError, match=r"^seed must be"):
                    call(10, seed)
        # a numpy integer is a count and a seed, with the bits of the int
        assert str(call(np.int64(10), np.int64(3))) == str(call(10, 3)), name
    for seed in (None, -1, 2.5, True):
        with pytest.raises(ValueError, match=r"^seed must be"):
            scaling_identity_check(g, seed)
    for sections in ([], [[]], [(0.5, 1.0, 2.0)], 0.5):
        with pytest.raises(ValueError, match=r"^sections must be a non-empty list"):
            doubling_check(g, sections)


def test_geometry_stage_hands_the_samplers_integer_counts(tmp_path):
    # the schema accepts an integral float as a count; the samplers take ints
    cfg = validate({"experiment": "geometry-check", "setup": {"s": 0.4},
                    "problem": {"samples": 200.0, "engulfing_samples": 20.0}})
    stage = run(cfg, str(tmp_path)).stages[0]
    assert stage["status"] == "pass", stage["details"]
    assert stage["details"]["engulfing"]["samples"] == 20


def test_geometry_stage_traced_peak_is_pinned(tmp_path):
    # the benchmark's geometry-check cases (20,000 triples, 400 engulfing
    # samples) at n = 2: the 2.2 MiB peak is quasi_triangle_check's
    # whole-array draws (1.4 MiB) and one block's temporaries; evaluated
    # whole-array it was 4.1
    cfg = validate({"experiment": "geometry-check", "setup": {"s": 0.4},
                    "problem": {"dimension": 2, "samples": 20_000, "engulfing_samples": 400}})
    run(cfg, str(tmp_path))  # imports and first-use set-up are not the stage's
    tracemalloc.start()
    try:
        assert run(cfg, str(tmp_path)).stages[0]["status"] == "pass"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 2**20


def test_engulfing_quadratic_exact_constants():
    # for the quadratic x-geometry, C0 = 1/4 and p0 = 2 engulf for all samples
    rng = np.random.default_rng(5)
    for _ in range(500):
        r2 = rng.uniform(0.05, 1.0)
        r1 = r2 * rng.uniform(0.05, 0.95)
        t = np.exp(rng.uniform(np.log(1e-3), np.log(10.0)))
        x1 = rng.uniform(-1, 1) * np.sqrt(2 * r1 * t)
        tau = 0.25 * (r2 - r1) ** 2 * t
        assert np.sqrt(2 * r1 * t) + np.sqrt(2 * tau) <= np.sqrt(2 * r2 * t) + 1e-12


def test_section_descriptor_membership_and_chain():
    rng = np.random.default_rng(6)
    center_x, center_z = (0.2, 0.4), -0.1
    for s in (0.3, 0.7):
        g = MAGeometry(s, n=2)
        sec = SectionDescriptor(center_x, center_z, 0.8, kind="section")
        cyl = SectionDescriptor(center_x, center_z, 0.8, kind="cylinder")
        x = rng.uniform(-2, 2, size=(4000, 2))
        z = rng.uniform(-2, 2, 4000)
        in_sec = sec.contains(g, x, z)
        in_cyl = cyl.contains(g, x, z)
        # membership agrees with the raw delta definition
        raw = g.delta_phi(np.asarray(center_x), x) + g.delta_h(center_z, z) < 0.8
        assert np.array_equal(in_sec, raw)
        # containment S subset S x S
        assert np.all(~in_sec | in_cyl)
    for kind in ("blob", "cube", "rectangle"):
        with pytest.raises(ValueError, match="unknown section kind"):
            SectionDescriptor((0.0,), 0.0, 0.5, kind=kind)


@pytest.mark.parametrize("R, r, name", [(np.nan, None, "R"), (np.inf, None, "R"),
                                        (0.5, np.nan, "r"), (0.5, -np.inf, "r"),
                                        (0.5, 0.0, "r")])
@pytest.mark.parametrize("kind", ["section", "cylinder"])
def test_section_descriptor_refuses_a_bad_radius(R, r, name, kind):
    # R = nan used to describe an empty section, whose membership is all False
    with pytest.raises(ValueError, match=f"section radius {name} must be finite and positive"):
        SectionDescriptor((0.0,), 0.0, R, kind, r)


@settings(max_examples=80, deadline=None)
@given(s=st.floats(0.2, 0.8), n=st.sampled_from([1, 2]),
       z0=st.one_of(st.just(0.0), st.floats(-1.0, 1.0)), R=st.floats(0.05, 2.0),
       r=st.floats(0.05, 2.0), seed=st.integers(0, 2**16))
@example(s=0.5, n=1, z0=0.0, R=0.25, r=0.125, seed=0)
@example(s=0.3, n=2, z0=0.6, R=0.5, r=1.5, seed=1)
def test_section_descriptor_cylinder_is_the_product_of_delta_balls(s, n, z0, R, r, seed):
    # away from the boundary (relative gap > 1e-12) the cylinder's x-part is
    # delta_phi < R and its z-part delta_h(z0, .) < r, each seen with the
    # other coordinate at the center, and S_R lies in S_R x S_R
    g = MAGeometry(s, n=n)
    rng = np.random.default_rng(seed)
    cx = rng.uniform(-1.0, 1.0, n)
    x = cx + rng.uniform(-1.5, 1.5, size=(2000, n)) * np.sqrt(2.0 * R)
    if n == 1:
        cx, x = cx[0], x[:, 0]
    lo, hi = g.section_interval(z0, r)
    z = rng.uniform(lo - 0.5 * (hi - lo), hi + 0.5 * (hi - lo), 2000)
    dphi, dh = g.delta_phi(cx, x), g.delta_h(z0, z)
    far_x, far_z = np.abs(dphi - R) > 1e-12 * R, np.abs(dh - r) > 1e-12 * r
    cyl = SectionDescriptor(tuple(np.atleast_1d(cx)), z0, R, "cylinder", r)
    in_z = cyl.contains(g, np.broadcast_to(cx, x.shape), z)
    in_x = cyl.contains(g, x, np.full(len(z), z0))
    assert np.array_equal(in_z[far_z], (dh < r)[far_z])
    assert np.array_equal(in_x[far_x], (dphi < R)[far_x])
    assert in_z.any() and (~in_z).any() and in_x.any() and (~in_x).any()
    far = far_x & (np.abs(dh - R) > 1e-12 * R)
    in_sec = SectionDescriptor(cyl.center_x, z0, R).contains(g, x, z)
    in_same = SectionDescriptor(cyl.center_x, z0, R, "cylinder").contains(g, x, z)
    assert np.all(~in_sec[far] | in_same[far])

"""Monge-Ampere geometry of the product convex function Phi(x, z) = |x|^2/2 + h(z).

Everything here is closed form for fixed s in (0, 1):

    h(z)   = s^2/(1-s) |z|^(1/s)
    h'(z)  = s/(1-s) |z|^(1/s - 1) sign(z)
    h''(z) = |z|^(1/s - 2)          (z != 0)

MAGeometry owns s and its constants q_s and c_s; the change of variables
y = 2s z^(1/(2s)) that turns h into c_s y^2/2 (transform_to_y) is here too.
Quasi-distances and sections are built from the Bregman deltas of
phi(x) = |x|^2/2 and h; SectionDescriptor.contains is the package's one rule
for which nodes lie in a section or cylinder (its callers are listed there).
Measures of h-intervals always use the exact antiderivative h', never
pointwise h'' (which is singular or degenerate at z = 0 depending on s).  The
one quantity without a closed form is a section endpoint off the origin, the
root of delta_h(z0, .) = R; it is solved for whole arrays of (z0, R) at once
by safeguarded Newton steps (MAGeometry.section_endpoint).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import obs

# section_endpoint: caps on bracket doublings and Newton steps (the sections
# of the geometry checks take at most ~24 steps per call; far out, a Newton
# step gains only a factor ~1 - s, so the upper endpoint of S_1(0.3) at s =
# 0.002 takes 134), and the converged step relative to max(|z|, |z0|)
_BRACKET_DOUBLINGS = 200
_NEWTON_STEPS = 200
_ENDPOINT_TOL = 4.0 * np.finfo(float).eps

# Elements in one temporary of a blocked computation: 256 KiB of float64, so
# a block's few temporaries fit in a 1-2 MiB L2 cache and a call faults in
# fresh pages for a few blocks, not for its whole problem (a fresh 4 KiB page
# costs about 3 us on a 2-core Xeon VM, some 15 times writing a mapped one).
# The samplers of this module, the min-plus passes of barriers, the exact
# shifted columns of a slide and the runner's touch check stay within it, or
# within one row of the reduced axis when that row alone is longer.
BLOCK_ELEMENTS = 1 << 15


def blocks(n, width):
    """Consecutive slices of range(n), max(1, BLOCK_ELEMENTS // width) items each."""
    step = max(1, BLOCK_ELEMENTS // max(1, width))
    return [slice(k, min(k + step, n)) for k in range(0, n, step)]


def __getattr__(name):
    # the benchmark tracer looks `brentq` up here by name; it is resolved on
    # each lookup and never stored, so importing geometry skips scipy.optimize
    if name == "brentq":
        from scipy.optimize import brentq
        return brentq
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _scalar(v):
    return isinstance(v, (float, int))


def _check_radius(R):
    """The refusals of a scalar section radius, in section_endpoint's words."""
    if R <= 0:
        raise ValueError("section radius must be positive")
    if not math.isfinite(R):
        raise ValueError("section center and radius must be finite")


def _order(s):
    """s as a float, the one rule for a valid s: ValueError naming s unless
    it is one number in (0, 1), not a string, bytes or an array of shape
    other than ()."""
    if getattr(s, "ndim", 0) == 0 and not isinstance(s, (str, bytes)):
        try:
            if 0.0 < float(s) < 1.0:
                return float(s)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"s must be in (0,1), got s = {s!r}")


def _count(v, name, lo):
    """v as an int, the one rule for a sample count (lo = 1 or 2) and a seed
    (lo = 0): ValueError naming `name` unless v is an int or numpy integer,
    not a bool, of at least lo.  A seed of None would draw fresh entropy and
    leave the report irreproducible."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {name} = {v!r}")
    if v < lo:
        raise ValueError(f"{name} must be >= {lo}, got {v!r}")
    return int(v)


def _real(v, name, refusal):
    """v as a float array (0-d for a scalar), the one rule for a real height
    or eigenvalue: ValueError `refusal`, naming `name` and v, unless v holds
    only finite int or float numbers (no str, bytes, bool, complex or object)."""
    a = np.asarray(v)
    if a.dtype.kind not in "iuf" or not np.isfinite(a).all():
        raise ValueError(f"{refusal}, got {name} = {v!r}")
    return a.astype(float, copy=False)


def transform_to_y(z, s):
    """y = 2s z^{1/(2s)}; turns h(z) into c_s y^2 / 2.  Identity at s = 1/2.
    ValueError unless s is in (0, 1) (`_order`) and z is finite and >= 0 (`_real`)."""
    s = _order(s)
    z = _real(z, "z", "transform defined for z >= 0")
    if np.any(z < 0):
        raise ValueError("transform defined for z >= 0")
    out = 2.0 * s * z ** (1.0 / (2.0 * s))
    return out if out.ndim else float(out)


def transform_to_z(y, s):
    """Inverse transform z = (y / 2s)^{2s}; ValueError unless s is in (0, 1)
    (`_order`) and y is finite and >= 0 (`_real`)."""
    s = _order(s)
    y = _real(y, "y", "transform defined for y >= 0")
    if np.any(y < 0):
        raise ValueError("transform defined for y >= 0")
    out = (y / (2.0 * s)) ** (2.0 * s)
    return out if out.ndim else float(out)


class MAGeometry:
    """Closed-form quasi-metric machinery for fixed s and x-dimension n.

    Owns s: ValueError unless s is one number in (0, 1) (`_order`) and the
    constants of h, q_s and c_s are finite and nonzero (not so for s below
    ~1e-154).  Immutable after construction; every method is pure and safe
    to share between threads.
    """

    def __init__(self, s, n=1):
        s = _order(s)
        if n not in (1, 2):
            raise ValueError("x-dimension must be 1 or 2")
        self.s = s
        self.n = n
        self._hcoef = s**2 / (1.0 - s)
        self._hpcoef = s / (1.0 - s)
        # S_R(0) = (-q_s R^s, q_s R^s), and h(z) = c_s y^2 / 2 in y = transform_to_y(z, s)
        self.q_s = ((1.0 - s) / s**2) ** s if self._hcoef > 0.0 else math.inf
        self.c_s = 1.0 / (2.0 * (1.0 - s))
        if not math.isfinite(self.q_s):
            raise ValueError(f"s = {s!r} is too close to 0: s^2 underflows, so the "
                             f"constants of h are not finite and nonzero")
        self._inv_s = 1.0 / s
        self._weight_exp = 1.0 / s - 2.0

    # -- the convex profile and its derivatives -------------------------------

    def h(self, z):
        return self._hcoef * np.abs(z) ** self._inv_s

    def hp(self, z):
        z = np.asarray(z, dtype=float)
        return self._hpcoef * np.abs(z) ** (self._inv_s - 1.0) * np.sign(z)

    def hpp(self, z):
        """Weight h''(z) = |z|^(1/s-2); defined only off {z = 0}."""
        z = np.asarray(z, dtype=float)
        if np.any(z == 0.0):
            raise ValueError("h'' is evaluated only off {z=0}; use mu_h_interval for measures")
        return np.abs(z) ** self._weight_exp

    # -- quasi-distances -------------------------------------------------------

    def delta_phi(self, x0, x):
        """delta_phi(x0, x) = |x - x0|^2 / 2.

        For n = 1 scalar coordinates broadcast elementwise; for n = 2 points
        carry a trailing coordinate axis of length n.
        """
        x0 = np.asarray(x0, dtype=float)
        x = np.asarray(x, dtype=float)
        d = x - x0
        if self.n == 1:
            return 0.5 * d * d
        if d.shape[-1] != self.n:
            raise ValueError(f"points must have a trailing axis of length {self.n}")
        return 0.5 * np.sum(d * d, axis=-1)

    def delta_h(self, z0, z):
        z0 = np.asarray(z0, dtype=float)
        z = np.asarray(z, dtype=float)
        return self.h(z) - self.h(z0) - self.hp(z0) * (z - z0)

    def delta_Phi(self, p0, p):
        """delta_Phi((x0,z0),(x,z)); points are (x, z) pairs."""
        x0, z0 = p0
        x, z = p
        return self.delta_phi(x0, x) + self.delta_h(z0, z)

    # -- measures --------------------------------------------------------------

    def mu_h_interval(self, a, b):
        """mu_h([a,b]) = h'(b) - h'(a), exact for any interval (h' is continuous at 0)."""
        if np.any(np.asarray(a) > np.asarray(b)):
            raise ValueError("interval endpoints must satisfy a <= b")
        return self.hp(b) - self.hp(a)

    # -- sections ----------------------------------------------------------------

    def section_interval(self, z0, R):
        """Open interval {z : delta_h(z0, z) < R} as the pair (lower, upper).

        z0 and R broadcast against each other; both sides are solved in one
        section_endpoint call, and scalar inputs give scalar endpoints.
        """
        if _scalar(z0) and _scalar(R) and z0 == 0.0:
            _check_radius(R)  # centered: q_s R^s, with the array path's power bits
            half = self.q_s * np.power(float(R), self.s)
            return -half, half
        ends = self.section_endpoint(np.expand_dims(z0, -1), np.expand_dims(R, -1), (-1.0, 1.0))
        return ends[..., 0][()], ends[..., 1][()]

    def trace_center(self, R):
        """The z0 > 0 with delta_h(z0, 0) = s z0^(1/s) = R: S_R(z0) = (0, z_hi).
        ValueError unless R is finite and positive."""
        _check_radius(R)
        return (R / self.s) ** self.s

    def section_endpoint(self, z0, R, side):
        """The z with delta_h(z0, z) = R on the given side (+1 or -1) of z0.

        z0, R and side broadcast.  Centered at 0 the endpoint is side q_s R^s.
        Elsewhere f = delta_h(z0, .) - R is convex and monotone on each side
        of z0.  Each lane starts from an outer end at the quadratic-regime
        half-width sqrt(2R / h''(z0)) when that is below |z0|; a section
        reaching across 0 toward it starts at an upper bound on its reach past
        0; at s <= 1/2 a lane away from 0 starts at the smaller of sqrt(2R /
        h''(z0)) and q_s R^s, both upper bounds on its half-width; every other
        lane starts at the reach q_s (R + |delta_h(z0, 0)|)^s + |z0|.  The
        outer end is doubled until f >= 0; then all lanes take Newton steps
        with the exact derivative h' - h'(z0), one power of |z| per step,
        bisecting their bracket whenever a step is not strictly inside it,
        until the step is a few ulp.  On engulfing_check's draws (z0 in [-2,
        2], R = r t, r <= 1, t log-uniform in [1e-3, 10]) a call takes at most
        24 steps for s in [0.05, 0.948], a lane 4 to 8 on average (obs
        counters geometry.endpoint_*).  A lane that does not converge raises
        ValueError naming s, z0 and R; a zero slope (h' flat to rounding for s
        within ~1e-16 of 1), one naming s.
        """
        z0, R, side = np.broadcast_arrays(np.asarray(z0, dtype=float),
                                          np.asarray(R, dtype=float),
                                          np.asarray(side, dtype=float))
        if np.any(R <= 0):
            raise ValueError("section radius must be positive")
        if not (np.all(np.isfinite(z0)) and np.all(np.isfinite(R))):
            raise ValueError("section center and radius must be finite")
        if not np.all(np.abs(side) == 1.0):
            raise ValueError("section side must be +1 or -1")
        out = np.asarray(side * self.q_s * R**self.s)
        solve = z0 != 0.0
        if np.any(solve):
            try:
                out[solve] = self._solve_endpoints(z0[solve], R[solve], side[solve])
            except FloatingPointError as exc:
                raise ValueError(f"section endpoint at s = {self.s!r}: {exc}") from exc
        return out[()]

    # the bracket test reads only the sign of (new - inner) (new - outer), which
    # overflows to an infinity of the right sign on huge sections (R ~ 1e300);
    # a zero slope (h' flat to rounding as s nears 1) raises
    @np.errstate(over="ignore", divide="raise", invalid="raise")
    def _solve_endpoints(self, z0, R, side):
        # per lane z0, R, h(z0) and h'(z0), compressed as lanes finish
        c = np.stack([z0, R, self.h(z0), self.hp(z0)])

        def f_slope(z, c):
            # f = delta_h(z0, z) - R and its slope h'(z) - h'(z0) from one
            # power q = |z|^(1/s - 1): h' = s/(1-s) q sign z has the bits of
            # hp, h = s^2/(1-s) |z| q may differ from h in the last bit
            az = np.abs(z)
            q = az ** (self._inv_s - 1.0)
            f = self._hcoef * az * q - c[2] - c[3] * (z - c[0]) - c[1]
            return f, np.copysign(self._hpcoef * q, z) - c[3]

        # start at the quadratic-regime half-width sqrt(2R / h''(z0)) where it
        # is below |z0| (h'' changes little over it) and moves z0, else at the
        # reach q_s (R + |delta_h(z0, 0)|)^s + |z0|; at s <= 1/2 a lane away
        # from 0 starts at the smaller of sqrt(2R / h''(z0)) and q_s R^s.  A
        # section reaching across 0 toward it starts at |z0| plus the smaller
        # of the two upper bounds R' / |h'(z0)| and q_s R'^s, R' = R -
        # delta_h(z0, 0).
        a = np.abs(z0)
        d0 = np.abs(0.0 - c[2] - c[3] * (0.0 - z0))  # |delta_h(z0, 0)|
        t = self.q_s * (R + d0) ** self.s + a
        hpp = (self._inv_s - 1.0) * np.abs(c[3]) / a  # h''(z0), from h'(z0)
        quad = np.sqrt(2.0 * R / np.where(hpp > 0.0, hpp, 1.0))
        local = (hpp > 0.0) & (quad < a) & (quad > _ENDPOINT_TOL * a)
        t[local] = quad[local]
        if self.s <= 0.5:
            # h'' grows with |z|: away from 0, delta_h(z0, z0 + side t) >=
            # max(h''(z0) t^2 / 2, h(t)), so both starts are at or past the root
            away = (side * z0 > 0.0) & (hpp > 0.0) & (quad > _ENDPOINT_TOL * a)
            t[away] = np.minimum(quad[away], self.q_s * R[away] ** self.s)
        cross = (side * z0 < 0.0) & (R > d0)
        if cross.any():
            rest, slope0 = R[cross] - d0[cross], np.abs(c[3, cross])
            lin = np.divide(rest, slope0, out=np.full_like(rest, np.inf), where=slope0 > 0.0)
            # widened by 2^-20 so that rounding of f cannot put a near-tight
            # bound below the root: a doubling there costs ~ln 2 / s far steps
            t[cross] = (a[cross] + np.minimum(lin, self.q_s * rest**self.s)) * (1.0 + 2.0**-20)
        outer = z0 + side * t
        fz, slope = f_slope(outer, c)
        # lanes are selected by index arrays: cheaper than boolean masks
        for _ in range(_BRACKET_DOUBLINGS):
            short = np.flatnonzero(fz < 0.0)
            if not short.size:
                break
            t[short] *= 2.0
            outer[short] = z0[short] + side[short] * t[short]
            fz[short], slope[short] = f_slope(outer[short], c.take(short, axis=1))
        else:
            raise self._unsolved(c.take(short, axis=1), "bracket did not close")

        # z is always an end of the bracket [inner (f < 0), outer (f >= 0)], so
        # an iterate not strictly inside it would only repeat an end (a
        # 2-cycle in the rounding noise of f) and is replaced by the midpoint
        lanes = np.arange(z0.size)
        inner, z = z0.copy(), outer
        result = np.empty_like(z0)
        lane_steps = 0
        for step in range(1, _NEWTON_STEPS + 1):
            lane_steps += lanes.size
            new = z - fz / slope
            off = (new != z) & ~((new - inner) * (new - outer) < 0.0)
            if off.any():
                new = np.where(off, 0.5 * (inner + outer), new)
            # the rounding of f in z is relative to the larger of |z| and |z0|
            done = np.abs(new - z) <= _ENDPOINT_TOL * np.maximum(np.abs(new), np.abs(c[0]))
            if done.any():
                result[lanes[done]] = new[done]
                keep = np.flatnonzero(~done)
                if not keep.size:
                    obs.count("geometry.endpoint_lanes", z0.size)
                    obs.count("geometry.endpoint_steps", step)
                    obs.count("geometry.endpoint_lane_steps", lane_steps)
                    return result
                lanes, c, inner, outer, new = (lanes[keep], c.take(keep, axis=1), inner[keep],
                                               outer[keep], new[keep])
            z = new
            fz, slope = f_slope(z, c)
            below = fz < 0.0
            inner = np.where(below, z, inner)
            outer = np.where(below, outer, z)
        raise self._unsolved(c, "Newton iteration did not converge")

    def _unsolved(self, c, what):
        # the first unsolved lane; h(2) ~ 4e55 at s = 0.005 leaves some with no root
        return ValueError(f"section endpoint at s = {self.s!r}, z0 = {float(c[0, 0])!r}, "
                          f"R = {float(c[1, 0])!r}: {what}")

    # -- the barrier quotient -----------------------------------------------------

    def quotient(self, z0, z):
        """Q(z) = (h'(z)-h'(z0))^2 / (h''(z) delta_h(z0,z)).

        Q >= 1 on {z > 0} holds for s <= 1/2; for s > 1/2 the quotient
        degenerates near z = 0 (Q(0) = 0), which is why the two barrier
        constructions differ.
        """
        num = (self.hp(z) - self.hp(z0)) ** 2
        den = self.hpp(z) * self.delta_h(z0, z)
        return num / den


@dataclass(frozen=True)
class SectionDescriptor:
    """A section or cylinder of the (x, z) geometry: the package's one
    membership rule, used by `regularity` (`schauder_decay`'s regions,
    `campanato_iterate`, `harnack_quotient`, `harnack_family_report`,
    `holder_seminorm_state`, `approximation_distance`),
    `benchmarks.x_derivative_scaling` and `barriers.touch_test`.

    "section": delta_Phi((x0, z0), (x, z)) < R.  "cylinder" S_R(x0) x S_r(z0)
    (r = R unless given): |x - x0| < sqrt(2 R) and z strictly inside
    geom.section_interval(z0, r).  delta_phi < R and delta_h(z0, .) < r give
    the same set but decide some boundary nodes the other way, and the decay
    and Campanato reports rest on this form.
    """

    center_x: tuple
    center_z: float
    R: float
    kind: str = "section"
    r: float | None = None

    def __post_init__(self):
        for name, radius in (("R", self.R), ("r", self.R if self.r is None else self.r)):
            if not (math.isfinite(radius) and radius > 0):
                raise ValueError(f"section radius {name} must be finite and positive, "
                                 f"got {radius!r}")
        if self.kind not in ("section", "cylinder"):
            raise ValueError(f"unknown section kind {self.kind!r}")

    def contains(self, geom: MAGeometry, x, z):
        """Vectorized membership; x has shape (..., n) (or plain (...) for
        n = 1) and broadcasts against z."""
        x = np.asarray(x, dtype=float)
        z = np.asarray(z, dtype=float)
        cx = np.asarray(self.center_x, dtype=float)
        if geom.n == 1:
            cx = cx.reshape(()) if cx.size == 1 else cx
        if self.kind == "section":
            return geom.delta_Phi((cx, self.center_z), (x, z)) < self.R
        dist = np.abs(x - cx) if geom.n == 1 else np.linalg.norm(x - cx, axis=-1)
        lo, hi = geom.section_interval(self.center_z, self.R if self.r is None else self.r)
        return (dist < np.sqrt(2.0 * self.R)) & (lo < z) & (z < hi)


# -- empirical property reports -------------------------------------------------
#
# Each check returns a plain dict: its "kind", the order "s" and its measurements.


def _names_s(check):
    """check(geom, ...) or check(s, ...) with its floating-point exceptions
    raised as a ValueError that names s: near s = 0, h = c |z|^(1/s) and
    y = 2s z^(1/(2s)) overflow on the sample boxes."""
    @functools.wraps(check)
    def checked(geom, *args, **kwargs):
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                return check(geom, *args, **kwargs)
        except FloatingPointError as exc:
            s = geom.s if isinstance(geom, MAGeometry) else geom
            raise ValueError(f"{check.__name__} at s = {s!r}: {exc}") from exc
    return checked


@_names_s
def quasi_triangle_check(geom: MAGeometry, samples, seed):
    """Empirical quasi-triangle constant over triples sampled in [-2, 2]^(n+1).

    Returns the largest ratio delta(p1,p2) / (min-sym delta(p1,p3) +
    min-sym delta(p2,p3)) over denominators above 1e-12; the constant is
    existential so only finiteness and K >= 1 are asserted downstream.
    The triples are drawn as whole arrays, then h, h', the five deltas and
    the ratios are evaluated one block of BLOCK_ELEMENTS // (3 (n + 1))
    triples at a time (a block reads at most BLOCK_ELEMENTS draws); the
    maximum and median over the blocks' ratios in order are those of a
    whole-array evaluation, bit for bit.  ValueError naming samples or
    seed unless samples is an integer >= 1 and seed one >= 0 (`_count`).
    """
    samples, seed = _count(samples, "samples", 1), _count(seed, "seed", 0)
    n = geom.n
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-2.0, 2.0, size=(3, samples, n))
    zs = rng.uniform(-2.0, 2.0, size=(3, samples))
    ratios = []
    for b in blocks(samples, 3 * (n + 1)):
        x, z = xs[:, b], zs[:, b]
        hz, hpz = geom.h(z), geom.hp(z)  # once per block, for the 5 deltas
        # delta_phi is symmetric: once per unordered pair, summed coordinate by
        # coordinate (the bits of np.sum over the length-n axis)
        dphi = {}
        for i, j in ((0, 1), (0, 2), (1, 2)):
            dx = x[j] - x[i]
            sq = dx[:, 0] ** 2
            for k in range(1, n):
                sq = sq + dx[:, k] ** 2
            dphi[i, j] = dphi[j, i] = 0.5 * sq

        def d(i, j):
            return dphi[i, j] + (hz[j] - hz[i] - hpz[i] * (z[j] - z[i]))  # delta_h(z[i], z[j])

        num = d(0, 1)
        den = np.minimum(d(0, 2), d(2, 0)) + np.minimum(d(1, 2), d(2, 1))
        ok = den > 1e-12
        ratios.append(num[ok] / den[ok])
    ratios = np.concatenate(ratios)
    return {"kind": "quasi-triangle", "s": geom.s,
            "samples": len(ratios),
            "K_hat": float(np.max(ratios)),
            "median_ratio": float(np.median(ratios))}


@_names_s
def scaling_identity_check(geom: MAGeometry, seed):
    """Max relative error of rho^2 h(z) = h(rho^{2s} z) and the h' analogue
    over 2048 sampled (rho, z).  ValueError naming seed unless it is an
    integer >= 0 (`_count`)."""
    rng = np.random.default_rng(_count(seed, "seed", 0))
    rho = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), 2048))
    z = rng.uniform(-5.0, 5.0, 2048)
    z[z == 0.0] = 0.5
    lhs_h = rho**2 * geom.h(z)
    rhs_h = geom.h(rho ** (2 * geom.s) * z)
    lhs_hp = rho ** (2 - 2 * geom.s) * geom.hp(z)
    rhs_hp = geom.hp(rho ** (2 * geom.s) * z)
    err_h = np.max(np.abs(lhs_h - rhs_h) / np.maximum(np.abs(lhs_h), 1e-300))
    err_hp = np.max(np.abs(lhs_hp - rhs_hp) / np.maximum(np.abs(lhs_hp), 1e-300))
    return {"kind": "exact-scaling", "s": geom.s,
            "max_rel_err_h": float(err_h),
            "max_rel_err_hp": float(err_hp)}


@_names_s
def doubling_check(geom: MAGeometry, sections):
    """Ratios |S_R(z0)| mu_h(S_R(z0)) / R over a list of (z0, R) pairs.
    ValueError naming sections unless it holds at least one pair."""
    sections = np.asarray(sections, dtype=float)
    if sections.ndim != 2 or sections.shape[1] != 2 or not len(sections):
        raise ValueError(f"sections must be a non-empty list of (z0, R) pairs, "
                         f"got shape {sections.shape}")
    z0, R = sections.T
    zlo, zhi = geom.section_interval(z0, R)
    ratios = (zhi - zlo) * geom.mu_h_interval(zlo, zhi) / R
    return {"kind": "doubling", "s": geom.s,
            "sections": len(ratios),
            "min_ratio": float(ratios.min()),
            "max_ratio": float(ratios.max()),
            "ratios": [float(r) for r in ratios]}


@_names_s
def a_infinity_check(geom: MAGeometry):
    """Lebesgue-ratio vs weight-ratio trend for shrinking subsets E_k of S_1(0.3).

    E_k (k = 1..8) is an interval of length |S| 2^-k anchored at the endpoint
    where the weight is largest, the adversarial placement.  Both ratios must
    decrease to 0; |E|/|S| small => mu_h(E)/mu_h(S) small is the A_infinity
    behaviour being probed.
    """
    z0, R = 0.3, 1.0
    zlo, zhi = geom.section_interval(z0, R)
    length = zhi - zlo
    mu_S = geom.mu_h_interval(zlo, zhi)
    # h'' is monotone in |z|: largest near 0 for s > 1/2, away from 0 otherwise
    anchor_lo = (geom.s > 0.5) == (abs(zlo) < abs(zhi))
    leb = [2.0**-k for k in range(1, 9)]  # |E_k| / |S|: scaling by 2^-k is exact
    ends = [(zlo, zlo + length * r) if anchor_lo else (zhi - length * r, zhi) for r in leb]
    wgt = [float(geom.mu_h_interval(a, b) / mu_S) for a, b in ends]
    return {"kind": "a-infinity", "s": geom.s, "z0": z0, "R": R,
            "lebesgue_ratios": leb, "weight_ratios": wgt}


@_names_s
def quotient_check(geom: MAGeometry, samples=20_000, *, seed):
    """Minimum of Q(z) over sampled z0 > 0, z > 0; passes when it is at least
    1 - 1e-10.

    The lower bound Q >= 1 is a property of the s <= 1/2 regime (the
    quotient vanishes at z = 0 when s > 1/2); callers should gate on s.
    The pairs are drawn as whole arrays and Q is evaluated one block of
    BLOCK_ELEMENTS // 2 pairs at a time (a block reads at most
    BLOCK_ELEMENTS draws); the minimum over the blocks is that of a
    whole-array evaluation.  ValueError naming samples or seed unless
    samples is an integer >= 1 and seed one >= 0 (`_count`).
    """
    samples, seed = _count(samples, "samples", 1), _count(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    z0 = np.exp(rng.uniform(np.log(1e-2), np.log(1e1), samples))
    z = np.exp(rng.uniform(np.log(1e-4), np.log(1e1), samples))
    kept, min_Q = 0, np.inf
    for b in blocks(samples, 2):
        keep = np.abs(z[b] - z0[b]) > 1e-12
        kept += int(keep.sum())
        q = geom.quotient(z0[b][keep], z[b][keep])
        min_Q = min(min_Q, float(np.min(q, initial=np.inf)))
    return {"kind": "quotient", "s": geom.s,
            "samples": kept,
            "min_Q": min_Q,
            "passes": min_Q >= 1.0 - 1e-10}


@_names_s
def engulfing_check(geom: MAGeometry, samples, seed):
    """Monte-Carlo engulfing constants for cubes in x and sections in z.

    For sampled (r1 < r2 <= 1, t in [1e-3, 10] log-uniform, z-center in
    [-2, 2], inner point) the largest radius tau such
    that the inner cube/section of radius tau still fits inside the outer one
    is computed exactly; the report gives the lower-envelope constants
    (C, p) with C (r2-r1)^p t <= tau over every sample, so violations at the
    reported constants are zero by construction.  ValueError naming samples
    or seed unless samples is an integer >= 2 (the exponent line needs two
    points) and seed one >= 0 (`_count`).
    """
    samples, seed = _count(samples, "samples", 2), _count(seed, "seed", 0)
    n = geom.n
    rng = np.random.default_rng(seed)
    r2 = rng.uniform(0.05, 1.0, samples)
    r1 = r2 * rng.uniform(0.05, 0.95, samples)
    t = np.exp(rng.uniform(np.log(1e-3), np.log(10.0), samples))

    # x component: cubes are products of per-coordinate intervals
    half_outer = np.sqrt(2.0 * r2 * t)
    x1 = rng.uniform(-1.0, 1.0, size=(samples, n)) * np.sqrt(2.0 * r1 * t)[:, None]
    tau_x = 0.5 * np.min((half_outer[:, None] - np.abs(x1)) ** 2, axis=1)

    # z component: sections of h
    z0 = rng.uniform(-2.0, 2.0, samples)
    # the outer S_{r2 t}(z0) and, for the inner center z1, S_{r1 t}(z0) in one solve
    (zlo, ilo), (zhi, ihi) = geom.section_interval(z0, np.stack([r2 * t, r1 * t]))
    z1 = ilo + (ihi - ilo) * rng.uniform(0.02, 0.98, samples)
    tau_z = np.minimum(geom.delta_h(z1, zlo), geom.delta_h(z1, zhi))
    if not np.all(tau_z > 0.0):
        raise ValueError(f"engulfing_check at s = {geom.s!r}: tau_z = min delta_h(z1, section "
                         f"ends) cancels to 0 in double precision for "
                         f"{int(np.sum(~(tau_z > 0.0)))} of {samples} samples")

    def envelope(tau):
        u = np.log(r2 - r1)
        v = np.log(tau / t)
        p = max(1.0, float(np.polyfit(u, v, 1)[0]))
        logC = float(np.min(v - p * u))
        C = float(np.exp(logC))
        viol = int(np.sum(C * (r2 - r1) ** p * t > tau * (1.0 + 1e-12)))
        return C, p, viol

    C0, p0, v0 = envelope(tau_x)
    C1, p1, v1 = envelope(tau_z)
    return {"kind": "engulfing", "s": geom.s,
            "samples": samples, "n": n,
            "C0_hat": C0, "p0_hat": p0,
            "C1_hat": C1, "p1_hat": p1,
            "violations": v0 + v1}

"""Executable proof devices: the explicit exponential barriers of the two
cases s <= 1/2 and s > 1/2, inf-convolutions, paraboloids of the product
geometry slid from below to their contact sets, and the trace touch test.

A barrier's operator is a positive factor times a bracket alpha P - Q whose
P and Q do not depend on alpha.  So its predicates are decided by signs,
never by e^{-alpha ...} values that underflow, and the corrected (s > 1/2)
barrier's smallest alpha has a closed form per eps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import obs
from .geometry import MAGeometry, SectionDescriptor, _count, blocks


# -- annulus sampling shared by the barrier checks --------------------------------------


def sample_annulus(geom: MAGeometry, z0, R, rho, samples, seed):
    """Points with rho <= delta_Phi((0,z0),(x,z)) < R, exact by construction.

    The budget u is split between the x and z parts; the z-coordinate solves
    delta_h(z0, .) = u_z on a uniformly chosen side of z0 (both lie in the
    section when u_z < R, hence z > 0 when R = delta_h(z0, 0)).  ValueError
    naming samples or seed unless samples is an integer >= 1 and seed one
    >= 0 (`geometry._count`).
    """
    samples, seed = _count(samples, "samples", 1), _count(seed, "seed", 0)
    n = geom.n
    rng = np.random.default_rng(seed)
    u = rng.uniform(rho, R, samples)
    frac = rng.uniform(0.0, 1.0, samples)
    u_x, u_z = u * frac, u * (1.0 - frac)
    side = rng.integers(0, 2, samples)
    direction = rng.normal(size=(samples, n))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    xs = direction * np.sqrt(2.0 * u_x)[:, None]
    zs = np.full(samples, float(z0))
    solve = u_z > 0.0
    zs[solve] = geom.section_endpoint(z0, u_z[solve], 1.0 - 2.0 * side[solve])
    return xs if n > 1 else xs[:, 0], zs


# -- exponential barriers ----------------------------------------------------------------

# The corrected barrier: the eps tried in order, the margin (units of n+1) the
# scanned bracket clears so samples cannot flip it, the psi-window trapezoid.
EPS_LADDER = (0.2, 0.1, 0.05, 0.02)
SCAN_MARGIN = 0.02
TRANSITION_POINTS = 4001


class BarrierNotFound(ValueError):
    """No admissible corrected barrier; `reasons` holds (eps, reason) pairs."""

    def __init__(self, message, reasons=()):
        super().__init__(message)
        self.reasons = list(reasons)


def _log_gap(a, b):
    """log(e^{-a} - e^{-b}) without underflow, or None unless a < b."""
    return float(-a + np.log(-np.expm1(a - b))) if a < b else None


class _ExponentialBarrier:
    """phi(x, z) = e^{-alpha E} - e^{-alpha R}, E = delta_Phi((0,z0),(x,z)) - h_eps(z).

    z0 = geom.trace_center(R) puts (0, 0) on the boundary: delta_h(z0, 0) = R
    (the construction is translation-invariant in x, so x = 0 stands for any x).
    Delta_x phi + z^{2-1/s} d_zz phi = alpha e^{-alpha E} (alpha P - Q), with the
    alpha-free terms of bracket_terms.  Here h_eps = psi = 0 (case 1).
    """

    def _annulus(self, geom, R, rho):
        if not 0 < rho < R:
            raise ValueError("need 0 < rho < R")
        self.geom, self.R, self.rho = geom, float(R), float(rho)
        self.z0, self.n = float(geom.trace_center(R)), geom.n

    def h_eps(self, z):
        return 0.0

    h_eps_prime = psi = h_eps

    def bracket_terms(self, dphi, z):
        """P = 2 dphi + z^{2-1/s} (h'(z) - h'(z0) - h_eps'(z))^2, Q = (n+1)(1 - 2 psi)."""
        g = self.geom
        z = np.asarray(z, dtype=float)
        D = g.hp(z) - g.hp(self.z0) - self.h_eps_prime(z)
        # at small s z^{2-1/s} overflows near z = 0, where D -> -h'(z0) != 0: P = +inf
        with np.errstate(over="ignore"):
            return (2.0 * dphi + z ** (2.0 - 1.0 / g.s) * D * D,
                    (self.n + 1) * (1.0 - 2.0 * self.psi(z)))

    def _exponent(self, x, z):
        return self.geom.delta_phi(0.0, x) + self.geom.delta_h(self.z0, z) - self.h_eps(z)

    def __call__(self, x, z):
        a = self.alpha
        return np.exp(-a * self._exponent(x, z)) - np.exp(-a * self.R)

    @property
    def slope_coefficient(self):
        """h'(z0) + h_eps'(0) = d_z phi(0, 0) / (alpha e^{-alpha R})."""
        return float(self.geom.hp(self.z0) + self.h_eps_prime(0.0))

    def verify(self, samples, seed=0):
        """Passes when the bracket on annulus samples and the trace slope
        coefficient are positive.  The operator and slope values underflow
        once alpha is large; their natural logs (None unless positive) and
        the bracket minimum do not."""
        a, slope = self.alpha, self.slope_coefficient
        xs, zs = sample_annulus(self.geom, self.z0, self.R, self.rho, samples, seed)
        P, Q = self.bracket_terms(self.geom.delta_phi(0.0, xs), zs)
        with np.errstate(over="ignore"):  # a P = +inf where P is, or overflows
            bracket = a * P - Q
        log_weight = np.log(a) - a * self._exponent(xs, zs)
        return {"operator_min": float(np.min(np.exp(log_weight) * bracket)),
                "bracket_min": float(np.min(bracket)),
                "log_operator_min": float(np.min(log_weight + np.log(bracket)))
                if np.all(bracket > 0.0) else None,
                "dz_trace": float(a * np.exp(-a * self.R) * slope),
                "log_dz_trace": float(np.log(a * slope) - a * self.R) if slope > 0.0 else None,
                "value_at_base": float(self(0.0, 0.0)),
                "passes": bool(np.min(bracket) > 0.0 and slope > 0.0)}


class BarrierCase1(_ExponentialBarrier):
    """The exponential barrier for s <= 1/2, where the quotient bound keeps
    the operator positive on the annulus once alpha > (n+1)/rho."""

    def __init__(self, geom: MAGeometry, R, rho, alpha):
        if geom.s > 0.5:
            raise ValueError("exponential barrier requires s <= 1/2")
        self._annulus(geom, R, rho)
        if alpha <= (geom.n + 1) / rho:
            raise ValueError("alpha must exceed (n+1)/rho")
        self.alpha = float(alpha)


@dataclass
class BarrierCase2Profile:
    """The corrected profile h_eps and bump psi_eps on S_R(z0) = (0, z_hi)."""

    eps: float
    eps0: float
    z_hi: float
    z_eps: float
    z_tilde: float
    mu_S: float
    psi_mass: float  # integral of psi_eps against mu_h
    max_abs_h_eps: float


def _smoothstep_down(t):
    """C^2 quintic transition 1 -> 0 on t in [0, 1]."""
    t = np.clip(t, 0.0, 1.0)
    return 1.0 - (10.0 * t**3 - 15.0 * t**4 + 6.0 * t**5)


def _cumtrapz(y, x):
    """Trapezoid integrals of y from x[0] to each x, summed in the order of
    scipy's cumulative_trapezoid(y, x, initial=0)."""
    return np.concatenate([[0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)])


class BarrierCase2(_ExponentialBarrier):
    """The corrected barrier for 1/2 < s < 1.

    h_eps solves h_eps'' = 2(n+1) psi_eps h'' on S_R(z0), vanishing at the
    endpoints; psi_eps is 1 on the near-degenerate set H_eps = {z^{2-1/s} <=
    eps0 |S|/mu_h(S)}, eps outside an enlargement, with a C^2 transition.
    The profile integrals are exact off the transition window (where psi is
    piecewise constant against the exact antiderivatives h', h) and use a
    dense trapezoid inside it.  Only alpha is left once the profile is
    built; alpha=None raises BarrierNotFound on a profile_failure and takes
    the smallest alpha whose scanned bracket clears SCAN_MARGIN (n+1).
    """

    def __init__(self, geom: MAGeometry, R, rho, eps, alpha=None):
        s = geom.s
        if not 0.5 < s < 1.0:
            raise ValueError("corrected barrier requires 1/2 < s < 1")
        self._annulus(geom, R, rho)
        self.eps = float(eps)

        z_hi = geom.section_endpoint(self.z0, R, 1.0)
        mu_S = float(geom.hp(z_hi))  # h'(z_hi) - h'(0)
        eps0 = eps
        while True:
            z_eps = (eps0 * z_hi / mu_S) ** (1.0 / (2.0 - 1.0 / s))  # |S| = z_hi
            if z_eps < 0.5 * z_hi and geom.hp(z_eps) <= eps * mu_S:
                break
            eps0 *= 0.5
            if eps0 < 1e-14:
                raise BarrierNotFound("eps too large: no admissible bump set; reduce eps")
        # enlargement carrying mu_h-mass eps mu_S / 2
        z_tilde = ((geom.hp(z_eps) + 0.5 * eps * mu_S) * (1 - s) / s) ** (s / (1 - s))
        if z_tilde >= z_hi:
            raise BarrierNotFound("eps too large: bump enlargement exceeds the section")

        self._zeps, self._zt = z_eps, z_tilde
        two_n1 = 2.0 * (geom.n + 1)
        ztr = np.linspace(z_eps, z_tilde, TRANSITION_POINTS)
        G1_tr = two_n1 * (geom.hp(z_eps) + _cumtrapz(self.psi(ztr) * geom.hpp(ztr), ztr))
        G2_tr = two_n1 * geom.h(z_eps) + _cumtrapz(G1_tr, ztr)
        self._ztr, self._G1_tr, self._G2_tr = ztr, G1_tr, G2_tr
        self._G1_t, self._G2_t = float(G1_tr[-1]), float(G2_tr[-1])
        self._two_n1 = two_n1
        self._beta = -self._G2(np.array([z_hi]))[0] / z_hi
        self.profile = BarrierCase2Profile(
            eps=self.eps, eps0=eps0, z_hi=float(z_hi), z_eps=float(z_eps),
            z_tilde=float(z_tilde), mu_S=mu_S,
            psi_mass=float(self._G1(np.array([z_hi]))[0] / two_n1),
            max_abs_h_eps=float(np.max(np.abs(self.h_eps(np.linspace(0.0, z_hi, 4000))))))

        # The bracket increases with dphi: at each z its annulus minimum sits
        # at dphi = max(0, rho - delta_h(z0, z)).  Near s = 1 the window where
        # psi falls below 1/2, and alpha P > Q needs the largest alpha, is far
        # narrower than the uniform spacing, so the scan holds its nodes.
        z = np.union1d(np.linspace(z_hi * 1e-7, z_hi * (1 - 1e-9), 20_000), ztr)
        dhz = geom.delta_h(self.z0, z)
        self._scan = self.bracket_terms(np.maximum(0.0, rho - dhz[dhz < R]), z[dhz < R])
        if alpha is None:
            if reason := self.profile_failure():
                raise BarrierNotFound(reason)
            P, Q = self._scan
            num = Q + SCAN_MARGIN * (self.n + 1)  # alpha P - Q is affine in alpha
            P, num = P[num > 0.0], num[num > 0.0]
            if np.any(P <= 0.0):
                raise BarrierNotFound("P = 2 dphi + z^(2-1/s) D^2 vanishes where alpha P > Q")
            alpha = np.max(num / P)
        self.alpha = float(alpha)

    # bump and profile ------------------------------------------------------------

    def psi(self, z):
        z = np.asarray(z, dtype=float)
        t = (z - self._zeps) / (self._zt - self._zeps)
        mid = self.eps + (1.0 - self.eps) * _smoothstep_down(t)
        return np.where(z <= self._zeps, 1.0, np.where(z >= self._zt, self.eps, mid))

    def _G1(self, z):
        g = self.geom
        z = np.asarray(z, dtype=float)
        return np.where(
            z <= self._zeps, self._two_n1 * g.hp(np.maximum(z, 0.0)),
            np.where(z >= self._zt,
                     self._G1_t + self._two_n1 * self.eps * (g.hp(z) - g.hp(self._zt)),
                     np.interp(z, self._ztr, self._G1_tr)))

    def _G2(self, z):
        g = self.geom
        z = np.asarray(z, dtype=float)
        tail = (self._G2_t + self._G1_t * (z - self._zt)
                + self._two_n1 * self.eps
                * (g.h(z) - g.h(self._zt) - g.hp(self._zt) * (z - self._zt)))
        return np.where(z <= self._zeps, self._two_n1 * g.h(np.maximum(z, 0.0)),
                        np.where(z >= self._zt, tail, np.interp(z, self._ztr, self._G2_tr)))

    def h_eps(self, z):
        return self._G2(z) + self._beta * np.asarray(z, dtype=float)

    def h_eps_prime(self, z):
        return self._G1(z) + self._beta

    # predicates ------------------------------------------------------------------

    def profile_failure(self):
        """The first alpha-free predicate that fails, as a reason, or None."""
        p, inner = self.profile, self.rho + self.profile.max_abs_h_eps
        if not self.slope_coefficient > 0.0:
            return (f"trace slope coefficient h'(z0) + h_eps'(0) = "
                    f"{self.slope_coefficient:.3g} <= 0: reduce eps")
        if not inner < self.R:  # else phi >= c > 0 fails on the inner section boundary
            return f"inner bound rho + max|h_eps| = {inner:.3g} >= R: reduce eps"
        if not p.psi_mass <= 3.0 * self.eps * p.mu_S:
            return f"psi mass {p.psi_mass:.3g} exceeds 3 eps mu_h(S)"
        return None

    def bracket_scan_min(self):
        """Worst-case bracket over the annulus, up to the scan grid's density."""
        P, Q = self._scan
        return float(np.min(self.alpha * P - Q))

    def verify(self, samples, seed=0):
        """Passes when the sampled and the scanned bracket are positive and
        profile_failure finds nothing; the inner-boundary bounds c <= phi <= C
        come with their logs."""
        a, p = self.alpha, self.profile
        inner = self.rho + p.max_abs_h_eps
        rep = super().verify(samples, seed)
        rep.update(bracket_scan_min=self.bracket_scan_min(), max_abs_h_eps=p.max_abs_h_eps,
                   inner_bound_low=float(np.exp(-a * inner) - np.exp(-a * self.R)),
                   inner_bound_high=float(np.exp(-a * self.rho) - np.exp(-a * self.R)),
                   log_inner_bound_low=_log_gap(a * inner, a * self.R),
                   log_inner_bound_high=_log_gap(a * self.rho, a * self.R),
                   psi_mass_ok=bool(p.psi_mass <= 3.0 * self.eps * p.mu_S))
        rep["passes"] = bool(rep["passes"] and rep["bracket_scan_min"] > 0.0
                             and self.profile_failure() is None)
        return rep


def search_case2_parameters(geom: MAGeometry, R, rho):
    """The corrected barrier at the first eps of EPS_LADDER that admits one.

    Theory guarantees such parameters exist; the result is a reproducible
    witness.  Each eps builds one profile and decides the alpha-free
    predicates by sign (profile_failure).  As the bracket alpha P - Q is
    affine in alpha, the smallest alpha clearing SCAN_MARGIN (n+1) on the
    scan grid is max (Q + SCAN_MARGIN (n+1)) / P over the points with a
    positive numerator.  A 2000-point annulus sample confirms its sign.
    Raises BarrierNotFound with an (eps, reason) pair per eps if none works.
    """
    reasons = []
    for eps in EPS_LADDER:
        try:
            bar = BarrierCase2(geom, R, rho, eps)
        except BarrierNotFound as exc:
            reasons.append((eps, str(exc)))
            continue
        rep = bar.verify(samples=2000)
        if rep["passes"]:
            return bar
        reasons.append((eps, f"sampled bracket minimum {rep['bracket_min']:.3g} <= 0"))
    raise BarrierNotFound(f"no eps in {EPS_LADDER} admits the corrected barrier", reasons)


# -- blocked min-plus products ------------------------------------------------------------


def _min_plus(X, Y):
    """out[a, b] = min_k X[a, k] + Y[b, k].

    The reduced axis is laid last and (a, b) is covered in blocks, so no
    temporary exceeds geometry.BLOCK_ELEMENTS elements or one row of k.  The
    minimum is read at the argmin, which is faster than np.min over the last
    axis.
    """
    X, Y = np.ascontiguousarray(X), np.ascontiguousarray(Y)
    (na, nk), nb = X.shape, Y.shape[0]
    val = np.empty((na, nb))
    for bs in blocks(nb, nk):
        for as_ in blocks(na, nk * (bs.stop - bs.start)):
            t = X[as_, None, :] + Y[None, bs, :]
            k = np.argmin(t, axis=-1)
            val[as_, bs] = np.take_along_axis(t, k[..., None], axis=-1)[..., 0]
    return val


# -- inf-convolution -----------------------------------------------------------------------


def inf_convolution(xs, zs, U, eps):
    """U_eps(p) = min_q [U(q) + |p - q|^2 / eps] on a tensor (x, z) grid.

    Exact separable two-pass minimization (the squared Euclidean penalty
    splits over coordinates), each pass a blocked _min_plus, so memory stays
    bounded on any grid.  Raises ValueError unless eps is finite and
    positive and U holds one finite value per node.
    """
    if not (np.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and positive, got {eps}")
    xs = np.asarray(xs, dtype=float)
    zs = np.asarray(zs, dtype=float)
    U = np.asarray(U, dtype=float)
    _check_grid_values(xs, zs, U)
    Dz = (zs[:, None] - zs[None, :]) ** 2 / eps  # (w, q)
    Dx = (xs[:, None] - xs[None, :]) ** 2 / eps  # (i, p)
    M1 = _min_plus(U, Dz.T)                      # (i, q): min_w U[i, w] + Dz[w, q]
    return _min_plus(Dx.T, M1.T)                 # (p, q): min_i Dx[i, p] + M1[i, q]


# -- sliding paraboloids --------------------------------------------------------------------

# Contact nodes lie within CONTACT_TOL max(1, |c|) of the touching value c.
CONTACT_TOL = 1e-12
# Bound, relative to |U| + a (|delta_phi| + |delta_h|), on the gap between the
# envelope's evaluation order and the exact one (slide_paraboloids).
_ROUNDING_SLACK = 8.0 * np.finfo(float).eps


def cell_measures(geom: MAGeometry, xs, zs):
    """Per-node mu_Phi cell weights: x Voronoi width times h' increment.

    Exact for the product measure mu_Phi = dx x h''(z) dz on the Voronoi cells
    in the (x, h'(z)) coordinates.
    """
    xs = np.asarray(xs, dtype=float)
    zs = np.asarray(zs, dtype=float)
    xe = np.concatenate([[xs[0]], 0.5 * (xs[1:] + xs[:-1]), [xs[-1]]])
    ze = np.concatenate([[zs[0]], 0.5 * (zs[1:] + zs[:-1]), [zs[-1]]])
    wx = np.diff(xe)
    wz = geom.hp(ze[1:]) - geom.hp(ze[:-1])
    return wx[:, None] * wz[None, :]


def paraboloid_rows(geom: MAGeometry, xs, zs, vertices):
    """delta_phi(v_x, xs) and delta_h(v_z, zs), one call per distinct coordinate.

    Returns (dphi, dh, pv, qv): vertex k's rows are dphi[pv[k]] and dh[qv[k]].
    """
    vx, vz = np.asarray(vertices, dtype=float).T
    px, pv = np.unique(vx, return_inverse=True)
    qz, qv = np.unique(vz, return_inverse=True)
    dphi = np.array([geom.delta_phi(x, xs) for x in px])
    dh = np.array([geom.delta_h(z, zs) for z in qz])
    return dphi, dh, pv, qv


def _nearest(grid, coords):
    """Index of the first grid node nearest to each coordinate, one scan per distinct value."""
    vals, inv = np.unique(coords, return_inverse=True)
    return np.array([np.argmin(np.abs(grid - v)) for v in vals], dtype=np.intp)[inv]


@dataclass
class ContactReport:
    opening: float
    touching_values: np.ndarray
    contact_map: list
    contact_mask: np.ndarray
    mu_A: float
    mu_B: float

    @property
    def measure_ratio(self):
        return self.mu_A / self.mu_B if self.mu_B > 0 else np.inf

    @property
    def contact_cells(self):
        return int(self.contact_mask.sum())


def _check_grid_values(xs, zs, U):
    """Refuses a U that is not one finite value per node of the (xs, zs) grid."""
    if U.shape != (len(xs), len(zs)):
        raise ValueError(f"U must have shape (len(xs), len(zs)) = {(len(xs), len(zs))}, "
                         f"got {U.shape}")
    if not np.all(np.isfinite(U)):
        raise ValueError(f"U must be finite, got {np.count_nonzero(~np.isfinite(U))} "
                         f"non-finite values")


def _check_slide_input(xs, zs, U, verts, opening):
    _check_grid_values(xs, zs, U)
    if not (np.isfinite(opening) and opening > 0):
        raise ValueError(f"opening must be finite and positive, got {opening}")
    if verts.size == 0:
        raise ValueError("vertices must hold at least one (x, z) pair")
    if verts.ndim != 2 or verts.shape[1] != 2 or not np.all(np.isfinite(verts)):
        raise ValueError("vertices must be finite (x, z) pairs")


def slide_paraboloids(geom: MAGeometry, xs, zs, U, vertices, opening):
    """Slide paraboloids of fixed opening from below until first touch.

    vertices: list of (x_v, z_v).  For each vertex the touching level is
    c(v) = min over grid nodes of U + a delta_Phi(v, .), a = opening, and
    every node within CONTACT_TOL max(1, |c|) of the minimum is a contact node.
    Measures of the contact set and of the vertex set use the exact per-node
    cells of cell_measures (vertices are snapped to their nearest node for
    the purpose of mu(B)).

    Raises ValueError for a U not of shape (len(xs), len(zs)), a non-finite
    U, an opening that is not finite and positive, and no or non-finite
    vertices.

    Envelope: the shifted function is separable, so T[p, j] = min_i U[i, j]
    + a delta_phi(x_p, x_i) for each distinct vertex abscissa x_p, and
    col[v, j] = T[p(v), j] + a delta_h(z_v, z_j) is vertex v's column
    minimum up to rounding; m = min_j col[v, j].  The delta_phi and delta_h
    rows come from paraboloid_rows, the same calls as a full scan makes.

    Rounding bound: col adds the terms in another order than the exact
    U + a (delta_phi + delta_h).  Each order is within 3u S of the real sum
    (u = eps/2, S = max |U| + a (max |delta_phi| + max |delta_h|) over the
    vertex's rows), so the two differ by at most 3 eps S.  The filter uses
    slack = _ROUNDING_SLACK S + tiny (8 eps S, which also covers the
    rounding of the filter itself; tiny covers subnormals).

    Candidate filter: column j can hold a contact only if col[v, j] <= m +
    CONTACT_TOL max(1, |m| + slack) + 2 slack.  The exact expression is
    evaluated on those columns alone (in blocks of geometry.BLOCK_ELEMENTS),
    so the touching values and contact sets are those of a full per-vertex
    scan, bit for bit.  Counts obs barriers.columns (vertices x z-nodes, the
    columns the envelope prices) and barriers.candidate_columns (those
    evaluated exactly).
    """
    xs = np.asarray(xs, dtype=float)
    zs = np.asarray(zs, dtype=float)
    U = np.asarray(U, dtype=float)
    verts = np.asarray(vertices, dtype=float)
    _check_slide_input(xs, zs, U, verts, opening)
    a = opening
    nx, nz = U.shape
    dphi, dh, pv, qv = paraboloid_rows(geom, xs, zs, verts)

    # candidate columns (vk[k], jk[k]) from the envelope, vertex-major
    T = _min_plus(a * dphi, U.T)
    scale = np.max(np.abs(U)) + a * (np.max(np.abs(dphi), axis=1)[pv]
                                     + np.max(np.abs(dh), axis=1)[qv])
    slack = _ROUNDING_SLACK * scale + np.finfo(float).tiny
    vk, jk = [], []
    for vb in blocks(len(verts), nz):
        col = T[pv[vb]] + a * dh[qv[vb]]
        m = col.min(axis=1)
        sl = slack[vb]
        bound = m + CONTACT_TOL * np.maximum(1.0, np.abs(m) + sl) + 2.0 * sl
        v, j = np.nonzero(col <= bound[:, None])
        vk.append(v + vb.start)
        jk.append(j)
    vk, jk = np.concatenate(vk), np.concatenate(jk)
    obs.count("barriers.columns", len(verts) * nz)
    obs.count("barriers.candidate_columns", len(jk))

    def exact(k):  # rows: U + a (delta_phi + delta_h) down the candidate columns k
        return U.T[jk[k]] + a * (dphi[pv[vk[k]]] + dh[qv[vk[k]], jk[k]][:, None])

    # exact touching levels, then the contact nodes of the columns that reach them
    colmin = np.empty(len(jk))
    for kb in blocks(len(jk), nx):
        colmin[kb] = exact(kb).min(axis=1)
    c = np.minimum.reduceat(colmin, np.flatnonzero(np.diff(vk, prepend=-1)))
    limit = c + CONTACT_TOL * np.maximum(1.0, np.abs(c))
    hit = np.flatnonzero(colmin <= limit[vk])
    kn, ii = [], []
    for hb in blocks(len(hit), nx):
        h = hit[hb]
        k, i = np.nonzero(exact(h) <= limit[vk[h], None])
        kn.append(h[k])
        ii.append(i)
    kn, ii = np.concatenate(kn), np.concatenate(ii)
    vn, jj = vk[kn], jk[kn]
    order = np.lexsort((jj, ii, vn))  # per vertex in row-major (i, j) order
    vn, ii, jj = vn[order], ii[order], jj[order]

    contact_mask = np.zeros(U.shape, dtype=bool)
    contact_mask[ii, jj] = True
    nodes = list(zip(ii.tolist(), jj.tolist()))
    ends = np.cumsum(np.bincount(vn, minlength=len(verts))).tolist()
    contact_map = [((x, z), nodes[lo:hi], cv) for (x, z), lo, hi, cv
                   in zip(verts.tolist(), [0] + ends[:-1], ends, c.tolist())]
    vertex_mask = np.zeros(U.shape, dtype=bool)
    vertex_mask[_nearest(xs, verts[:, 0]), _nearest(zs, verts[:, 1])] = True
    cells = cell_measures(geom, xs, zs)
    mu_A = float(cells[contact_mask].sum())
    mu_B = float(cells[vertex_mask].sum())
    return ContactReport(opening, c, contact_map, contact_mask, mu_A, mu_B)


# -- trace touch test --------------------------------------------------------------------


@dataclass
class TouchReport:
    feasible: bool
    min_slope: float | None
    exact_min_slope: float | None


def touch_test(state, ix0, section_radius):
    """Search test functions P(x) + a z touching U from above at (x0, 0).

    P runs over the quadratics u0 + g (x - x0) + q (x - x0)^2 / 2 of a 33 x 17
    (gradient, curvature) lattice scaled by the oscillation of U on the
    section.  The minimal admissible slope of P is a(P) = max over section
    nodes with z > 0 of (U - P)/z, subject to P >= U on the trace part of the
    section.  The reported min_slope is the exact infimum snapped up to a
    multiple of 1e-3, a discrete upper bound for d_z U(x0, 0).  An empty
    feasible set is reported, not raised.

    Raises ValueError for a state that is not 1-D in x or has no trace row
    z_nodes[0] = 0, and an ix0 that is not a node index of x_axes[0].
    """
    if state.n != 1:
        raise ValueError("touch test implemented for 1-D x")
    geom, xs, zs, U = state.geom, state.x_axes[0], state.z_nodes, state.values.T
    if not len(zs) or zs[0] != 0.0:
        raise ValueError("touch test expects the trace row z_nodes[0] = 0")
    if not (isinstance(ix0, (int, np.integer)) and 0 <= ix0 < len(xs)):
        raise ValueError(f"ix0 must be a node index in [0, {len(xs)}), got {ix0!r}")
    x0 = xs[ix0]
    u0 = U[ix0, 0]
    sect = SectionDescriptor((x0,), 0.0, section_radius).contains(geom, xs[:, None], zs[None, :])
    osc = max(1e-12, np.max(np.abs(U[sect] - u0)))
    span = 4.0 * osc / max(1e-12, np.sqrt(2.0 * section_radius))
    curvatures = np.linspace(0.0, 8.0 * osc / max(1e-12, section_radius), 17)
    dx = xs - x0
    zpos = zs > 0
    best = None
    for g in np.linspace(-span, span, 33):
        for q in curvatures:
            P = u0 + g * dx[:, None] + 0.5 * q * dx[:, None] ** 2
            trace_ok = np.all(P[:, 0][sect[:, 0]] >= U[:, 0][sect[:, 0]] - 1e-12)
            if not trace_ok:
                continue
            m = sect & zpos[None, :]
            if not np.any(m):
                continue
            ratios = (U - P)[m] / np.broadcast_to(zs[None, :], U.shape)[m]
            a_min = float(np.max(ratios))
            if best is None or a_min < best:
                best = a_min
    if best is None:
        return TouchReport(False, None, None)
    snapped = float(np.ceil(best / 1e-3) * 1e-3)
    return TouchReport(True, snapped, float(best))

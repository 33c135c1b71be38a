"""Discrete elliptic operator L = -a^{ij}(x) d_ij, its heat semigroup, and the
realizations of L^s, L^{-s} and the semigroup extension formula.

L is an M-matrix for every uniformly elliptic a^{ij}, so it keeps the
comparison principle of viscosity solutions (`x_operator`: Selling's
decomposition of the coefficients at every node in 2-D).

The fractional powers are rational in every dimension: L^{-s} f = r_s(L) f
and L^s u = r_{1-s}(L)(L u), where r_beta(x) = c0 + sum_j w_j / (x - p_j) is
a certified fit of x^{-beta} on [spectral floor, Gershgorin bound] (real
poles p_j <= 0, nonnegative weights; see `_power_fit`).  L, that interval,
L's symmetry flag and the lateral weights a solve takes are one record per
coefficient field and mesh (`_XOperator`, memoized by `_assembled`), so a
sweep over s assembles and scans it once.  The fit
needs numpy and scipy.linalg only: AAA poles from a port of scipy's
(`_aaa_poles`), weights by least squares that eliminates negative ones, no
scipy.optimize or scipy.interpolate to load.
The systems L - p_j I of the poles and the extension's y-modes are stacks of
shifted x-operator systems, which `_shifted_solver` alone factors (no other
module imports LAPACK), as the record decided once (`_XOperator.stacks`): a
1-D L is similar to a symmetric tridiagonal matrix (positive definite
LDL^T); an exactly symmetric 2-D L (constant a^{ij}: one Selling stencil at
every node) takes the band Cholesky, any other the pivoted band LU.  On
intervals wider than hi/lo = 1e2 (a = 1 from 15 cells a side on, in 1-D
and on a square) every power picks its poles from one geometric candidate
set (22 on `plane2d`'s grids, 24-35 for 1-D a = 1 and N = 64-4096 cells),
which the record factors once, up to _POLE_SET_BYTES, and every s solves
through (`_XOperator.pole_set`); on narrower intervals AAA's few poles
depend on s, and each power factors them for its own call.  Only the
record and the fits (`_power_fit`) outlive a call, both in bounded memos;
a stepper holds no factors.

The 1-D semigroup extension phi(L, z) u (`bessel_extension_profile`) is a
trapezoid rule on a contour around that interval (`_profile_contour`):
complex shifted solves of L, shared by every height.  Neither s nor z
enters the contour, so the record holds its nodes and, up to
_CONTOUR_BYTES of them, the factors of its systems (`_XOperator.contour`);
a call substitutes, weights and certifies.  Only e^{-tL} is exact in the
modes of the 1-D L (`SemigroupStepper._modes`, once per stepper).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from numbers import Integral

import numpy as np

from . import obs
from .geometry import _order, _real, transform_to_y
from .gridfn import BoxGrid, GridFunction


def __getattr__(name):
    # the benchmark tracer wraps `spla.splu` here by name; the first lookup
    # imports scipy.sparse.linalg and binds it in this module, where the
    # tracer's patch replaces and restores it (no call here uses it)
    if name == "spla":
        import scipy.sparse.linalg as spla
        globals()["spla"] = spla
        return spla
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# -- constants ---------------------------------------------------------------------


def ds_constant(s):
    """Trace constant d_s = s^{2s} Gamma(1-s) / Gamma(1+s) of the extension
    problem; ValueError unless s is one number in (0, 1) (`_order`)."""
    from scipy.special import gamma

    s = _order(s)
    return s ** (2.0 * s) * gamma(1.0 - s) / gamma(1.0 + s)


# -- coefficient fields --------------------------------------------------------------


class CoefficientField:
    """Symmetric a^{ij}(x) on dimension n in {1, 2} with declared ellipticity
    bounds 0 < lam <= Lam < inf, which `x_operator` checks."""

    def __init__(self, n, fn, lam, Lam):
        if n not in (1, 2):
            raise ValueError("only n = 1 or 2 supported")
        if not 0 < lam <= Lam < np.inf:
            raise ValueError("need 0 < lambda <= Lambda < inf")
        self.n = n
        self._fn = fn
        self.lam = float(lam)
        self.Lam = float(Lam)

    @staticmethod
    def identity(n):
        if n == 1:
            return CoefficientField(1, lambda x: np.ones_like(np.asarray(x, dtype=float)), 1.0, 1.0)

        def fn(x, y):
            shape = np.broadcast(x, y).shape
            return np.ones(shape), np.zeros(shape), np.ones(shape)

        return CoefficientField(2, fn, 1.0, 1.0)

    @staticmethod
    def full_2d(a11, a12, a22, lam, Lam):
        """a^{ij} given by three callables of (x, y)."""
        return CoefficientField(2, lambda x, y: (a11(x, y), a12(x, y), a22(x, y)),
                                lam, Lam)

    def components(self, *coords):
        """a11 (n=1) or (a11, a12, a22) arrays broadcast over the coordinates."""
        if self.n == 1:
            return np.asarray(self._fn(coords[0]), dtype=float)
        a11, a12, a22 = self._fn(coords[0], coords[1])
        return (np.asarray(a11, float), np.asarray(a12, float), np.asarray(a22, float))


# -- operator assembly ---------------------------------------------------------------


def _uniform_step(axis, name, owner):
    """The step of a uniform axis, every step within 1e-12 relative of the first;
    ValueError naming the owner and the axis for a zero or non-finite step."""
    steps = np.diff(np.asarray(axis, dtype=float))
    h = steps[0]
    if not (np.all(np.isfinite(steps)) and h != 0.0):
        raise ValueError(f"{owner} requires uniform axes: axis {name} has a zero or "
                         f"non-finite step")
    if np.max(np.abs(steps - h)) > 1e-12 * abs(h):
        raise ValueError(f"{owner} requires uniform axes: axis {name} is not uniform")
    return h


def x_operator(coeff: CoefficientField, axes):
    """The `_XOperator` of the discrete -a^{ij} d_ij over the interior nodes
    of a tensor grid: L, monotone (off-diagonals <= 0, row sums >= 0: an
    M-matrix), and the weights of its Dirichlet neighbours.

    1-D axes may be nonuniform (3-point stencil, exact nonuniform weights)
    and decreasing (the mirrored matrices); an axis with fewer than 3
    nodes, a non-finite node, a step that is zero or changes sign, or steps
    whose weights overflow or whose diagonal underflows to 0 raises
    ValueError naming it.  L and the lateral coupling are written in CSR
    directly, with the arrays sp.diags and a COO build would give: zero
    weights are dropped from L and kept in the coupling.
    2-D axes must be uniform; at each node `_selling` writes diag(h)^{-1} a
    diag(h)^{-1} = sum_k lam_k e_k e_k^T (lam_k >= 0, integer e_k), and the
    stencil is sum_k lam_k (u(x + h e_k) - 2u + u(x - h e_k)): 7-point upwind
    when |a12| h_x h_y <= min(a11 h_y^2, a22 h_x^2).  A step that leaves the
    box stops at the edge (nonuniform 3-point difference, first order), its
    value interpolated linearly between the two boundary nodes around it.
    The one check of a^{ij}: its eigenvalues must lie in the declared
    [coeff.lam, coeff.Lam] (1e-12 relative slack) at every interior node, else
    ValueError names the bounds and the first node, with its a^{ij}; NaN and
    inf fail.  Inside the bounds a11 > 0 and det a > 0, as `_selling` needs.

    The x-part of the extension problem does not depend on s, so a sweep
    over s meets the same operator again and again: the axes are checked
    and a^{ij} is evaluated at the interior nodes on every call, and the
    rest is memoized on those values and the declared bounds (`_assembled`).
    Two fields with equal values share one record, and a field whose
    values changed builds a new one.  Every caller is handed the same
    record, so its arrays are read-only; the memo keeps no operator over
    _MEMO_NODES interior nodes.
    """
    n = len(axes)
    if coeff.n != n:
        raise ValueError("coefficient dimension does not match grid")
    xs = [np.asarray(ax, dtype=float) for ax in axes]
    if n == 1:
        steps = np.diff(xs[0])
        if not (len(xs[0]) >= 3 and np.all(np.isfinite(steps))
                and (np.all(steps > 0.0) or np.all(steps < 0.0))):
            raise ValueError(f"the 1-D x-axis {np.array2string(xs[0], threshold=12)} must be "
                             "finite and strictly monotone, with at least 3 nodes")
    else:
        for ax, name in zip(xs, "xy"):
            _uniform_step(ax, name, "2-D x-operator")
    nodes = np.meshgrid(*(ax[1:-1] for ax in xs), indexing="ij")
    comps = coeff.components(*nodes)
    build = _assembled if nodes[0].size <= _MEMO_NODES else _assembled.__wrapped__
    return build(tuple(ax.tobytes() for ax in xs),
                 tuple(np.broadcast_to(c, nodes[0].shape).tobytes()
                       for c in (comps if n == 2 else (comps,))),
                 (coeff.lam, coeff.Lam))


_MEMO_NODES = 2**14  # interior nodes of the largest operator `_assembled` keeps


@lru_cache(maxsize=16)
def _assembled(axes, comps, bounds):
    """The `_XOperator` on the float64 bytes of the axes and of the
    coefficient components at the interior nodes (a11 in 1-D; a11, a12, a22
    raveled in 2-D), with the declared bounds (lam, Lam).

    One entry holds its key, L and the lateral coupling (and scalars).  Per
    interior node in 1-D: the key's 2 doubles and L's 3 stored entries (a
    double and an int32 each) with its row pointer, 56 bytes; in 2-D the
    key's 3 doubles and 5 (identity) to 7 (mixed term) stored entries of L
    and the coupling, at most 112 bytes.  The axes and the coupling's rows
    add at most 24 bytes per boundary node.  A tridiagonal entry (1-D, or
    2-D on one row) that factored holds its symmetrizer (d, e)
    (`_XOperator.stacks`), 16 bytes per interior node.  An entry whose
    powers ran wider than _AAA_MAX_RANGE holds its candidate set
    (`pole_set`) up to _POLE_SET_BYTES = 12 MiB: pttrf's 2 doubles per node
    and candidate, at most 43 where a fit certifies, and 1/d, at most 696
    bytes per interior node (11.4 MB at 2^14, so every tridiagonal entry);
    else the band Cholesky's or LU's factors (4.0 MB for a = I on 28^2
    interior nodes).  A 1-D entry that met the semigroup extension also
    holds its contour (`_XOperator.contour`): zgttrf's 68 bytes per interior
    node and contour node (39-57 nodes), held only up to _CONTOUR_BYTES = 4
    MiB (1,233 interior nodes for a = 1 on a uniform axis), and 64 bytes per
    contour node for the nodes, weights and certificate samples.
    `x_operator` keeps no operator over _MEMO_NODES interior nodes (it calls
    the builder unmemoized), so an entry holds at most about 16.8 MB (1-D
    with its candidate set and contour factors, 2^14 interior nodes; 2.6 MB
    in 2-D and up to 12.6 MB more with a candidate set) and the 16 entries
    at most about 270 MB, of it at most 192 MiB of candidate sets and 64 MiB
    of contour factors.  Counts obs semigroup.operators per operator built
    (a hit counts none); a refusal raises and is neither counted nor
    memoized.
    """
    axes = [np.frombuffer(ax) for ax in axes]
    comps = [np.frombuffer(c) for c in comps]
    L, lateral = (_stencil_1d if len(axes) == 1 else _stencil_2d)(axes, comps, bounds)
    obs.count("semigroup.operators")
    return _XOperator(axes, bounds[0], L, lateral)


def _stencil_1d(axes, comps, bounds):
    """(L, lateral coupling) of the 3-point stencil on the checked 1-D axis."""
    import scipy.sparse as sp

    (xs,), (a,) = axes, comps
    nx = len(xs)
    xi = xs[1:-1]
    _require_elliptic(*bounds, a, a, (xi,), {"a11": a})
    hm = xi - xs[:-2]
    hp = xs[2:] - xi
    # |W|, |E| <= |C| in floating point too: a finite nonzero diagonal
    # rules out both overflow and a singular (or empty) L
    with np.errstate(over="ignore"):
        cW = 2.0 / (hm * (hm + hp))
        cE = 2.0 / (hp * (hm + hp))
        cC = -2.0 / (hm * hp)
        # row i holds (W, C, E) at columns (i - 1, i, i + 1); row 0's W and
        # the last row's E weigh the Dirichlet neighbours, the coupling's two
        stencil = np.column_stack([a * cW, a * cC, a * cE]).ravel()
    if not np.all(np.isfinite(stencil[1::3]) & (stencil[1::3] != 0.0)):
        raise ValueError(f"the 1-D x-axis {np.array2string(xs, threshold=12)} gives "
                         "stencil weights that overflow or a diagonal that underflows to 0")
    m = nx - 2
    cols = (np.arange(m, dtype=np.int32)[:, None] + np.array([-1, 0, 1], np.int32)).ravel()
    ptr = 3 * np.arange(m + 1, dtype=np.int32) - 1
    ptr[0], ptr[-1] = 0, 3 * m - 2
    L = sp.csr_matrix((-stencil[1:-1], cols[1:-1], ptr), shape=(m, m))
    L.eliminate_zeros()
    rows, ptr = ([0, m - 1], [0, 1, 2]) if m > 1 else ([0], [0, 2])  # one row when m = 1
    B = sp.csr_matrix((stencil[[0, -1]], np.array([0, 1], np.int32), np.array(ptr, np.int32)),
                      shape=(len(rows), 2))
    return L, (np.array(rows), B)


def _stencil_2d(axes, comps, bounds):
    """(L, lateral coupling) of Selling's stencil on the checked uniform 2-D axes."""
    import scipy.sparse as sp

    (xs, ys), (a11, a12, a22) = axes, comps
    hx, hy = xs[1] - xs[0], ys[1] - ys[0]
    m1, m2 = len(xs) - 2, len(ys) - 2
    X, Y = np.meshgrid(xs[1:-1], ys[1:-1], indexing="ij")
    with np.errstate(invalid="ignore", over="ignore"):  # NaN, inf: out of bounds
        mid, rad = 0.5 * (a11 + a22), np.hypot(0.5 * (a11 - a22), a12)
        _require_elliptic(*bounds, mid - rad, mid + rad, (X, Y),
                          {"a11": a11, "a12": a12, "a22": a22})
    lam, ex, ey = _selling(a11 / hx**2, a12 / (hx * hy), a22 / hy**2, (X, Y))

    # the steps +-e_k from every node in full-grid indices; a step that leaves
    # the box ends on its edge, after the fraction tau < 1 of it
    i0, j0 = (g.reshape(-1, 1) + 1 for g in np.indices((m1, m2)))
    ox, oy = np.hstack([ex, -ex]), np.hstack([ey, -ey])
    with np.errstate(divide="ignore"):
        tau = np.minimum(np.minimum(np.where(ox > 0, m1 + 1 - i0, i0) / np.abs(ox),
                                    np.where(oy > 0, m2 + 1 - j0, j0) / np.abs(oy)), 1.0)
    tp, tm = tau[:, :3], tau[:, 3:]
    w = 2.0 * np.hstack([lam / (tp * (tp + tm)), lam / (tm * (tp + tm))])
    # end points snapped to the grid within rounding: at most one coordinate
    # is left fractional, and its value is interpolated along the edge
    (px, fx), (py, fy) = ((np.floor(q), q - np.floor(q)) for q in (
        np.where(np.abs(p - np.rint(p)) < 1e-9, np.rint(p), p)
        for p in (i0 + tau * ox, j0 + tau * oy)))
    R = np.concatenate([np.repeat(np.arange(m1 * m2), 6)] * 3 + [np.arange(m1 * m2)])
    I = np.concatenate([px.ravel(), px.ravel() + 1, px.ravel(), i0[:, 0]]).astype(int)
    J = np.concatenate([py.ravel(), py.ravel(), py.ravel() + 1, j0[:, 0]]).astype(int)
    V = np.concatenate([(w * (1.0 - fx) * (1.0 - fy)).ravel(), (w * fx).ravel(),
                        (w * fy).ravel(), -np.sum(2.0 * lam / (tp * tm), axis=1)])
    inner = (I >= 1) & (I <= m1) & (J >= 1) & (J <= m2)
    a, b = (V != 0) & inner, (V != 0) & ~inner
    L = sp.csr_matrix((-V[a], (R[a], (I[a] - 1) * m2 + J[a] - 1)), shape=(m1 * m2, m1 * m2))
    # a boundary node's column is its place among them in raveled edge order
    place = np.cumsum(~np.pad(np.ones((m1, m2), bool), 1).ravel()) - 1
    B = sp.csr_matrix((V[b], (R[b], place[I[b] * (m2 + 2) + J[b]])),
                      shape=(m1 * m2, place[-1] + 1))
    rows = np.flatnonzero(np.diff(B.indptr))
    return L, (rows, B[rows])


def _require_elliptic(lam, Lam, emin, emax, coords, comps):
    """ValueError naming the first node where the eigenvalues emin <= emax of
    a^{ij} leave the declared [lam, Lam], and its a^{ij}."""
    ok = (emin >= lam * (1.0 - 1e-12)) & (emax <= Lam * (1.0 + 1e-12))
    if not np.all(ok):
        i = np.flatnonzero(~np.ravel(ok))[0]
        at = ", ".join(f"{np.ravel(c)[i]:g}" for c in coords)
        vals = ", ".join(f"{name} = {np.ravel(v)[i]:g}" for name, v in comps.items())
        raise ValueError(f"coefficients leave their declared ellipticity bounds "
                         f"[{lam:g}, {Lam:g}] at node ({at}): {vals}")


def _selling(d11, d12, d22, coords):
    """Selling's decomposition [[d11, d12], [d12, d22]] = sum_k lam_k e_k e_k^T
    per node, lam_k >= 0 and e_k integer (Fehrenbach & Mirebeau, J. Math.
    Imaging Vision 49 (2014) 123-147).  The superbase ((1, 0), (0, 1),
    (-1, -1)), flipped once where d12 > 0, becomes (-b_i, b_j, b_i - b_j)
    while some <b_i, D b_j> > 0 (each flip lowers sum_i <b_i, D b_i>; at
    most 49 over 2,000 rotations of diag(1, 1e4)); then lam_k = -<b_i, D b_j>
    and e_k is b_k turned a right angle.  Over 256 flips raise ValueError.
    Returns lam, ex, ey, each (N, 3).
    """
    I, J, K = np.array([0, 0, 1]), np.array([1, 2, 2]), np.array([2, 1, 0])
    bx = np.where(d12[:, None] > 0, -1, 1) * np.array([1, 0, -1])
    by = np.tile(np.array([0, 1, -1]), (len(d12), 1))

    def products(n):
        x, y = bx[n], by[n]
        return (x[:, I] * x[:, J] * d11[n, None] + y[:, I] * y[:, J] * d22[n, None]
                + (x[:, I] * y[:, J] + y[:, I] * x[:, J]) * d12[n, None])

    p = products(slice(None))
    live = np.flatnonzero(np.any(p > 0, axis=1))
    for _ in range(256):
        if not live.size:
            break
        q = np.argmax(p[live] > 0, axis=1)
        for b in (bx, by):
            bi, bj = b[live, I[q]], b[live, J[q]]
            b[live, I[q]], b[live, K[q]] = -bi, bi - bj
        p[live] = products(live)
        live = live[np.any(p[live] > 0, axis=1)]
    if live.size:
        n = live[0]
        raise ValueError(f"a^{{ij}} too anisotropic at node ({np.ravel(coords[0])[n]:g}, "
                         f"{np.ravel(coords[1])[n]:g}): no obtuse superbase after 256 flips")
    return -p, -by[:, K], bx[:, K]


class _XOperator:
    """What the powers and the extension solves read on one coefficient field
    and mesh and that does not depend on s, shared by whoever meets them
    (`_assembled`), so every array is read-only.  axes: read-only float64
    views of the key's bytes.  L: the Dirichlet L = -a^{ij} d_ij, CSR over
    the raveled interior nodes.  lateral: (rows, B), the interior rows with
    Dirichlet neighbours and B, CSR (rows, boundary nodes), their a^{ij} d_ij
    weights on the boundary nodes in raveled edge order (the nodes off the
    interior, C order).  floor: lam sum 8 / (hi - lo)^2, the declared lam
    times the least 3-point Dirichlet eigenvalue on the axes' (lo, hi) for
    any spacing, a lower bound of L's spectrum.  On first use: `fit_interval`,
    how stacks of L - p I are factored (`stacks`), the factored candidate
    poles of every power (`pole_set`) and, in 1-D, the contour (`contour`).
    """

    def __init__(self, axes, lam, L, lateral):
        self.axes, self.L = axes, _read_only(L)
        lateral[0].flags.writeable = False
        self.lateral = lateral[0], _read_only(lateral[1])
        self.floor = lam * sum(8.0 / (float(ax[-1]) - float(ax[0])) ** 2 for ax in axes)

    @cached_property
    def pole_set(self):
        """(candidates, solve) on first use: `_geometric_poles` of the fit
        interval, read-only, which every power's fit on it picks from, and
        the `_shifted_solver` of every L - p I over them, its factors
        read-only.  Bytes per interior node and candidate, as `stacks`
        decided: pttrf's 16, the band Cholesky's 8 (k + 1) or the band LU's
        8 (3k + 1) and a 4-byte pivot.  None on intervals up to
        _AAA_MAX_RANGE, where the poles depend on beta, and where the
        factors would pass _POLE_SET_BYTES; each power then factors its own.
        """
        poles = _geometric_poles(*self.fit_interval[0])
        symmetrizer, k, cholesky = self.stacks
        per_node = 16 if symmetrizer else 8 * (k + 1) if cholesky else 8 * (3 * k + 1) + 4
        if poles is None or per_node * len(poles) * self.L.shape[0] > _POLE_SET_BYTES:
            return None
        poles.flags.writeable = False
        return poles, _shifted_solver(self, -poles)

    @cached_property
    def contour(self):
        """(zeta, c, lam, solve) of the 1-D semigroup extension on first use:
        `_profile_contour`'s upper nodes, weights and certificate samples
        around the fit interval, read-only, and the `_shifted_solver` of
        every L - zeta_k I (zgttrf: 4 complex numbers and an int32 pivot, 68
        bytes per interior node and contour node).  solve is None where those
        factors would pass _CONTOUR_BYTES; each call then factors its own.
        """
        (lo, hi), _ = self.fit_interval
        zeta, c, lam = _profile_contour(lo, hi)
        for arr in (zeta, c, lam):
            arr.flags.writeable = False
        if 68 * len(zeta) * self.L.shape[0] > _CONTOUR_BYTES:
            return zeta, c, lam, None
        return zeta, c, lam, _shifted_solver(self, -zeta)

    @cached_property
    def stacks(self):
        """(symmetrizer, k, cholesky), read-only and independent of s: how
        `_shifted_solver` factors every stack of L - p I, derived on first
        use.  symmetrizer: where L is tridiagonal with every off-diagonal < 0
        (every 1-D L), (d, e) with D^{-1} L D symmetric, D = diag(d), of
        off-diagonal e = -sqrt(up lo); else None.  k: max |col - row|.
        cholesky: L exactly symmetric (max |L - L^T| = 0, not the tolerant
        flag of `fit_interval`: a Cholesky of one triangle of a nearly
        symmetric L solves another system), off-diagonals <= 0."""
        L, n = self.L, self.L.shape[0]
        rows = np.repeat(np.arange(n), np.diff(L.indptr))
        k = int(np.max(np.abs(L.indices - rows), initial=0))
        cholesky = bool(self._defect == 0.0 and np.all(L.data[L.indices != rows] <= 0.0))
        lo, up = L.diagonal(-1), L.diagonal(1)
        if not (k <= 1 and np.all(lo < 0.0) and np.all(up < 0.0)):
            return None, k, cholesky
        d, e = np.concatenate([[1.0], np.cumprod(np.sqrt(lo / up))]), -np.sqrt(lo * up)
        d.flags.writeable = e.flags.writeable = False
        return (d, e), k, cholesky

    @cached_property
    def _defect(self):  # max |L - L^T|, read by `fit_interval` and `stacks`
        return abs(self.L - self.L.T).max()

    @cached_property
    def fit_interval(self):
        """((floor, hi), symmetric) for every rational power of L.

        hi is the Gershgorin bound max_i sum_j |L_ij|, raised to 2 floor when
        below it (a single interior node puts the bound on the floor
        itself).  symmetric: max |L - L^T| <= 8 eps rounding max |L|, where
        rounding = max|x| / min spacing over the axes bounds the relative
        error that node coordinates leave in the stencil weights.
        """
        A = abs(self.L)
        rounding = max(np.max(np.abs(ax)) / np.min(np.diff(ax)) for ax in self.axes)
        symmetric = bool(self._defect <= 8 * np.finfo(float).eps * rounding * A.max())
        return (self.floor, max(float(np.max(A.sum(axis=1))), 2.0 * self.floor)), symmetric


def _read_only(M):
    """The sparse matrix M, its data, indices and indptr made read-only."""
    for arr in (M.data, M.indices, M.indptr):
        arr.flags.writeable = False
    return M


_BAND_BUDGET = 256 * 2**20  # bytes of band factors `_shifted_solver` holds at once
_CONTOUR_BYTES = 4 * 2**20  # bytes of contour factors an x-operator record holds
_POLE_SET_BYTES = 12 * 2**20  # bytes of factored candidate poles an x-operator record holds


def _shifted_solver(op, shifts, message="L - ({p:g}) I is singular"):
    """Solve function for the block-diagonal diag(L + shifts[k] I), L the
    record op's: the poles of the powers, the extension's y-modes, the
    contour's nodes.

    Three factorizations, as the record decided once (`_XOperator.stacks`).
    Where it holds a symmetrizer D (every 1-D L), S = D^{-1} L D: LAPACK's
    positive definite LDL^T (pttrf) factors every S + shifts[k] I, N >= 2, 2
    numbers per unknown; complex shifts need a symmetrizer and N len(shifts)
    >= 3 (else ValueError), and the pivoted LU zgttrf factors L + shifts[k]
    I, 4 complex numbers per unknown.  Any other L is factored in band form,
    filled from the record's own CSR arrays, half-bandwidth k (2-D: max |e1
    m2 + e2| over the stencil offsets e, m2 nodes per x2-line; m2 for
    identity coefficients, m2 + 1 with a mixed term).  An exactly symmetric
    L with off-diagonals <= 0 (constant 2-D a^{ij}, or one unknown: an
    M-matrix, positive definite for every shift >= 0, the poles' and the
    y-modes') takes the band Cholesky (pbtrf), N (k + 1) numbers per block,
    on the lower band, which OpenBLAS with threads on factored 4-10x faster
    than the upper one (27^2 to 63^2 unknowns); any other (variable 2-D
    a^{ij}) the band LU with partial pivoting (gbtrf), N (3k + 1) numbers per
    block.  At most _BAND_BUDGET bytes of band factors are held: if every
    block fits, all are factored here, once, and every call reads them, else
    each call factors, substitutes and releases one batch of blocks at a
    time, except the last batch it walks, which it keeps for the next call;
    that call walks the batches the other way round, so b batches cost b
    factorizations in the first call and b - 1 in each later one.  The
    factors live as long as solve: a power's for its one call
    (`_rational_power`, where the record holds no candidate set), the
    record's candidate set and contour (`_XOperator.pole_set`, `.contour`)
    as long as the record, a contour over _CONTOUR_BYTES for its one
    extension call.  Factors held across calls (pttrf, zgttrf, and band ones
    where every block fits) are read-only.  The blocks follow one another,
    and the exact zeros between them keep them apart.

    solve(b, overwrite_b=False) maps stacked right-hand sides, (len(shifts),
    N) or raveled, to solutions of the same shape and the shifts' dtype;
    with overwrite_b a C-contiguous b receives the solution.  The first
    block k that is singular (LU) or not positive definite (pttrf, pbtrf)
    raises LinAlgError(message.format(k=k, p=-shifts[k])), the block being
    L - p I.  Counts obs semigroup.shifted_blocks and
    semigroup.shifted_unknowns, and semigroup.cholesky_blocks for a stack
    that takes the band Cholesky.
    """
    from scipy.linalg.lapack import (dgbtrf, dgbtrs, dpbtrf, dpbtrs, dpttrf, dpttrs, zgttrf,
                                     zgttrs)

    shifts = np.asarray(shifts, dtype=complex if np.iscomplexobj(shifts) else float)
    (symmetrizer, k, cholesky), n, m = op.stacks, op.L.shape[0], len(shifts)
    obs.count("semigroup.shifted_blocks", m)
    obs.count("semigroup.shifted_unknowns", m * n)

    def check(info, start=0):
        if info != 0:
            j = start + (info - 1) // n
            raise np.linalg.LinAlgError(message.format(k=j, p=-shifts[j]))

    diag = op.L.diagonal()
    if shifts.dtype.kind == "c":
        if not (symmetrizer and m * n >= 3):  # scipy's zgttrf wrapper takes 3 unknowns or more
            raise ValueError("complex shifts need a tridiagonal A, off-diagonals < 0, N m >= 3")
        off = np.zeros((2, m, n), dtype=complex)  # sub- and superdiagonal, 0 between blocks
        off[0, :, :-1], off[1, :, :-1] = op.L.diagonal(-1), op.L.diagonal(1)
        lo, diag, up, up2, piv, info = zgttrf(off[0].ravel()[:-1], (diag + shifts[:, None]).ravel(),
                                              off[1].ravel()[:-1], overwrite_d=1)
        check(info)
        for held in (lo, diag, up, up2, piv):  # a record may hold them (`_XOperator.contour`)
            held.flags.writeable = False

        def substitute(rows):
            zgttrs(lo, diag, up, up2, piv, rows.reshape(-1, 1), overwrite_b=1)
    elif n > 1 and symmetrizer:
        d, e = symmetrizer
        diag = diag[None, :] + shifts[:, None]
        off = np.zeros_like(diag)
        off[:, :-1] = e
        diag, off, info = dpttrf(diag.ravel(), off.ravel()[:-1], overwrite_d=1, overwrite_e=1)
        check(info)
        scale = 1.0 / d
        for held in (scale, diag, off):  # a record may hold them (`_XOperator.pole_set`)
            held.flags.writeable = False

        def substitute(rows):
            rows *= scale
            dpttrs(diag, off, rows.reshape(-1, 1), overwrite_b=1)
            rows *= d
    else:
        if cholesky:
            obs.count("semigroup.cholesky_blocks", m)
        top, width = (0, k + 1) if cholesky else (2 * k, 3 * k + 1)  # the diagonal's band row
        per_batch = max(1, _BAND_BUDGET // (8 * n * width))

        def factor(start, stop):
            # C-order (block, column, band row) is the Fortran (band row,
            # column) layout of pbtrf and gbtrf
            row, col = np.repeat(np.arange(n), np.diff(op.L.indptr)), op.L.indices
            bands = np.zeros((stop - start, n, width))
            if cholesky:  # the lower band: L[i, j] = L[j, i] at column min(i, j), band row |i - j|
                bands[:, np.minimum(row, col), np.abs(row - col)] = op.L.data
            else:  # L[i, j] at column j, band row 2k + i - j
                bands[:, col, top + row - col] = op.L.data
            bands[:, :, top] += shifts[start:stop, None]
            ab = bands.reshape(-1, width).T
            *lu, info = (dpbtrf(ab, lower=1, overwrite_ab=1) if cholesky
                         else dgbtrf(ab, k, k, overwrite_ab=1))
            check(info, start)
            return lu

        def back(lu, rows):
            if cholesky:
                dpbtrs(*lu, rows.reshape(-1, 1), lower=1, overwrite_b=1)
            else:
                dgbtrs(lu[0], k, k, rows.reshape(-1, 1), lu[1], overwrite_b=1)

        if m <= per_batch:  # every block fits: factored here, once
            held = factor(0, m)
            for arr in held:  # a record may hold them (`_XOperator.pole_set`)
                arr.flags.writeable = False

            def substitute(rows):
                back(held, rows)
        else:
            # the last batch a call walked keeps its factors, and the next
            # call walks it first (the calls alternate direction)
            starts, kept = range(0, m, per_batch), {}

            def substitute(rows):
                order = starts[::-1] if starts[-1] in kept else starts
                for i in order:
                    lu = kept.pop(i, None) or factor(i, min(i + per_batch, m))
                    back(lu, rows[i:i + per_batch])
                    if i == order[-1]:
                        kept[i] = lu
                    del lu  # a batch factored here is released before the next

    def solve(b, overwrite_b=False):
        x = (np.ascontiguousarray(b, dtype=shifts.dtype) if overwrite_b
             else np.array(b, dtype=shifts.dtype, order="C"))
        substitute(x.reshape(m, n))
        return x

    return solve


# -- semigroup stepper ----------------------------------------------------------------


class SemigroupStepper:
    """The Dirichlet operator L = -a^{ij} d_ij of a coefficient field on a
    grid, and its heat semigroup e^{-tL} in 1-D.

    What does not depend on s is the memoized x-operator record
    (`_XOperator`): L, read-only and shared by every stepper on the field
    and grid, the spectral floor (resting on the declared lam of `coeff`,
    which `x_operator` checks), the fit interval with L's symmetry flag,
    derived once per record, as is how its stacks are factored (`stacks`),
    the factored candidate poles that every power on an interval wider than
    _AAA_MAX_RANGE picks from (`pole_set`, up to _POLE_SET_BYTES) and in 1-D
    the semigroup extension's contour (`contour`, factored up to
    _CONTOUR_BYTES).  The stepper keeps only the 1-D modes L = D Q
    diag(lam) Q^T D^{-1} (`_modes`, on first use: one eigh_tridiagonal of
    D^{-1} L D, the record's symmetrizer), in which e^{-tL} alone is
    applied, and the decay cut-off; no factors.  Fractional powers (info:
    beta, poles, interval, sup_rel_error, symmetric) take one shifted solve
    per pole (per candidate, where the record holds them) in every
    dimension, the 1-D semigroup extension (info: nodes, interval,
    sup_error) one complex substitution per node pair; 2-D heat and
    extension raise ValueError.

    Its operator and grid do not change after construction; solves at
    distinct times are independent.
    """

    def __init__(self, coeff: CoefficientField, grid: BoxGrid):
        self.coeff = coeff
        self.grid = grid
        self._op = x_operator(coeff, grid.axes())
        self.L = self._op.L  # the record's Dirichlet L = -a^{ij} d_ij, shared: read-only
        # ||e^{-tL}u|| <= e^{-floor t}||u||: past 30 e-folds the heat is 0 to machine precision
        self._t_cutoff = 30.0 / self._op.floor

    @cached_property
    def _modes(self):
        from scipy.linalg import eigh_tridiagonal

        d, e = self._op.stacks[0]
        return (*eigh_tridiagonal(self.L.diagonal(), e), d)  # (lam, Q, d = diag D)

    def heat_interior(self, v, t):
        """e^{-tL} v for an interior-node vector v: v itself at t = 0, zero
        past the decay cut-off.  ValueError on a 2-D grid and for a negative
        or NaN t."""
        if not t >= 0.0:
            raise ValueError("time must be nonnegative")
        if self.grid.ndim != 1:
            raise ValueError("the heat semigroup is computed on 1-D grids only")
        if t == 0.0:
            return np.array(v, dtype=float)
        lam, Q, d = self._modes  # D Q e^{-t lam} Q^T D^{-1} v
        return ((np.exp(-t * lam) * (t <= self._t_cutoff) * ((v / d) @ Q)) @ Q.T) * d

    def wrap_interior(self, v):
        vals = np.zeros(self.grid.shape)
        vals[self.grid.interior_mask()] = v
        return GridFunction(self.grid, vals)


# -- quadrature parameters -------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureSpec:
    """Validated time-quadrature parameters (a config's `problem.quadrature`
    block).  No computation reads them: the `quad` arguments that take one
    have no effect."""

    t_min: float = 1e-8
    t_max: float = 1e4
    nodes: int = 96

    def __post_init__(self):
        if not (np.isfinite(self.t_min) and np.isfinite(self.t_max)):
            raise ValueError("quadrature t_min and t_max must be finite")
        if self.t_min <= 0:
            raise ValueError("quadrature t_min must be positive")
        if self.t_max <= self.t_min:
            raise ValueError("quadrature t_max must exceed t_min")
        if not isinstance(self.nodes, Integral) or self.nodes < 8:
            raise ValueError("need an integer count of at least 8 quadrature nodes")


# -- rational functions of L -----------------------------------------------------------

_RATIONAL_TOL = 1e-6   # sup relative error of a fit, acceptance criterion 2's tolerance
_FIT_SAMPLES = 256
_CERT_SAMPLES = 10_000
_CERT_BLOCK = 1024     # certificate rows evaluated at once
_AAA_MAX_RANGE = 1e2   # widest hi/lo whose poles AAA proposes
_POLES_PER_DECADE = 3  # geometric poles on wider intervals ...
_POLE_MARGIN = 1e2     # ... over [lo / margin, hi * margin]
_AAA_MAX_TERMS = 100   # at most _FIT_SAMPLES / 2: the Loewner matrix stays tall


def _aaa_poles(z, f):
    """Poles of the AAA fit of real f on distinct z (Nakatsukasa, Sete &
    Trefethen 2018), as scipy.interpolate.AAA(z, f, clean_up=False).poles().

    Each step takes the sample of largest error as a support point and the
    weights from the smallest right singular vector of the Loewner matrix on
    the rows not yet supported, column-scaled once its condition passes
    1 / (3 eps); it stops at an error <= eps^0.75 max|f| or after
    _AAA_MAX_TERMS terms.  The poles are the finite eigenvalues of the
    arrowhead pencil of the barycentric form, complex ones included.
    """
    from scipy.linalg import eigvals, svd

    eps = np.finfo(float).eps
    free = np.ones(z.size, dtype=bool)
    C = np.empty((z.size, _AAA_MAX_TERMS))
    zj, fj = np.empty(_AAA_MAX_TERMS), np.empty(_AAA_MAX_TERMS)
    r = np.full(z.size, np.mean(f))
    scaled = False
    with np.errstate(divide="ignore", invalid="ignore"):  # support rows: masked or interpolated
        for m in range(_AAA_MAX_TERMS):
            j = np.flatnonzero(free)[np.argmax(np.abs(f - r)[free])]
            free[j] = False
            zj[m], fj[m] = z[j], f[j]
            C[:, m] = 1.0 / (z - z[j])
            loewner = (f[free, None] - fj[:m + 1]) * C[free, :m + 1]
            if not scaled:
                _, sv, V = svd(loewner, full_matrices=False, check_finite=False)
                scaled = sv[0] / sv[-1] > 1.0 / (3.0 * eps)
            col = 1.0
            if scaled:
                col = np.linalg.norm(loewner, axis=0)
                _, sv, V = svd(loewner / col, full_matrices=False, check_finite=False)
            low = sv == sv.min()
            w = V[low].sum(axis=0) / np.sqrt(low.sum()) / col
            nz = w != 0.0
            den = C[:, :m + 1][:, nz] @ w[nz]
            r = np.where(np.isfinite(den), C[:, :m + 1][:, nz] @ (w * fj[:m + 1])[nz] / den, f)
            if np.max(np.abs(f - r)) <= eps**0.75 * np.max(np.abs(f)):
                break
    E = np.diag(np.append(0.0, zj[:m + 1][nz]))
    E[0, 1:], E[1:, 0] = w[nz], 1.0
    B = np.eye(E.shape[0])
    B[0, 0] = 0.0
    poles = eigvals(E, B)
    return poles[np.isfinite(poles)]


def _candidate_poles(x, beta):
    """The poles `_power_fit` offers the weight fit of x^{-beta} on the
    increasing samples x: AAA's real negative ones up to x[-1] / x[0] =
    _AAA_MAX_RANGE, `_geometric_poles` beyond."""
    poles = _geometric_poles(x[0], x[-1])
    if poles is None:
        poles = _aaa_poles(x, x**-beta)
        return poles[(np.abs(poles.imag) <= 1e-12 * np.abs(poles)) & (poles.real < 0.0)].real
    return poles


def _geometric_poles(lo, hi):
    """The candidate poles of every power on [lo, hi] wider than
    _AAA_MAX_RANGE (up to rounding: lo * _AAA_MAX_RANGE / lo may exceed it
    by an ulp): _POLES_PER_DECADE per decade over [lo / _POLE_MARGIN, hi *
    _POLE_MARGIN], decreasing, and 0; at most 43 where a fit certifies
    (hi/lo <= ~4e9).  None on narrower intervals, where AAA's depend on beta."""
    if hi / lo <= _AAA_MAX_RANGE * (1.0 + 4.0 * np.finfo(float).eps):
        return None
    n = int(np.ceil(_POLES_PER_DECADE * np.log10(hi / lo * _POLE_MARGIN**2))) + 1
    return np.append(-np.geomspace(lo / _POLE_MARGIN, hi * _POLE_MARGIN, n), 0.0)


@lru_cache(maxsize=64)
def _power_fit(lo, hi, beta):
    """Partial fractions r(x) = c0 + sum_j w_j / (x - p_j) for x^{-beta} on [lo, hi].

    x^{-beta} = (sin(pi beta) / pi) int_0^inf t^{-beta} / (x + t) dt is a
    Stieltjes function: its poles are <= 0 and c0, w_j >= 0.  The weights
    are the column-scaled least-squares fit of the relative error, so the
    matrix sum has no cancellation; while one is negative, the most negative
    column is dropped and the rest refit.  The scaled _FIT_SAMPLES-row matrix,
    with the right-hand side 1 as a last column, is QR-factored once, and
    every refit solves the columns of its small R against the last column
    (Q^T 1) with the truncation np.linalg.lstsq gives the full matrix (rcond
    = eps _FIT_SAMPLES; R has its singular values).  Up to hi/lo =
    _AAA_MAX_RANGE = 1e2 (a = 1 up to 14 cells a side) the poles are the
    real negative ones of AAA (`_aaa_poles`); AAA's tolerance is relative to
    max x^{-beta}, so wide intervals lose the far end (3.8e-6 at hi/lo =
    8.4e6, beta = 0.99).  Wider intervals take _POLES_PER_DECADE geometric
    poles per decade over [lo / _POLE_MARGIN, hi * _POLE_MARGIN] and one at
    0, whose error (<= 3e-11 for beta in [0.001, 0.999] up to hi/lo = 1e14)
    does not grow with the width: 32 poles for 1-D N = 4096, hi/lo = 8.4e6.
    They are the same for every beta, so a record factors them once for all
    its powers (`_XOperator.pole_set`): on `plane2d`'s intervals (hi/lo 220
    to 420) 22 candidates, of which a fit keeps 17 to 20 (AAA's 10 to 13
    each needed a factorization per call), certified <= 4.7e-11 for beta in
    [0.02, 0.98] (AAA: 1.4e-10).  AAA stays on the narrow intervals for
    accuracy: there the elimination on geometric candidates can end over 4
    times above the error of nnls on them (493 of 100,000 seeded draws with
    hi/lo in (40, 1e3], the widest at hi/lo = 63.4; none of 200,000 in
    (1e2, 1e3]).  The certificate adds to the error sampled on a dense log
    grid eps * hi / lo, the forward-error bound of the worst-conditioned
    solve (cond(L - p I) <= hi / lo for p <= 0 and a symmetric L), so fits
    pass up to hi/lo ~ 4e9.  The samples are evaluated _CERT_BLOCK rows at a
    time, each row with the bits of the one-shot product, so no _CERT_SAMPLES
    x poles array is allocated.  With the memory of earlier work returned to
    the system, a fresh fit at hi/lo in [1e4, 1e6] costs about 3.5 ms, 0.6
    times a full-matrix lstsq per refit with a one-shot certificate (medians
    of 60 draws; one BLAS thread on a shared 2-core Xeon VM).

    Memoized on (lo, hi, beta), arrays read-only: a round trip L^s L^{-s}
    fits twice.  Counts obs semigroup.power_fits once per fit made (a memo
    hit counts none) and semigroup.fit_refits per least-squares solve.
    Returns (c0, poles, weights, certificate); raises ValueError unless 0 <
    lo < hi are finite, 0 < beta < 1 and the certificate is <= _RATIONAL_TOL
    (a NaN certificate included).
    """
    if not (np.isfinite(lo) and np.isfinite(hi) and 0.0 < lo < hi):
        raise ValueError(f"fit interval [{lo:g}, {hi:g}] needs finite 0 < lo < hi")
    if not 0.0 < beta < 1.0:
        raise ValueError(f"the power x^-beta needs beta in (0,1), got beta = {beta!r}")
    obs.count("semigroup.power_fits")
    x = np.geomspace(lo, hi, _FIT_SAMPLES)
    poles = _candidate_poles(x, beta)
    A = np.column_stack([np.ones_like(x), 1.0 / (x[:, None] - poles)]) * (x**beta)[:, None]
    col = np.max(A, axis=0)
    R = np.linalg.qr(np.column_stack([A / col, np.ones_like(x)]), mode="r")
    R, rhs = R[:-1, :-1], R[:-1, -1]  # A / col = Q R and Q^T 1, Q never formed
    cols = np.arange(A.shape[1])
    while True:
        obs.count("semigroup.fit_refits")
        c = np.linalg.lstsq(R[:, cols], rhs, rcond=np.finfo(float).eps * _FIT_SAMPLES)[0]
        if c.min() >= 0.0:
            break
        cols = np.delete(cols, np.argmin(c))
    w = np.zeros(A.shape[1])
    w[cols] = c / col[cols]
    keep = w[1:] > 0.0
    poles, weights = poles[keep], w[1:][keep]
    xc = np.geomspace(lo, hi, _CERT_SAMPLES)
    scale = xc**beta
    err = float(np.max([np.max(np.abs((w[0] + (1.0 / (xc[i:i + _CERT_BLOCK, None] - poles))
                                       @ weights) * scale[i:i + _CERT_BLOCK] - 1.0))
                        for i in range(0, _CERT_SAMPLES, _CERT_BLOCK)])
                + np.finfo(float).eps * hi / lo)
    if not err <= _RATIONAL_TOL:
        raise ValueError(f"rational fit of x^-{beta:g} on [{lo:g}, {hi:g}] has relative "
                         f"error {err:.3g} > {_RATIONAL_TOL:g}")
    poles.flags.writeable = weights.flags.writeable = False
    return float(w[0]), poles, weights, err


def _rational_power(stepper: SemigroupStepper, v, beta):
    """r(L) v for the fit r of x^{-beta} on [spectral floor, Gershgorin bound of L].

    The interval and the symmetry flag are read from the x-operator record,
    which derives them once (`_XOperator.fit_interval`).  One substitution
    solves L - p I for every candidate pole of the record's `pole_set`, or
    where it has none (hi/lo <= _AAA_MAX_RANGE, or factors past
    _POLE_SET_BYTES) for the fit's own poles, factored for this call alone
    (LinAlgError naming p if one is singular), and the sum takes the rows of
    the poles the fit keeps: the blocks are independent (exact zeros between
    them), so each row has the bits of a solve over the kept poles alone.
    info gives beta, the pole
    count, the interval, the fit's certificate and whether L is symmetric up
    to the rounding its node coordinates (errors of eps max|x|, relative to
    the smallest spacing) leave in the stencil weights; then the certificate
    bounds the relative matrix error in the 2-norm.  The 1-D L = -a(x) d_xx is D S D^{-1} with S
    symmetric (`_XOperator.stacks`): cond(D) times the bound, <= sqrt(Lambda
    / lambda) times on a uniform grid.  A nonsymmetric 2-D L is not normal
    and the scalar error bounds nothing.
    """
    (lo, hi), symmetric = stepper._op.fit_interval
    c0, poles, w, err = _power_fit(lo, hi, beta)
    out = c0 * v
    if len(poles):  # beta ~ 1e-16 on a narrow interval: the fit is c0 alone, r(L) = c0 I
        candidates, solve = stepper._op.pole_set or (poles, _shifted_solver(stepper._op, -poles))
        x = solve(np.broadcast_to(v, (len(candidates), len(v))))
        for wj, j in zip(w, np.flatnonzero(np.isin(candidates, poles))):
            out += wj * x[j]
    info = {"beta": beta, "poles": len(poles), "interval": [lo, hi], "sup_rel_error": err,
            "symmetric": symmetric}
    return out, info


def fit_rel_error(info, lam):
    """|r(lam) - lam^{-beta}| / lam^{-beta} for the memoized fit r behind a
    `_rational_power` info: the scalar check of the path that made a field."""
    c0, poles, w, _ = _power_fit(*info["interval"], info["beta"])
    return abs((c0 + float(np.sum(w / (lam - poles)))) * lam ** info["beta"] - 1.0)


# -- fractional operators ----------------------------------------------------------------


def _interior_on(stepper: SemigroupStepper, u: GridFunction):
    """u's interior values; ValueError naming both grids unless u lives on the stepper's."""
    if u.grid != stepper.grid:
        raise ValueError(f"the grid function is on {u.grid}, the stepper's on {stepper.grid}")
    return u.interior()


def fractional_apply(stepper: SemigroupStepper, u: GridFunction, s, quad=QuadratureSpec()):
    """L^s u = r_{1-s}(L)(L u); returns (grid function, info dict).

    r_{1-s} is the certified rational fit of x^{s-1} (`_power_fit`); the form
    L r_{1-s}(L) u would multiply the fit's error by the top of the spectrum.
    info as in `_rational_power`.  `quad` is accepted for compatibility; it
    has no effect.  ValueError unless u lives on the stepper's grid and s is
    one number in (0, 1) (`_order`).
    """
    out, info = _rational_power(stepper, stepper.L @ _interior_on(stepper, u), 1.0 - _order(s))
    return stepper.wrap_interior(out), info


def fractional_inverse(stepper: SemigroupStepper, f: GridFunction, s, quad=QuadratureSpec()):
    """L^{-s} f = r_s(L) f; returns (grid function, info dict).

    r_s is the certified rational fit of x^{-s} (`_power_fit`); info as in
    `_rational_power`.  `quad` is accepted for compatibility; it has no
    effect.  ValueError unless f lives on the stepper's grid and s is one
    number in (0, 1) (`_order`).
    """
    out, info = _rational_power(stepper, _interior_on(stepper, f), _order(s))
    return stepper.wrap_interior(out), info


def extension_via_semigroup_multi(stepper: SemigroupStepper, u: GridFunction, s, zs,
                                  quad=QuadratureSpec()):
    """Extension U(., z) = phi(L, z) u at every height z in zs; returns (list of
    grid functions, info dict).

    phi(lam, z) = `bessel_extension_profile`, the semigroup formula
    (s^{2s} z / Gamma(s)) int_0^inf e^{-s^2 z^{1/s}/t} e^{-t lam} dt/t^{1+s} in
    closed form (Stinga & Torrea, Comm. PDE 35 (2010) 2092-2122), by the
    contour rule of `_profile_contour` around [lo, hi], the x-operator
    record's `fit_interval`: one substitution through the record's factored
    `contour` (factored for this call alone past _CONTOUR_BYTES), then the
    weights c_k phi(zeta_k, z) per height; the blocks are independent, so a
    held contour gives the bits of a fresh one.  info: `nodes` (obs counter
    semigroup.extension_nodes), `interval` and `sup_error`, the scalar
    rule's largest sampled error on [lo, hi] over the heights: the field's
    2-norm error is at most cond(V) sup_error |u|, V the eigenvectors of L.
    ValueError in 2-D, off the stepper's grid, unless s is one number in
    (0, 1) (`_order`) and zs holds at least one height, each a finite and
    positive real number (`_real`), and for a sup_error above _EXTENSION_TOL
    (naming s, z).  `quad` is accepted for compatibility; it has no effect.
    """
    s = _order(s)
    zs = _real(zs, "z", "extension height z must be finite and positive").reshape(-1)
    if not zs.size:
        raise ValueError("the semigroup extension needs at least one height z")
    if not np.all(zs > 0):
        raise ValueError("extension height z must be finite and positive")
    if stepper.grid.ndim != 1:
        raise ValueError("the semigroup extension is computed on 1-D grids only")
    v = _interior_on(stepper, u)
    (lo, hi), _ = stepper._op.fit_interval
    zeta, c, lam, solve = stepper._op.contour
    obs.count("semigroup.extension_nodes", 2 * len(zeta))
    x = (solve or _shifted_solver(stepper._op, -zeta))(np.broadcast_to(v, (len(zeta), len(v))))
    weights = c * _bessel_profile(np.sqrt(zeta), s, zs[:, None])
    rows = (weights @ x).real
    d, im = lam - zeta.real[:, None], zeta.imag[:, None]  # Re sum_k weights_k / (lam - zeta_k)
    g = 1.0 / (d * d + im * im)
    errs = np.max(np.abs(weights.real @ (d * g) - weights.imag @ (im * g)
                         - _bessel_profile(np.sqrt(lam), s, zs[:, None])), axis=1)
    i = np.argmax(errs)
    if not errs[i] <= _EXTENSION_TOL:
        raise ValueError(f"the contour rule of the extension profile at s = {s:g}, "
                         f"z = {zs[i]:g} has error {errs[i]:.3g} > {_EXTENSION_TOL:g}")
    info = {"nodes": 2 * len(zeta), "interval": [lo, hi], "sup_error": float(errs[i])}
    return [stepper.wrap_interior(row) for row in rows], info


_EXTENSION_TOL = 1e-12  # sup error of the contour rule for phi(., z) on [lo, hi]


def _profile_contour(lo, hi):
    """Trapezoid rule phi(L) u ~ Re sum_j c_j phi(zeta_j) (L - zeta_j)^{-1} u for
    phi analytic off (-inf, 0], spectrum in [lo, hi] (method 1 of Hale, Higham
    & Trefethen, SIAM J. Numer. Anal. 46 (2008) 2505-2523): zeta = a (1 + k u)
    / (1 - k u), a = sqrt(lo hi), k = (r - 1) / (r + 1), r = sqrt(hi / lo), and
    u = sn(t | k^2) map the strip 0 < Im t < K' onto the plane off the cut and
    [lo, hi].  Upper nodes t = i K'/2 + (2j + 1 - n) K / n, j < n; the error is
    about e^{-pi K' n / 2K}, so n = ceil(ln(10 / _EXTENSION_TOL) 2K / pi K'): 39
    at 1-D N = 192, 57 at N = 4096.  Also returns the certificate's 2n + 1
    samples of [lo, hi], half a period of the error apart; it peaks near lo, and
    they caught >= 0.94 of its maximum over 40 times as many in 300 draws.
    """
    from scipy.special import ellipj, ellipk

    r = np.sqrt(hi / lo)
    k, a = (r - 1.0) / (r + 1.0), np.sqrt(lo * hi)
    m = k * k  # 1 - m is exact: sn, cn, dn at x + i K'/2 by the addition formulas
    K, Kp = ellipk(m), ellipk(1.0 - m)
    n = int(np.ceil(np.log(10.0 / _EXTENSION_TOL) * 2.0 * K / (np.pi * Kp)))
    sn, cn, dn, _ = ellipj(K * ((2.0 * np.arange(n) + 1.0) / n - 1.0), m)
    s1, c1, d1, _ = ellipj(0.5 * Kp, 1.0 - m)
    den = c1 * c1 + m * (sn * s1) ** 2
    u = (sn * d1 + 1j * cn * dn * s1 * c1) / den
    du = (cn * c1 - 1j * sn * dn * s1 * d1) * (dn * c1 * d1 - 1j * m * sn * cn * s1) / den**2
    # -2 (conjugates; -(L - zeta)^{-1}) x clockwise -(2K / n) / 2 pi i x 2 a k u' / (1 - k u)^2
    c = 4.0 * K * a * k * du / (np.pi * 1j * n * (1.0 - k * u) ** 2)
    us = ellipj(np.linspace(-K, K, 2 * n + 1), m)[0]
    return a * (1.0 + k * u) / (1.0 - k * u), c, a * (1.0 + k * us) / (1.0 - k * us)


# -- scalar profiles -----------------------------------------------------------------------


def bessel_extension_profile(lam, s, z):
    """Closed form of the extension profile: 2^{1-s}/Gamma(s) (k y)^s K_s(k y).

    Here k = sqrt(lam) and y = `transform_to_y(z, s)`: 1 at z = 0, 0 where y
    overflows (lam > 0).  ValueError unless s is one number in (0, 1)
    (`_order`) and lam, z are finite real numbers (`_real`), >= 0.
    A scalar lam takes K_s once per distinct height of an array z, with the
    same bits (a 2-D oracle repeats each height n^2 times); obs counter
    semigroup.profile_points.
    """
    s = _order(s)
    refusal = "the extension profile needs finite lam >= 0 and z >= 0"
    lam, z = _real(lam, "lam", refusal), _real(z, "z", refusal)
    if np.any(lam < 0.0) or np.any(z < 0.0):
        raise ValueError(refusal)
    k = np.sqrt(lam)
    if np.ndim(k) or not z.ndim:  # a 0-d z keeps numpy's scalar-power bits
        out, points = _bessel_profile(k, s, z), np.broadcast(k, z).size
    else:  # elementwise, so the distinct heights (-0.0 is 0.0) give the same bits
        heights, at = np.unique(z, return_inverse=True)
        out, points = _bessel_profile(k, s, heights)[at.reshape(z.shape)], heights.size
    obs.count("semigroup.profile_points", points)
    return out if out.ndim else float(out)


def _bessel_profile(k, s, z):
    """2^{1-s}/Gamma(s) x^s K_s(x) at x = k `transform_to_y(z, s)`, k >= 0 or
    |arg k| < 45 degrees (the contour): 1 at x = 0, x clamped (lexicographically
    if complex) to [1e-300, 800], past which K_s underflows to 0 for every s, so
    a y that overflows gives the limit 0 with no warning.  A scalar stays a
    numpy scalar: numpy's scalar and array powers may differ in the last bit."""
    from scipy.special import gamma, kv

    with np.errstate(over="ignore"):
        x = k * np.minimum(transform_to_y(z, s), np.finfo(float).max)
    xs = np.minimum(np.maximum(x, 1e-300), 800.0)
    return np.where(x == 0, 1.0, 2.0 ** (1 - s) / gamma(s) * xs ** s * kv(s, xs))

"""Discrete elliptic operator L = -a^{ij}(x) d_ij, its heat semigroup, and the
realizations of L^s, L^{-s} and the semigroup extension formula.

L is an M-matrix for every uniformly elliptic a^{ij}, so it keeps the
comparison principle of viscosity solutions (`x_operator`: Selling's
decomposition of the coefficients at every node in 2-D).

The fractional powers are rational in every dimension: L^{-s} f = r_s(L) f
and L^s u = r_{1-s}(L)(L u), where r_beta(x) = c0 + sum_j w_j / (x - p_j) is
a certified fit of x^{-beta} on [lam_floor, Gershgorin bound] (real poles
p_j <= 0, nonnegative weights; see `_power_fit`).  The stepper owns that
interval and L's symmetry flag: it derives both once, on first use
(`SemigroupStepper._fit_interval`; in 1-D from L's three diagonals), and
every power reads them.  The fit needs numpy and scipy.linalg only: AAA
poles from a port of scipy's (`_aaa_poles`), weights by least squares that
eliminates negative ones, no scipy.optimize or scipy.interpolate to load.
The systems L - p_j I of the poles (23-32 in 1-D for N = 256-4096, about a
dozen in 2-D) and the extension's y-modes are stacks of shifted x-operator
systems, which `_shifted_solver` alone factors (no other module imports
LAPACK).

The 1-D semigroup extension phi(L, z) u (`bessel_extension_profile`) is a
trapezoid rule on a contour around that interval (`_profile_contour`):
complex shifted solves of L, shared by every height.  Only e^{-tL} is exact
in the modes of the 1-D L (`tridiagonal_modes`, once per stepper).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from numbers import Integral

import numpy as np

from . import obs
from .geometry import transform_to_y
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
    """Trace constant d_s = s^{2s} Gamma(1-s) / Gamma(1+s) of the extension problem."""
    from scipy.special import gamma

    if not 0.0 < s < 1.0:
        raise ValueError("s must be in (0,1)")
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
    def identity(n=1):
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
    """Discrete a^{ij} d_ij over the interior nodes of a tensor grid, monotone
    (off-diagonals >= 0, row sums <= 0: -Ax is an M-matrix).

    1-D axes may be nonuniform (3-point stencil, exact nonuniform weights)
    and decreasing (the mirrored matrices); an axis with fewer than 3
    nodes, a non-finite node, a step that is zero or changes sign, or steps
    whose weights overflow or whose diagonal underflows to 0 raises
    ValueError naming it.  Ax and Bx are written in CSR directly, with the
    arrays sp.diags and a COO build would give: zero weights are dropped
    from Ax and kept in Bx.
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

    Returns (Ax, Bx): Ax csr over raveled interior nodes, Bx csr mapping
    values on the full raveled grid (only boundary columns are nonzero) to
    the stencil contribution of Dirichlet neighbours.
    """
    import scipy.sparse as sp

    n = len(axes)
    if coeff.n != n:
        raise ValueError("coefficient dimension does not match grid")
    if n == 1:
        xs = np.asarray(axes[0], dtype=float)
        nx = len(xs)
        steps = np.diff(xs)
        if not (nx >= 3 and np.all(np.isfinite(steps))
                and (np.all(steps > 0.0) or np.all(steps < 0.0))):
            raise ValueError(f"the 1-D x-axis {np.array2string(xs, threshold=12)} must be "
                             "finite and strictly monotone, with at least 3 nodes")
        xi = xs[1:-1]
        a = np.broadcast_to(coeff.components(xi), xi.shape).astype(float)
        _require_elliptic(coeff, a, a, (xi,), {"a11": a})
        hm = xi - xs[:-2]
        hp = xs[2:] - xi
        # |W|, |E| <= |C| in floating point too: a finite nonzero diagonal
        # rules out both overflow and a singular (or empty) Ax
        with np.errstate(over="ignore"):
            cW = 2.0 / (hm * (hm + hp))
            cE = 2.0 / (hp * (hm + hp))
            cC = -2.0 / (hm * hp)
            # row i holds (W, C, E) at columns (i - 1, i, i + 1); row 0's W and
            # the last row's E are the Dirichlet neighbours, Bx's two entries
            stencil = np.column_stack([a * cW, a * cC, a * cE]).ravel()
        if not np.all(np.isfinite(stencil[1::3]) & (stencil[1::3] != 0.0)):
            raise ValueError(f"the 1-D x-axis {np.array2string(xs, threshold=12)} gives "
                             "stencil weights that overflow or a diagonal that underflows to 0")
        m = nx - 2
        cols = (np.arange(m, dtype=np.int32)[:, None] + np.array([-1, 0, 1], np.int32)).ravel()
        ptr = 3 * np.arange(m + 1, dtype=np.int32) - 1
        ptr[0], ptr[-1] = 0, 3 * m - 2
        Ax = sp.csr_matrix((stencil[1:-1], cols[1:-1], ptr), shape=(m, m))
        Ax.eliminate_zeros()
        ptr = np.ones(m + 1, dtype=np.int32)
        ptr[0], ptr[-1] = 0, 2
        Bx = sp.csr_matrix((stencil[[0, -1]], np.array([0, nx - 1], np.int32), ptr),
                           shape=(m, nx))
        return Ax, Bx

    xs, ys = (np.asarray(ax, dtype=float) for ax in axes)
    hx, hy = (_uniform_step(ax, name, "2-D x-operator") for ax, name in ((xs, "x"), (ys, "y")))
    m1, m2 = len(xs) - 2, len(ys) - 2
    X, Y = np.meshgrid(xs[1:-1], ys[1:-1], indexing="ij")
    a11, a12, a22 = (np.broadcast_to(c, X.shape).ravel() for c in coeff.components(X, Y))
    with np.errstate(invalid="ignore", over="ignore"):  # NaN, inf: out of bounds
        mid, rad = 0.5 * (a11 + a22), np.hypot(0.5 * (a11 - a22), a12)
        _require_elliptic(coeff, mid - rad, mid + rad, (X, Y),
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
    Ax = sp.csr_matrix((V[a], (R[a], (I[a] - 1) * m2 + J[a] - 1)), shape=(m1 * m2, m1 * m2))
    Bx = sp.csr_matrix((V[b], (R[b], I[b] * (m2 + 2) + J[b])),
                       shape=(m1 * m2, len(xs) * len(ys)))
    return Ax, Bx


def _require_elliptic(coeff, emin, emax, coords, comps):
    """ValueError naming the first node where the eigenvalues emin <= emax of
    a^{ij} leave [coeff.lam, coeff.Lam], and its a^{ij}."""
    ok = (emin >= coeff.lam * (1.0 - 1e-12)) & (emax <= coeff.Lam * (1.0 + 1e-12))
    if not np.all(ok):
        i = np.flatnonzero(~np.ravel(ok))[0]
        at = ", ".join(f"{np.ravel(c)[i]:g}" for c in coords)
        vals = ", ".join(f"{name} = {np.ravel(v)[i]:g}" for name, v in comps.items())
        raise ValueError(f"coefficients leave their declared ellipticity bounds "
                         f"[{coeff.lam:g}, {coeff.Lam:g}] at node ({at}): {vals}")


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


_BAND_BUDGET = 256 * 2**20  # bytes of band LU that `_shifted_solver` holds at once


def _shifted_solver(A, shifts, message):
    """Solve function for the block-diagonal diag(A + shifts[k] I): the
    poles of the powers, the extension's y-modes, the contour's nodes.

    A tridiagonal A, N >= 2, whose off-diagonals are all < 0 (every 1-D L)
    is D S D^{-1} with S symmetric (`_tridiagonal_symmetrizer`): LAPACK's
    positive definite LDL^T (pttrf) factors every S + shifts[k] I, 2
    numbers per unknown; complex shifts need such an A and N len(shifts) >=
    3 (else ValueError), and the pivoted LU zgttrf factors A + shifts[k] I,
    4 complex numbers per unknown.  Any other A takes the band LU with partial
    pivoting (gbtrf), N (3k + 1) numbers per block for the half-bandwidth k
    = max |col - row| (2-D `x_operator`: max |e1 m2 + e2| over the stencil
    offsets e, m2 nodes per x2-line; m2 for identity coefficients, m2 + 1
    with a mixed term).  At most _BAND_BUDGET bytes of bands are held: if
    every block fits, all are factored here, once, else each call factors,
    substitutes and releases one batch of blocks at a time, except the last
    batch it walks, which it keeps for the next call; that call walks the
    batches the other way round, so b batches cost b factorizations in the
    first call and b - 1 in each later one.  The blocks follow one another,
    and the exact zeros between them keep them apart.

    solve(b, overwrite_b=False) maps stacked right-hand sides, (len(shifts),
    N) or raveled, to solutions of the same shape and the shifts' dtype;
    with overwrite_b a C-contiguous b receives the solution.  The first
    block k that is singular (LU) or not positive definite (pttrf) raises
    LinAlgError(message.format(k=k, p=-shifts[k])), the block being A - p I.
    Counts obs semigroup.shifted_blocks and semigroup.shifted_unknowns.
    """
    from scipy.linalg.lapack import dgbtrf, dgbtrs, dpttrf, dpttrs, zgttrf, zgttrs

    shifts = np.asarray(shifts, dtype=complex if np.iscomplexobj(shifts) else float)
    n, m = A.shape[0], len(shifts)
    obs.count("semigroup.shifted_blocks", m)
    obs.count("semigroup.shifted_unknowns", m * n)

    def check(info, start=0):
        if info != 0:
            j = start + (info - 1) // n
            raise np.linalg.LinAlgError(message.format(k=j, p=-shifts[j]))

    diag = A.diagonal()
    tridiagonal = (np.all(A.diagonal(-1) < 0.0) and np.all(A.diagonal(1) < 0.0)
                   and A.count_nonzero() == np.count_nonzero(diag) + 2 * (n - 1))
    if shifts.dtype.kind == "c":
        if not (tridiagonal and m * n >= 3):  # scipy's zgttrf wrapper takes 3 unknowns or more
            raise ValueError("complex shifts need a tridiagonal A, off-diagonals < 0, N m >= 3")
        off = np.zeros((2, m, n), dtype=complex)  # sub- and superdiagonal, 0 between blocks
        off[0, :, :-1], off[1, :, :-1] = A.diagonal(-1), A.diagonal(1)
        lo, diag, up, up2, piv, info = zgttrf(off[0].ravel()[:-1], (diag + shifts[:, None]).ravel(),
                                              off[1].ravel()[:-1], overwrite_d=1)
        check(info)

        def substitute(rows):
            zgttrs(lo, diag, up, up2, piv, rows.reshape(-1, 1), overwrite_b=1)
    elif n > 1 and tridiagonal:
        d, e = _tridiagonal_symmetrizer(A)
        diag = diag[None, :] + shifts[:, None]
        off = np.zeros_like(diag)
        off[:, :-1] = e
        diag, off, info = dpttrf(diag.ravel(), off.ravel()[:-1], overwrite_d=1, overwrite_e=1)
        check(info)
        scale = 1.0 / d

        def substitute(rows):
            rows *= scale
            dpttrs(diag, off, rows.reshape(-1, 1), overwrite_b=1)
            rows *= d
    else:
        coo = A.tocoo()
        coo.sum_duplicates()
        k = int(np.max(np.abs(coo.col - coo.row), initial=0))
        per_batch = max(1, _BAND_BUDGET // (8 * n * (3 * k + 1)))

        def factor(start, stop):
            # C-order (block, column, band row) is gbtrf's Fortran (band row,
            # column) layout; A[i, j] sits in band row 2k + i - j
            bands = np.zeros((stop - start, n, 3 * k + 1))
            bands[:, coo.col, 2 * k + coo.row - coo.col] = coo.data
            bands[:, :, 2 * k] += shifts[start:stop, None]
            lu, piv, info = dgbtrf(bands.reshape(-1, 3 * k + 1).T, k, k, overwrite_ab=1)
            check(info, start)
            return lu, piv

        starts = range(0, m, per_batch)
        # the factors of one batch stay between calls: all of them when every
        # block fits, else the last batch a call walked, which the next call
        # walks first (the calls alternate direction)
        kept = {0: factor(0, m)} if m <= per_batch else {}
        if kept:  # every block's factors stay: factor never runs again, so its coo goes
            coo = None

        def substitute(rows):
            order = starts[::-1] if starts[-1] in kept else starts
            for i in order:
                lu, piv = kept.pop(i, None) or factor(i, min(i + per_batch, m))
                dgbtrs(lu, k, k, rows[i:i + per_batch].reshape(-1, 1), piv, overwrite_b=1)
                if i == order[-1]:
                    kept[i] = lu, piv
                del lu, piv  # a batch factored here is released before the next

    def solve(b, overwrite_b=False):
        x = (np.ascontiguousarray(b, dtype=shifts.dtype) if overwrite_b
             else np.array(b, dtype=shifts.dtype, order="C"))
        substitute(x.reshape(m, n))
        return x

    return solve


def _tridiagonal_symmetrizer(A):
    """(d, e) for a tridiagonal A whose off-diagonal pairs have positive
    products: with D = diag(d), taken from the off-diagonals, S = D^{-1} A D
    is symmetric with A's diagonal and off-diagonal e = sign(up) sqrt(up lo)."""
    lo, up = A.diagonal(-1), A.diagonal(1)
    return np.concatenate([[1.0], np.cumprod(np.sqrt(lo / up))]), np.sign(up) * np.sqrt(lo * up)


def tridiagonal_modes(A):
    """Eigen-decomposition A = D Q diag(lam) Q^T D^{-1} of a tridiagonal
    matrix whose off-diagonal pairs have positive products (the 1-D
    `x_operator` and its negation L).

    S = D^{-1} A D is symmetric (`_tridiagonal_symmetrizer`); one
    eigh_tridiagonal gives S = Q diag(lam) Q^T with Q orthogonal.  Returns
    (lam, Q, d).
    """
    from scipy.linalg import eigh_tridiagonal

    d, e = _tridiagonal_symmetrizer(A)
    lam, Q = eigh_tridiagonal(A.diagonal(), e)
    return lam, Q, d


# -- semigroup stepper ----------------------------------------------------------------


class SemigroupStepper:
    """The Dirichlet operator L = -a^{ij} d_ij of a coefficient field on a
    grid, and its heat semigroup e^{-tL} in 1-D.

    The 1-D L = D Q diag(lam) Q^T D^{-1} (`tridiagonal_modes`, computed on
    first use), and e^{-tL} alone is applied in those modes.  Fractional
    powers (info: beta, poles, interval, sup_rel_error, symmetric) take one
    shifted solve per pole in every dimension, the 1-D semigroup extension
    (info: nodes, interval, sup_error) one complex solve per node pair; 2-D
    heat and extension raise ValueError.  `lam_floor` bounds the spectrum
    from below; the decay cut-off, the fits and the contour use it.  It
    rests on the declared lam of `coeff`, which `x_operator` checks on the
    interior nodes.  The top of that interval and the symmetry flag are the
    stepper's too (`_fit_interval`, derived on first use like the modes),
    and so are the factored pole systems of every power x^-beta it has
    applied (`_pole_solver`).

    Its operator and grid do not change after construction; solves at
    distinct times are independent.
    """

    def __init__(self, coeff: CoefficientField, grid: BoxGrid):
        self.coeff = coeff
        self.grid = grid
        self.L = (-x_operator(coeff, grid.axes())[0]).tocsr()  # Dirichlet L = -a^{ij} d_ij
        # provable spectral floor: the 3-point Dirichlet eigenvalue on (lo, hi)
        # is at least 8/L^2 for any spacing, so ||e^{-tL}u|| <= e^{-lam_floor t}||u||;
        # beyond 30 e-folds the heat is zero to machine precision.  The
        # floor is also the lower end of the rational fits.
        self.lam_floor = coeff.lam * sum(8.0 / (hi - lo) ** 2
                                         for lo, hi in zip(grid.los, grid.his))
        self._t_cutoff = 30.0 / self.lam_floor
        self._pole_solvers = {}

    @cached_property
    def _modes(self):
        return tridiagonal_modes(self.L)

    @cached_property
    def _fit_interval(self):
        """((lam_floor, hi), symmetric) for every rational power of L.

        hi is the Gershgorin bound max_i sum_j |L_ij|, raised to 2 lam_floor
        when below it (a single interior node puts the bound on the floor
        itself).  symmetric: max |L - L^T| <= 8 eps rounding max |L|, where
        rounding = max|x| / min spacing over the axes bounds the relative
        error that node coordinates leave in the stencil weights.  The 1-D L
        is tridiagonal: the row sums |lo| + (|d| + |up|), in the order of
        scipy's CSR row sum, and the defect max |up - lo| of its diagonals
        give the bits of the sparse expressions, which 2-D evaluates.
        """
        L = self.L
        if self.grid.ndim == 1:
            lo, d, up = L.diagonal(-1), L.diagonal(), L.diagonal(1)
            rows = np.abs(d)
            rows[:-1] += np.abs(up)
            rows[1:] += np.abs(lo)
            top = np.max(rows)
            defect = np.max(np.abs(up - lo), initial=0.0)
            scale = np.max(np.abs(L.data), initial=0.0)
        else:
            top = np.max(abs(L).sum(axis=1))
            defect, scale = abs(L - L.T).max(), abs(L).max()
        rounding = max(np.max(np.abs(ax)) / np.min(np.diff(ax)) for ax in self.grid.axes())
        hi = max(float(top), 2.0 * self.lam_floor)
        return (self.lam_floor, hi), bool(defect <= 8 * np.finfo(float).eps * rounding * scale)

    def _pole_solver(self, beta, poles):
        """The `_shifted_solver` of every L - p I over the poles of the fit
        of x^-beta, factored on the first call for beta and kept: the poles
        depend only on beta and `_fit_interval`."""
        solve = self._pole_solvers.get(beta)
        if solve is None:
            solve = self._pole_solvers[beta] = _shifted_solver(self.L, -poles,
                                                               "L - ({p:g}) I is singular")
        return solve

    def heat_interior(self, v, t):
        """e^{-tL} applied to an interior-node vector."""
        return self.heat_many(v, [t])[0]

    def heat_many(self, v, ts):
        """e^{-tL} v for every t in ts, one row per time: shape (len(ts), N).

        Rows with t = 0 are v itself, rows past the decay cut-off are zero.
        ValueError on a 2-D grid and for negative or NaN times.
        """
        ts = np.asarray(ts, dtype=float)
        if not np.all(ts >= 0.0):
            raise ValueError("time must be nonnegative")
        if self.grid.ndim != 1:
            raise ValueError("the heat semigroup is computed on 1-D grids only")
        lam, Q, d = self._modes  # D Q e^{-t lam} Q^T D^{-1} v
        out = ((np.exp(-ts[:, None] * lam) * (ts <= self._t_cutoff)[:, None]
                * ((v / d) @ Q)) @ Q.T) * d
        out[ts == 0.0] = v
        return out

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
_AAA_MAX_RANGE = 1e3   # widest hi/lo whose poles AAA proposes
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
    _AAA_MAX_RANGE (up to rounding: lo * _AAA_MAX_RANGE / lo may exceed it
    by an ulp), geometric ones and 0 beyond."""
    lo, hi = x[0], x[-1]
    if hi / lo <= _AAA_MAX_RANGE * (1.0 + 4.0 * np.finfo(float).eps):
        poles = _aaa_poles(x, x**-beta)
        return poles[(np.abs(poles.imag) <= 1e-12 * np.abs(poles)) & (poles.real < 0.0)].real
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
    _AAA_MAX_RANGE (every 2-D mesh of the tests and benchmark) the poles are
    the real negative ones of AAA (`_aaa_poles`), the fewest; AAA's tolerance is
    relative to max x^{-beta}, so wider intervals lose the far end (3.8e-6
    at hi/lo = 8.4e6, beta = 0.99).  Wider intervals take _POLES_PER_DECADE
    geometric poles per decade over [lo / _POLE_MARGIN, hi * _POLE_MARGIN]
    and one at 0, whose error (<= 3e-11 for beta in [0.001, 0.999] up to
    hi/lo = 1e14) does not grow with the width: 32 poles for 1-D N = 4096,
    hi/lo = 8.4e6.  Geometric poles would certify on the narrow intervals
    too, but AAA's are fewer, and each pole is one shifted solve per call:
    on `plane2d`'s intervals (hi/lo 72 to 392) AAA keeps 10 to 13 poles
    where geometric ones keep 14 to 19 (certified <= 6.4e-11); with them
    everywhere `plane2d` (seed 6061) ran 7 to 9% slower, wall_s 0.130 ->
    0.139 and 0.142 s, slower in each of two sets of 6 alternating pairs,
    so both families stay.  The certificate adds to the error sampled on a dense log
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
    """r(L) v for the fit r of x^{-beta} on [lam_floor, Gershgorin bound of L].

    The interval and the symmetry flag are read from the stepper, which
    derives them once (`SemigroupStepper._fit_interval`).  Every pole's
    L - p I is factored in one `_shifted_solver` call (LinAlgError naming p
    if one is singular), which the stepper keeps for later calls at the same
    beta (`SemigroupStepper._pole_solver`).  info gives beta, the pole
    count, the interval, the fit's certificate and whether L is symmetric up
    to the rounding its node coordinates (errors of eps max|x|, relative to
    the smallest spacing) leave in the stencil weights; then the certificate
    bounds the relative matrix error in the 2-norm.  The 1-D L = -a(x) d_xx is D S D^{-1} with S
    symmetric (`tridiagonal_modes`): cond(D) times the bound, <= sqrt(Lambda
    / lambda) times on a uniform grid.  A nonsymmetric 2-D L is not normal
    and the scalar error bounds nothing.
    """
    (lo, hi), symmetric = stepper._fit_interval
    c0, poles, w, err = _power_fit(lo, hi, beta)
    out = c0 * v
    if len(poles):  # beta ~ 1e-16 on a narrow interval: the fit is c0 alone, r(L) = c0 I
        x = stepper._pole_solver(beta, poles)(np.broadcast_to(v, (len(poles), len(v))))
        for wj, xj in zip(w, x):
            out += wj * xj
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
    has no effect.  ValueError unless u lives on the stepper's grid.
    """
    out, info = _rational_power(stepper, stepper.L @ _interior_on(stepper, u), 1.0 - s)
    return stepper.wrap_interior(out), info


def fractional_inverse(stepper: SemigroupStepper, f: GridFunction, s, quad=QuadratureSpec()):
    """L^{-s} f = r_s(L) f; returns (grid function, info dict).

    r_s is the certified rational fit of x^{-s} (`_power_fit`); info as in
    `_rational_power`.  `quad` is accepted for compatibility; it has no
    effect.  ValueError unless f lives on the stepper's grid.
    """
    out, info = _rational_power(stepper, _interior_on(stepper, f), s)
    return stepper.wrap_interior(out), info


def extension_via_semigroup_multi(stepper: SemigroupStepper, u: GridFunction, s, zs,
                                  quad=QuadratureSpec()):
    """Extension U(., z) = phi(L, z) u at every height z in zs; returns (list of
    grid functions, info dict).

    phi(lam, z) = `bessel_extension_profile`, the semigroup formula
    (s^{2s} z / Gamma(s)) int_0^inf e^{-s^2 z^{1/s}/t} e^{-t lam} dt/t^{1+s} in
    closed form (Stinga & Torrea, Comm. PDE 35 (2010) 2092-2122), by the
    contour rule of `_profile_contour` around [lo, hi] =
    `SemigroupStepper._fit_interval`: one `_shifted_solver` call, then the
    weights c_k phi(zeta_k, z) per height.  info: `nodes` (obs counter
    semigroup.extension_nodes), `interval` and `sup_error`, the scalar
    rule's largest sampled error on [lo, hi] over the heights: the field's
    2-norm error is at most cond(V) sup_error |u|, V the eigenvectors of L.
    ValueError in 2-D, off the stepper's grid, unless 0 < s < 1 and every height
    is finite and positive, and for a sup_error above _EXTENSION_TOL (naming s, z).
    `quad` is accepted for compatibility; it has no effect.
    """
    zs = np.asarray(zs, dtype=float).reshape(-1)
    if not np.all(np.isfinite(zs) & (zs > 0.0)):
        raise ValueError("extension height z must be finite and positive")
    if stepper.grid.ndim != 1:
        raise ValueError("the semigroup extension is computed on 1-D grids only")
    if not 0.0 < s < 1.0:
        raise ValueError("s must be in (0,1)")
    v = _interior_on(stepper, u)
    (lo, hi), _ = stepper._fit_interval
    zeta, c, lam = _profile_contour(lo, hi)
    obs.count("semigroup.extension_nodes", 2 * len(zeta))
    x = _shifted_solver(stepper.L, -zeta, "L - ({p:g}) I is singular")(
        np.broadcast_to(v, (len(zeta), len(v))))
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
    overflows (lam > 0).  ValueError unless 0 < s < 1 and lam, z finite, >= 0.
    A scalar lam takes K_s once per distinct height of an array z, with the
    same bits (`_per_distinct`); obs counter semigroup.profile_points.
    """
    if not 0.0 < s < 1.0:
        raise ValueError("s must be in (0,1)")
    z = np.asarray(z, dtype=float)
    if not (np.all(np.isfinite(lam) & (np.asarray(lam) >= 0.0))
            and np.all(np.isfinite(z) & (z >= 0.0))):
        raise ValueError("the extension profile needs finite lam >= 0 and z >= 0")
    k = np.sqrt(lam)
    if np.ndim(k) or not z.ndim:  # a 0-d z keeps numpy's scalar-power bits
        out, points = _bessel_profile(k, s, z), np.broadcast(k, z).size
    else:
        out, points = _per_distinct(lambda heights: _bessel_profile(k, s, heights), z)
    obs.count("semigroup.profile_points", points)
    return out if out.ndim else float(out)


def _per_distinct(profile, z):
    """(profile(z), number of distinct z) for an elementwise profile of an array z,
    bit for bit, calling it once on z's distinct values (-0.0 is 0.0)."""
    values, at = np.unique(z, return_inverse=True)
    return profile(values)[at.reshape(z.shape)], values.size


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

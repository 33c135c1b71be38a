"""Finite-difference solver for the degenerate/singular extension problem

    a^{ij}(x) d_ij U + z^{2-1/s} d_zz U = F   in  Omega x (0, Z)
    d_z U(x, 0) = f(x)                        on  Omega x {z = 0}

The solver works in the transformed coordinate y = 2s z^{1/(2s)}, where
W(x, y) = U(x, z) solves the weighted divergence-form equation

    div_{x,y}(y^{1-2s} grad W) = y^{1-2s} Ft

and the Neumann datum becomes the weighted flux

    lim_{y->0} y^{1-2s} d_y W = (2s)^{1-2s} f(x),

since d_z U = (2s)^{2s-1} y^{1-2s} d_y W.  The y-direction is discretized by
finite volumes with exact two-point conductances K_{j+1/2} = 2s /
(y_{j+1}^{2s} - y_j^{2s}) and exact cell weights, so the scheme never
evaluates the weight at y = 0 and reproduces the homogeneous solutions 1 and
y^{2s} exactly.  All off-diagonal couplings, those of the monotone x-stencil
included, are nonnegative, which gives the discrete maximum principle.

The system is A = A_y (x) I + diag(V) (x) A_x.  It is never assembled: A and
|A| are applied through their factors, level by level, and it is solved in
every dimension by fast diagonalization in the degenerate direction: the
symmetric tridiagonal A_y and the cell weights V > 0 form a pencil whose
eigenvectors split A into one system A_x + mu_k I (mu_k < 0) per y-mode.
A_x need not separate, so a mixed a12 term in 2-D is no obstacle.  The
mode systems are factored by `semigroup._shifted_solver`, as the poles of
the fractional powers are: symmetric tridiagonal LDL^T in 1-D, band LU in
2-D, at most a fixed byte budget of bands at once (beyond it, batch by
batch in each solve call).

One refinement step with A follows, through the same factors (re-factored
batch by batch when they did not fit), and is kept only if it lowers the
componentwise backward error.  Besides the factors, a solve holds about ten
solution-sized vectors at its peak: the data are turned into the
right-hand side level by level, and the products with A, the backward
error and the mode transforms work in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from numbers import Integral

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh_tridiagonal
from scipy.special import gamma, iv

from .geometry import MAGeometry
from .gridfn import write_grid_binary, write_json
from .semigroup import CoefficientField, _shifted_solver, x_operator


# -- coordinate transform ----------------------------------------------------------


def transform_to_y(z, s):
    """y = 2s z^{1/(2s)}; turns h(z) into c_s y^2 / 2.  Identity at s = 1/2."""
    z = np.asarray(z, dtype=float)
    if np.any(z < 0):
        raise ValueError("transform defined for z >= 0")
    out = 2.0 * s * z ** (1.0 / (2.0 * s))
    return out if out.ndim else float(out)


def transform_to_z(y, s):
    """Inverse transform z = (y / 2s)^{2s}."""
    y = np.asarray(y, dtype=float)
    if np.any(y < 0):
        raise ValueError("transform defined for y >= 0")
    out = (y / (2.0 * s)) ** (2.0 * s)
    return out if out.ndim else float(out)


def _conductances(y, s):
    """Exact two-point conductances K_{j+1/2} = 2s / (y_{j+1}^{2s} - y_j^{2s})."""
    return 2.0 * s / (y[1:] ** (2.0 * s) - y[:-1] ** (2.0 * s))


def _dz_factor(s):
    """(2s)^{2s-1}: d_z U = (2s)^{2s-1} y^{1-2s} d_y W.  Its reciprocal takes
    the Neumann datum f to the weighted flux (meta "trace_flux_factor")."""
    return (2.0 * s) ** (2.0 * s - 1.0)


# -- problem and mesh descriptions ---------------------------------------------------


def _as_callable(data):
    if callable(data):
        return data
    value = float(data)

    def const(*args):
        return np.full_like(np.asarray(args[0], dtype=float), value)

    return const


@dataclass
class ExtensionProblem:
    """Data of one extension solve.

    bottom is ("neumann", f) or ("dirichlet", u) with f/u callables of x (or
    constants).  g_lateral(x, z) supplies the lateral Dirichlet values,
    g_top(x) the top.  F(x, z) is the interior right-hand side in native
    coordinates.  domain is (lo, hi) for n = 1 or ((lo1, hi1), (lo2, hi2)).
    """

    s: float
    coeff: CoefficientField
    domain: tuple
    Z: float
    bottom: tuple = ("neumann", 0.0)
    F: object = 0.0
    g_lateral: object = 0.0
    g_top: object = 0.0

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise ValueError("s must be in (0,1)")
        if not (np.isfinite(self.Z) and self.Z > 0):
            raise ValueError(f"Z must be positive and finite, got {self.Z}")
        try:
            bounds = np.asarray(self.domain, dtype=float)
        except (TypeError, ValueError):  # ragged
            bounds = np.empty(0)
        if not (bounds.shape == ((2,) if self.coeff.n == 1 else (2, 2))
                and np.all(np.isfinite(bounds)) and np.all(np.diff(bounds) > 0.0)):
            raise ValueError(f"domain must give finite, increasing bounds (lo, hi) for each "
                             f"of the {self.coeff.n} x-axes, got {self.domain}")
        kind, data = self.bottom
        if kind not in ("neumann", "dirichlet"):
            raise ValueError("bottom condition must be neumann or dirichlet")
        self.bottom = (kind, _as_callable(data))
        self.F = _as_callable(self.F)
        self.g_lateral = _as_callable(self.g_lateral)
        self.g_top = _as_callable(self.g_top)


@dataclass
class ExtensionMesh:
    """Tensor mesh: nx nodes per x-axis, my cells in y with power grading
    y_j = Y (j/my)^grading.  x_grading != None grades the x-axis symmetrically
    toward x = 0 (power law), which resolves trace-data kinks; it needs an odd
    nx."""

    nx: object = 129
    my: int = 64
    grading: float | None = None
    x_grading: float | None = None

    def __post_init__(self):
        counts = [self.nx] if np.isscalar(self.nx) else list(self.nx)
        if not counts or not all(isinstance(m, Integral) and m >= 3 for m in counts):
            raise ValueError("nx must be an integer >= 3 per x-axis")
        if not (isinstance(self.my, Integral) and self.my >= 2):
            raise ValueError("my must be an integer >= 2")
        for name in ("grading", "x_grading"):
            g = getattr(self, name)
            if g is not None and not (np.isfinite(g) and g > 0):
                raise ValueError(f"{name} must be positive and finite")
        if self.x_grading is not None and any(m % 2 == 0 for m in counts):
            raise ValueError("x_grading needs an odd nx: a node at x = 0 and the rest "
                             "split evenly between the two sides")

    def y_grading(self, s):
        """The y-grading exponent; unset, it is max(1, 1/(2-2s))."""
        return self.grading if self.grading is not None else max(1.0, 1.0 / (2.0 - 2.0 * s))

    def y_nodes(self, Y, s):
        """y_j = Y (j/my)^grading.  Raises ValueError when the nodes, or their
        powers y^{2s} that the conductances difference, are not strictly
        increasing (a grading so weak or so strong that nodes coincide)."""
        j = np.arange(self.my + 1)
        g = self.y_grading(s)
        y = Y * (j / self.my) ** g
        if not (np.all(np.diff(y) > 0.0) and np.all(np.diff(y ** (2.0 * s)) > 0.0)):
            raise ValueError(f"grading {g:.6g} with my = {self.my} makes adjacent y-nodes "
                             f"coincide at s = {s:.6g}; choose a grading nearer 1 or a "
                             "smaller my")
        return y

    def x_axes(self, domain, n):
        doms = [domain] if n == 1 else list(domain)
        counts = [self.nx] * n if np.isscalar(self.nx) else list(self.nx)
        if len(counts) != n:
            raise ValueError(f"nx gives {len(counts)} mesh counts for {n} x-dimensions")
        if self.x_grading is not None and n > 1:
            raise ValueError("x_grading is implemented for 1-D x only")
        axes = []
        for (lo, hi), m in zip(doms, counts):
            if self.x_grading is None:
                axes.append(np.linspace(lo, hi, m))
            else:
                if not lo < 0.0 < hi:
                    raise ValueError("x-graded domain must contain x = 0")
                half = (m - 1) // 2
                left = lo * (np.arange(half, 0, -1) / half) ** self.x_grading
                right = hi * (np.arange(1, half + 1) / half) ** self.x_grading
                axes.append(np.concatenate([left, [0.0], right]))
            if not np.all(np.diff(axes[-1]) > 0.0):
                raise ValueError(f"x-axis ({lo:.6g}, {hi:.6g}) with nx = {m} and x_grading "
                                 f"{self.x_grading} has coinciding nodes")
        return axes


class ExtensionState:
    """Solution of an extension solve on the tensor grid.

    values has shape (my+1, *x_shape) and is indexed [z-level, x...]; the
    z-levels are transform_to_z(y_nodes).  Interpolation is bilinear in
    (x, h-coordinate), i.e. linear in delta_h along the z-axis, which respects
    the geometry near the degenerate boundary.
    """

    def __init__(self, s, x_axes, y_nodes, values, residual_interior, residual_bottom,
                 meta=None, reflected=False):
        self.s = s
        self.x_axes = [np.asarray(a, dtype=float) for a in x_axes]
        self.y_nodes = np.asarray(y_nodes, dtype=float)
        self.z_nodes = transform_to_z(self.y_nodes, s)
        self.values = np.asarray(values, dtype=float)
        self.residual_interior = float(residual_interior)
        self.residual_bottom = float(residual_bottom)
        self.meta = dict(meta or {})
        self.reflected = bool(reflected)
        self._geom = MAGeometry(s)
        self._eta = self._geom.h(self.z_nodes)

    @property
    def n(self):
        return len(self.x_axes)

    def trace(self):
        """U(., 0)."""
        return self.values[0]

    def sup_norm(self):
        return float(np.max(np.abs(self.values)))

    def node_points(self):
        """Flat node coordinates and values, honoring reflection.

        Returns (xs, z, v): xs is a list of flat coordinate arrays (one per
        x-axis), z and v flat arrays of the same length.
        """
        zs = self.z_nodes
        vals = self.values
        if self.reflected:
            zs = np.concatenate([-zs[::-1], zs[1:]])
            vals = np.concatenate([vals[::-1], vals[1:]], axis=0)
        mesh = np.meshgrid(zs, *self.x_axes, indexing="ij")
        return [m.ravel() for m in mesh[1:]], mesh[0].ravel(), vals.ravel()

    def values_at(self, x, z):
        """Interpolated U, bilinear in (x, h-coordinate); x shape (...,) for
        n=1 or (..., 2).  Queries must be finite and stay inside the grid
        (1e-12 relative slack at the edges); |z| is used on reflected states."""
        z = np.asarray(z, dtype=float)
        if not self.reflected and np.any(z < -1e-300):
            raise ValueError("state is not reflected; z must be nonnegative")
        x = np.asarray(x, dtype=float)
        axes = (self._eta, *self.x_axes)
        qs = (self._geom.h(z), *([x] if self.n == 1 else [x[..., i] for i in range(self.n)]))
        qs = np.broadcast_arrays(*(_clip_to(q, ax[0], ax[-1]) for q, ax in zip(qs, axes)))
        # multilinear on the grid cell holding each point: per axis its cell
        # and the offset in it, then a sum over the cell's 2^(n+1) corners
        cells = [np.clip(np.searchsorted(ax, q, side="right") - 1, 0, len(ax) - 2)
                 for ax, q in zip(axes, qs)]
        ts = [(q - ax[i]) / (ax[i + 1] - ax[i]) for ax, q, i in zip(axes, qs, cells)]
        out = 0.0
        for corner in product((0, 1), repeat=len(axes)):
            w = np.prod([t if c else 1.0 - t for c, t in zip(corner, ts)], axis=0)
            out = out + self.values[tuple(i + c for i, c in zip(cells, corner))] * w
        return out

    def flux_trace(self):
        """Discrete d_z U(x, 0).

        Solver-produced states and their exact pullbacks (`rescale_solution`
        without a target mesh) carry the full finite-volume trace-row flux
        (two-point flux plus the first-cell source and tangential terms) on
        the interior x-nodes; any other state, one interpolated onto a target
        mesh too, returns the two-point flux of the first face on every x-node.
        """
        fv = self.meta.get("flux_trace_fv")
        if fv is not None:
            return np.asarray(fv, dtype=float)
        return self.z_derivative_faces()[1][0]

    def z_derivative_faces(self):
        """(z_faces, d_z U at faces) from the exact two-point fluxes."""
        s = self.s
        y = self.y_nodes
        K = _conductances(y, s)
        shape = (len(K),) + (1,) * (self.values.ndim - 1)
        flux = K.reshape(shape) * (self.values[1:] - self.values[:-1])
        dz = _dz_factor(s) * flux
        y_faces = 0.5 * (y[1:] + y[:-1])
        return transform_to_z(y_faces, s), dz

    def save(self, path_prefix):
        """Binary grid dump plus JSON sidecar with residuals and scheme metadata."""
        write_grid_binary(path_prefix + ".bin", self.values,
                          axes=[self.z_nodes, *self.x_axes])
        sidecar = {
            "s": self.s,
            "residual_interior": self.residual_interior,
            "residual_bottom": self.residual_bottom,
            "reflected": self.reflected,
            "meta": {k: v for k, v in self.meta.items() if _json_ok(v)},
        }
        write_json(path_prefix + ".json", sidecar)


def _json_ok(v):
    return isinstance(v, (str, int, float, bool, type(None), list, tuple))


def _clip_to(vals, lo, hi, rel=1e-12):
    """Clip values to [lo, hi], refusing NaN and values materially outside."""
    vals = np.asarray(vals, dtype=float)
    slack = rel * max(abs(lo), abs(hi), 1.0)
    if not np.all((vals >= lo - slack) & (vals <= hi + slack)):  # NaN fails both
        raise ValueError("query is NaN or outside the grid domain")
    return np.clip(vals, lo, hi)


# -- solver ----------------------------------------------------------------------------


def solve_extension(problem: ExtensionProblem, mesh: ExtensionMesh) -> ExtensionState:
    s = problem.s
    n = problem.coeff.n
    axes = mesh.x_axes(problem.domain, n)
    Y, y, K, Vw = _y_cells(problem.Z, s, mesh)
    my = mesh.my
    two_s = 2.0 * s
    pw = 2.0 - two_s
    to_flux = two_s ** (1.0 - two_s)

    # mesh-resolution heuristic: the first cell should not carry more than
    # 4x the average weight mass, else the grading is too weak for this s
    coarse_flag = bool(Vw[0] > 4.0 * (Y**pw / pw) / my)

    Ax, Bx = x_operator(problem.coeff, axes)
    nxi = Ax.shape[0]
    x_int = [ax[1:-1] for ax in axes]
    Xint = np.meshgrid(*x_int, indexing="ij")
    Xfull = np.meshgrid(*axes, indexing="ij")

    kind, bdata = problem.bottom
    j0 = 0 if kind == "neumann" else 1
    levels = slice(j0, my)
    nl = my - j0

    # symmetric tridiagonal y-coupling over unknown levels; level j couples to
    # j + 1 through K_{j+1/2}, and the trace row j = 0 has no lower face
    K_below = np.concatenate([[0.0], K])[levels]
    off = K[j0:my - 1]
    Ay = sp.diags([off, -(K[levels] + K_below), off], [-1, 0, 1], format="csr")
    A = _LevelOperator(Ay, Vw[levels], Ax)

    # every datum evaluated once: W starts as the lateral data on all levels,
    # one Bx product gives the Dirichlet-neighbour term of every level, and
    # the sources go into the right-hand side level by level; only level 0's
    # terms are kept, for the flux below
    zlev = transform_to_z(y, s)
    W = np.empty((my + 1,) + Xfull[0].shape)
    for j in range(my + 1):
        W[j] = problem.g_lateral(*Xfull, zlev[j])
    BG = (Bx @ W.reshape(my + 1, -1)[:my].T).T
    rhs = np.empty((nl, nxi))
    for j in range(my):
        Fj = np.broadcast_to(problem.F(*Xint, zlev[j]), Xint[0].shape).ravel()
        if j == 0:
            F0, BG0 = Fj, BG[0].copy()
        if j >= j0:
            rhs[j - j0] = Vw[j] * Fj - Vw[j] * BG[j]
    del BG
    g_top = np.broadcast_to(problem.g_top(*Xint), Xint[0].shape)
    u_bottom = np.broadcast_to(bdata(*Xint), Xint[0].shape)
    if kind == "neumann":
        rhs[0] += to_flux * u_bottom.ravel()
    else:
        rhs[0] -= K[0] * u_bottom.ravel()
    rhs[-1] -= K[my - 1] * g_top.ravel()
    rhs = rhs.ravel()

    sol, rel, refined = _checked_solve(A, rhs, _y_mode_solver(Ay, Vw[levels], Ax))
    if kind == "neumann":
        res_bottom = float(np.max(rel[:nxi]))
        res_int = float(np.max(rel[nxi:])) if nl > 1 else 0.0
    else:
        res_bottom = 0.0
        res_int = float(np.max(rel))

    # the full value array, boundary data included
    inner = (slice(1, -1),) * n
    W[(my,) + inner] = g_top
    if kind == "dirichlet":
        W[(0,) + inner] = u_bottom
    W[(levels,) + inner] = sol.reshape((nl,) + Xint[0].shape)

    # FV trace-row flux read-back: f~ = K_{1/2}(W_1 - W_0) + V_0 (a dW - F~)_0,
    # converted to native d_z U by the (2s)^{2s-1} factor
    w0 = W[(0,) + inner].ravel()
    w1 = W[(1,) + inner].ravel()
    ft_read = K[0] * (w1 - w0) + Vw[0] * (Ax @ w0 + BG0 - F0)
    flux_fv = (_dz_factor(s) * ft_read).reshape(Xint[0].shape)

    meta = {
        "mode": "transformed",
        "bottom": kind,
        "grading": mesh.y_grading(s),
        "x_grading": mesh.x_grading,
        "coarse_weight_flag": coarse_flag,
        "Y": float(Y),
        "Z": float(problem.Z),
        "trace_flux_factor": to_flux,
        "flux_trace_fv": flux_fv,
        "linear_solver": "y-mode-diagonalization",
        "refinement_kept": refined,
    }
    return ExtensionState(s, axes, y, W, res_int, res_bottom, meta)


def _y_cells(Z, s, mesh):
    """(Y, y, K, V): the transformed height, the y-nodes, the conductances
    and the cell weights of the height Z.  ValueError naming Z, before any
    warning, when h(Z) overflows (the state interpolates in h), when Y or a
    weight is not a normal double, or when the y-pencil (K_{j-1/2} +
    K_{j+1/2}) / V_j overflows: Z = 1e300 and 1e-300 at s = 1/2."""
    tiny = np.finfo(float).tiny
    with np.errstate(all="ignore"):  # out-of-range values are refused below
        Y = transform_to_y(Z, s)
        ok = Y >= tiny and np.isfinite(MAGeometry(s).h(Z))
        if ok:
            y = mesh.y_nodes(Y, s)
            K = _conductances(y, s)
            faces = np.concatenate([[0.0], 0.5 * (y[1:] + y[:-1]), [y[-1]]]) ** (2.0 - 2.0 * s)
            V = (faces[1:] - faces[:-1]) / (2.0 - 2.0 * s)
            ok = np.all(V >= tiny) and np.all(np.isfinite((K + np.append(0.0, K[:-1])) / V[:-1]))
    if not ok:
        raise ValueError(f"height Z = {Z:g} is out of range at s = {s:g} with my = {mesh.my}: "
                         "h(Z), the cell weights or the y-pencil leave double precision")
    return Y, y, K, V


def _y_mode_solver(Ay, V, Ax):
    """Solve function for (Ay (x) I + diag(V) (x) Ax) u = r by fast
    diagonalization in the degenerate direction (Lynch, Rice & Thomas,
    Numer. Math. 6 (1964) 185-199).

    With S = diag(V)^{1/2}, the symmetric tridiagonal pencil is factored once,
    S^{-1} Ay S^{-1} = P diag(mu) P^T (P orthogonal), so that
    A = (S P (x) I) (diag(mu) (x) I + I (x) Ax) (P^T S (x) I).  Hence
    u = (S^{-1} P (x) I) w with (Ax + mu_k I) w_k = (P^T S^{-1} r)_k, one
    system of the interior x-size per y-mode.  Ay is negative definite, so
    every shift mu_k < 0 strengthens the diagonal of Ax; -Ax has nonnegative
    row sums, so Ax + mu_k I is strictly diagonally dominant.  The pencil is
    strongly graded (K_{1/2} / V_0 grows like y_1^{-2}); the implicit QL/QR
    driver `stev` follows the grading and keeps the backward error small
    where the default divide-and-conquer driver does not (0.18 against 6e-16
    on a 33^2 x 28 mesh at s = 0.92).  Vectors are raveled level-major.

    `semigroup._shifted_solver` solves the stacked -Ax - mu_k I (the sign is
    in the input scaling, exactly); a shift mu_k >= 0, left by rounding in
    a pencil graded beyond double precision, raises LinAlgError.
    """
    rs = 1.0 / np.sqrt(V)
    mu, P = eigh_tridiagonal(Ay.diagonal() * rs * rs, Ay.diagonal(1) * rs[:-1] * rs[1:],
                             lapack_driver="stev")
    mode_solve = _shifted_solver(-Ax, -mu, "y-mode system {k} is singular or indefinite: its "
                                 "shift mu = {p:g} lost its sign to rounding")

    def solve(r):
        X = r.reshape(len(V), -1) * -rs[:, None]
        G = mode_solve(P.T @ X, overwrite_b=True)
        np.matmul(P, G, out=X)
        X *= rs[:, None]
        return X.ravel()

    return solve


class _LevelOperator:
    """A = Ay (x) I + diag(V) (x) Ax on level-major vectors, applied through its
    factors: A x = Ay X + V o (Ax X^T)^T with X the vector as (levels, x-nodes).
    abs() gives |A| = |Ay| (x) I + diag(V) (x) |Ax| the same way.  The Ax
    products run over blocks of at most an eighth of the levels (and at
    least 8192 numbers), so their transposed copies stay small beside the
    result."""

    def __init__(self, Ay, V, Ax):
        self.Ay, self.V, self.Ax = Ay, V, Ax
        step = max(-(-len(V) // 8), -(-8192 // Ax.shape[0]))
        self._blocks = [slice(i, i + step) for i in range(0, len(V), step)]

    def __matmul__(self, x):
        X = x.reshape(len(self.V), -1)
        out = self.Ay @ X
        for b in self._blocks:
            out[b] += self.V[b, None] * (self.Ax @ X[b].T).T
        return out.ravel()

    def __abs__(self):
        # the two terms meet only on the diagonal, where no cancellation
        # happens while both diagonals are <= 0; then |A| splits as above
        if np.any(self.Ay.diagonal() > 0.0) or np.any(self.Ax.diagonal() > 0.0):
            raise ValueError("|A| splits over the factors only for nonpositive diagonals")
        return _LevelOperator(abs(self.Ay), self.V, abs(self.Ax))


def _checked_solve(A, rhs, solve):
    """solve(rhs) with the non-finite check and its componentwise backward
    error |A x - b| / (|A| |x| + |b|) per row (rows near y = 0 carry huge
    conductances, so the raw residual must be normalized per row).  A needs
    only `A @ x` and `abs(A)`, as a _LevelOperator gives them.  One
    refinement step with A is taken and kept only if it lowers the largest
    backward error.  Returns (x, per-row error, refinement kept).
    """
    abs_A = abs(A)

    def residual_and_error(x):
        # three solution-sized buffers: r, |x| (then |b|, |r|) and the error
        r = A @ x
        np.subtract(rhs, r, out=r)
        t = np.abs(x)
        rel = abs_A @ t
        rel += np.abs(rhs, out=t)
        rel += 1e-300
        np.divide(np.abs(r, out=t), rel, out=rel)
        return r, rel

    sol = solve(rhs)
    if not np.all(np.isfinite(sol)):
        raise RuntimeError("linear solve failed: nonfinite solution")
    r, rel = residual_and_error(sol)
    sol1 = solve(r)
    del r
    sol1 += sol
    _, rel1 = residual_and_error(sol1)
    if np.max(rel1) < np.max(rel):
        return sol1, rel1, True
    return sol, rel, False


# -- even reflection and anisotropic rescaling -------------------------------------------


def reflect_even(state: ExtensionState) -> ExtensionState:
    """Even reflection across {z = 0}: node enumeration gains the z < 0 mirror."""
    out = ExtensionState(state.s, state.x_axes, state.y_nodes, state.values,
                         state.residual_interior, state.residual_bottom,
                         dict(state.meta), reflected=True)
    return out


def rescale_solution(state: ExtensionState, rho, target_mesh: ExtensionMesh | None = None,
                     target_domain=None) -> ExtensionState:
    """V(x, z) = U(rho x, rho^{2s} z) as a new state.

    Without a target mesh the grid is pulled back exactly (x/rho, y/rho) and no
    interpolation happens.  With a target mesh the values are interpolated
    bilinearly in (x, h-coordinate) on target_domain = (xlo, xhi, Z) (default:
    the full pulled-back domain); a target exceeding the source domain raises.
    The induced data transforms (a(rho x), rho^{2s} f(rho x)) are recorded in
    the metadata; the pullback's trace flux is rho^{2s} times U's.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    s = state.s
    meta = dict(state.meta)
    fv = meta.pop("flux_trace_fv", None)
    if target_mesh is None:
        axes = [ax / rho for ax in state.x_axes]
        y = state.y_nodes / rho
        vals = state.values.copy()
        if fv is not None:  # d_z V(x, 0) = rho^{2s} d_z U(rho x, 0)
            meta["flux_trace_fv"] = rho ** (2.0 * s) * np.asarray(fv, dtype=float)
    else:
        if state.n != 1:
            raise ValueError("mesh-targeted rescaling implemented for 1-D x")
        if target_domain is None:
            xlo, xhi = state.x_axes[0][0] / rho, state.x_axes[0][-1] / rho
            Znew = transform_to_z(state.y_nodes[-1] / rho, s)
        else:
            xlo, xhi, Znew = target_domain
        axes = target_mesh.x_axes((xlo, xhi), 1)
        y = target_mesh.y_nodes(transform_to_y(Znew, s), s)
        Xq = np.broadcast_to(axes[0], (len(y), len(axes[0])))
        Zq = np.broadcast_to(transform_to_z(y, s)[:, None], Xq.shape)
        vals = state.values_at(rho * Xq, rho ** (2 * s) * Zq)
    meta["rescaled_by"] = meta.get("rescaled_by", 1.0) * rho
    meta["data_transform"] = "a(rho x), rho^{2s} f(rho x), rho^2 F(rho x, rho^{2s} z)"
    return ExtensionState(s, axes, y, vals, state.residual_interior,
                          state.residual_bottom, meta, reflected=state.reflected)


# -- exact solutions used as oracles -----------------------------------------------------


def harmonic_mode_profile(s, k, y):
    """phi_k(y) = Gamma(1-s) (k y / 2)^s I_{-s}(k y): the reflection-even mode profile.

    cos(k x) phi_k(y) solves the transformed equation with zero weighted flux
    at y = 0 and phi_k(0) = 1; in native coordinates it is harmonic for the
    extension operator with d_z H(x, 0) = 0.
    """
    scalar = np.ndim(y) == 0
    y = np.atleast_1d(np.asarray(y, dtype=float))
    out = np.empty_like(y)
    zero = y == 0.0
    out[zero] = 1.0
    w = k * y[~zero]
    out[~zero] = gamma(1.0 - s) * (w / 2.0) ** s * iv(-s, w)
    return float(out[0]) if scalar else out


class HarmonicCombo:
    """const + sum of amp cos(k x + phase) modes; an exact harmonic oracle.

    Evaluate in native coordinates via __call__(x, z) or in transformed ones
    via at_y(x, y).  Used for solver benchmarks, Hopf checks and the Harnack
    fixture family (choose coefficients keeping the function positive).
    """

    def __init__(self, s, const=0.0, modes=()):
        self.s = s
        self.const = float(const)
        self.modes = [(float(a), float(k), float(p)) for (a, k, p) in modes]

    def at_y(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.full(np.broadcast(x, y).shape, self.const, dtype=float)
        for a, k, p in self.modes:
            out = out + a * np.cos(k * x + p) * harmonic_mode_profile(self.s, k, y)
        return out

    def __call__(self, x, z):
        return self.at_y(x, transform_to_y(np.abs(z), self.s))

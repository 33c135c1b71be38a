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
componentwise backward error.  Besides the factors, a solve holds at most
four solution-sized arrays at once: the right-hand side, the solution, one
work array (the residual, then the refined solution) and the mode-transform
temporary.  Each datum is called once for all levels, F with a column of
heights against the interior x-nodes and the lateral data on the boundary
nodes alone, and the right-hand side is formed in whole-array passes.  The
backward error is reduced to its maximum per level a block of levels at a
time, in the fewest equal blocks of at most 128 KiB of solution each, and
the value array is allocated once the right-hand side is gone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from numbers import Integral

import numpy as np

from . import obs
from .geometry import MAGeometry, transform_to_y, transform_to_z
from .gridfn import write_grid_binary, write_json
from .semigroup import CoefficientField, _per_distinct, _shifted_solver, x_operator


def __getattr__(name):
    # the benchmark tracer wraps `spla.spsolve` here by name; the first lookup
    # imports scipy.sparse.linalg and binds it in this module, where the
    # tracer's patch replaces and restores it (no call here uses it)
    if name == "spla":
        import scipy.sparse.linalg as spla
        globals()["spla"] = spla
        return spla
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# -- the y-discretization ---------------------------------------------------------


def _conductances(y, s):
    """Exact two-point conductances K_{j+1/2} = 2s / (y_{j+1}^{2s} - y_j^{2s})."""
    return 2.0 * s / (y[1:] ** (2.0 * s) - y[:-1] ** (2.0 * s))


def _dz_factor(s):
    """(2s)^{2s-1}: d_z U = (2s)^{2s-1} y^{1-2s} d_y W.  Its reciprocal takes
    the Neumann datum f to the weighted flux (meta "trace_flux_factor")."""
    return (2.0 * s) ** (2.0 * s - 1.0)


# -- problem and mesh descriptions ---------------------------------------------------


def _datum(fn, name, shape, *args):
    """fn(*args) as floats broadcast to shape; a ValueError naming the datum
    and its contract when fn raises or its value does not broadcast."""
    try:
        return np.broadcast_to(np.asarray(fn(*args), dtype=float), shape)
    except (TypeError, ValueError) as exc:
        contract = ("(x, z) must accept z as an array of heights broadcasting against x"
                    if name in ("F", "g_lateral") else "(x) must accept x as an array of nodes")
        raise ValueError(f"{name}{contract}, to shape {shape}: {exc}") from exc


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
    coordinates.  In 2-D, x stands for x1, x2.  A solve calls each datum
    once: F(x, z) and g_lateral(x, z) must accept z as an array of heights
    broadcasting against x (a column of levels against the x-nodes), as
    numpy ufuncs do and `math.sin` does not; a datum that raises TypeError
    or ValueError, or whose value does not broadcast, is a ValueError
    naming it.  domain is (lo, hi) for n = 1 or ((lo1, hi1), (lo2, hi2)).
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
    the geometry near the degenerate boundary.  geom is that geometry:
    MAGeometry(s, n) in the state's x-dimension n.  ValueError unless values
    holds one finite value per node.
    """

    def __init__(self, s, x_axes, y_nodes, values, residual_interior, residual_bottom,
                 meta=None):
        self.s = s
        self.x_axes = [np.asarray(a, dtype=float) for a in x_axes]
        self.y_nodes = np.asarray(y_nodes, dtype=float)
        self.z_nodes = transform_to_z(self.y_nodes, s)
        self.values = np.asarray(values, dtype=float)
        shape = (len(self.y_nodes), *map(len, self.x_axes))
        if self.values.shape != shape:
            raise ValueError(f"values must have shape (len(y_nodes), *map(len, x_axes)) = "
                             f"{shape}, got {self.values.shape}")
        if bad := np.count_nonzero(~np.isfinite(self.values)):
            raise ValueError(f"values must be finite, got {bad} non-finite values")
        self.residual_interior = float(residual_interior)
        self.residual_bottom = float(residual_bottom)
        self.meta = dict(meta or {})
        self.geom = MAGeometry(s, n=len(self.x_axes))
        self._eta = self.geom.h(self.z_nodes)

    @property
    def n(self):
        return len(self.x_axes)

    def trace(self):
        """U(., 0)."""
        return self.values[0]

    def node_points(self):
        """(x, z, v): the nodes and their values, flat; x has shape (N,) for
        n = 1 and (N, n) otherwise."""
        z, *xs = (m.ravel() for m in np.meshgrid(self.z_nodes, *self.x_axes, indexing="ij"))
        return (xs[0] if self.n == 1 else np.stack(xs, axis=-1)), z, self.values.ravel()

    def values_at(self, x, z):
        """Interpolated U, bilinear in (x, h-coordinate); x shape (...,) for
        n = 1 or (..., n), broadcasting against z.  Queries must be finite and
        stay inside the grid (1e-12 relative slack at the edges), z >= 0.

        Cells are found per operand: each axis's cell and weights come from
        that axis's query alone, before the operands broadcast, so a tensor
        grid given as (1, nx) x and (nz, 1) z searches nx + nz cells, not
        nx nz; every value equals that of a flat point-by-point query."""
        z = np.asarray(z, dtype=float)
        if np.any(z < -1e-300):
            raise ValueError("the state lives on the half-space z >= 0; z must be nonnegative")
        x = np.asarray(x, dtype=float)
        if self.n > 1 and x.shape[-1:] != (self.n,):
            raise ValueError(f"an n = {self.n} state takes x of shape (..., {self.n}), "
                             f"got {x.shape}")
        axes = (self._eta, *self.x_axes)
        qs = (self.geom.h(z), *([x] if self.n == 1 else [x[..., i] for i in range(self.n)]))
        # multilinear on the grid cell holding each point: per axis its cell
        # and the weights (1 - t, t) of the cell's two nodes, t the offset in
        # it, then a sum over the cell's 2^(n+1) corners
        cells, weights = [], []
        for q, ax in zip(qs, axes):
            q = _clip_to(q, ax[0], ax[-1])
            i = np.clip(np.searchsorted(ax, q, side="right") - 1, 0, len(ax) - 2)
            t = (q - ax[i]) / (ax[i + 1] - ax[i])
            cells.append(i)
            weights.append((1.0 - t, t))
        out = 0.0
        for corner in product((0, 1), repeat=len(axes)):
            w = weights[0][corner[0]]
            for pair, c in zip(weights[1:], corner[1:]):
                w = w * pair[c]
            out = out + self.values[tuple(i + c for i, c in zip(cells, corner))] * w
        return out

    def flux_trace(self):
        """Discrete d_z U(x, 0).

        Solver-produced states and their pullbacks (`rescale_solution`)
        carry the full finite-volume trace-row flux (two-point flux plus the
        first-cell source and tangential terms) on the interior x-nodes; any
        other state, one built from sampled values for instance, returns the
        two-point flux of the first face on every x-node.
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
            "meta": {k: v for k, v in self.meta.items() if _json_ok(v)},
        }
        write_json(path_prefix + ".json", sidecar)


def _json_ok(v):
    return isinstance(v, (str, int, float, bool, type(None), list, tuple))


def _clip_to(vals, lo, hi):
    """Clip values to [lo, hi], refusing NaN and values more than 1e-12
    max(|lo|, |hi|, 1) outside."""
    vals = np.asarray(vals, dtype=float)
    slack = 1e-12 * max(abs(lo), abs(hi), 1.0)
    if not np.all((vals >= lo - slack) & (vals <= hi + slack)):  # NaN fails both
        raise ValueError("query is NaN or outside the grid domain")
    return np.clip(vals, lo, hi)


# -- solver ----------------------------------------------------------------------------


def solve_extension(problem: ExtensionProblem, mesh: ExtensionMesh) -> ExtensionState:
    """The state solving problem on mesh.  Counts obs extension.solves,
    extension.unknowns (levels x interior x-nodes), extension.y_modes,
    extension.level_blocks and extension.refinements_kept."""
    s = problem.s
    n = problem.coeff.n
    axes = mesh.x_axes(problem.domain, n)
    Y, y, K, Vw = _y_cells(problem.Z, s, mesh)
    my = mesh.my
    two_s = 2.0 * s
    to_flux = two_s ** (1.0 - two_s)

    Ax, Bx = x_operator(problem.coeff, axes)
    nxi = Ax.shape[0]
    x_int = [ax[1:-1] for ax in axes]
    Xint = np.meshgrid(*x_int, indexing="ij")
    Xfull = np.meshgrid(*axes, indexing="ij")

    kind, bdata = problem.bottom
    j0 = 0 if kind == "neumann" else 1
    levels = slice(j0, my)
    nl = my - j0

    # A_y, symmetric tridiagonal over the unknown levels, as its three
    # diagonals; level j couples to j + 1 through K_{j+1/2}, and the trace
    # row j = 0 has no lower face
    off = K[j0:my - 1]
    Ay = (off, -(K[levels] + np.concatenate([[0.0], K])[levels]), off)
    A = _LevelOperator(Ay, Vw[levels], Ax)

    # every datum called once for all levels: the lateral data on the
    # boundary nodes only, whose Dirichlet-neighbour terms the boundary
    # columns of Bx give on the few rows that have entries, and F below the
    # top; level 0's terms are kept for the flux below
    zlev = transform_to_z(y, s)
    inner = (slice(1, -1),) * n
    edge = np.ones(Xfull[0].shape, dtype=bool)
    edge[inner] = False
    X_edge = [X[edge] for X in Xfull]
    lateral = _datum(problem.g_lateral, "g_lateral", (my + 1, len(X_edge[0])),
                     *X_edge, zlev[:, None])
    Fz = _datum(problem.F, "F", (my,) + Xint[0].shape, *Xint,
                zlev[:my].reshape((my,) + (1,) * n)).reshape(my, nxi)
    B_edge = Bx[:, edge.ravel()]
    by_edge = np.flatnonzero(np.diff(B_edge.indptr))
    BG = (B_edge[by_edge] @ lateral[:my].T).T
    F0, BG0 = Fz[0].copy(), np.zeros(nxi)
    BG0[by_edge] = BG[0]
    Vl = Vw[levels, None]
    rhs = Vl * Fz[levels]
    rhs[:, by_edge] -= Vl * BG[levels]  # the other rows would subtract 0: no bit moves
    del Fz
    g_top = _datum(problem.g_top, "g_top", Xint[0].shape, *Xint)
    u_bottom = _datum(bdata, "bottom", Xint[0].shape, *Xint)
    if kind == "neumann":
        rhs[0] += to_flux * u_bottom.ravel()
    else:
        rhs[0] -= K[0] * u_bottom.ravel()
    rhs[-1] -= K[my - 1] * g_top.ravel()

    sol, err, refined = _checked_solve(A, rhs.ravel(), _y_mode_solver(Ay, Vw[levels], Ax))
    del rhs
    if kind == "neumann":
        res_bottom = float(err[0])
        res_int = float(np.max(err[1:])) if nl > 1 else 0.0
    else:
        res_bottom = 0.0
        res_int = float(np.max(err))

    # the full value array, boundary data included
    W = np.empty((my + 1,) + edge.shape)
    W[:, edge] = lateral
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
        "bottom": kind,
        "grading": mesh.y_grading(s),
        "x_grading": mesh.x_grading,
        "Y": float(Y),
        "Z": float(problem.Z),
        "trace_flux_factor": to_flux,
        "flux_trace_fv": flux_fv,
        "refinement_kept": refined,
    }
    obs.count("extension.solves")
    obs.count("extension.unknowns", nl * nxi)
    obs.count("extension.y_modes", nl)
    obs.count("extension.level_blocks", len(A._blocks))
    obs.count("extension.refinements_kept", int(refined))
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
    row sums, so Ax + mu_k I is strictly diagonally dominant.  No coefficient
    or datum enters the pencil, so `_pencil_modes` factors each one once per
    process.  Vectors are raveled level-major.

    `semigroup._shifted_solver` solves the stacked -Ax - mu_k I (the sign is
    in the input scaling, exactly); a shift mu_k >= 0, left by rounding in
    a pencil graded beyond double precision, raises LinAlgError.
    """
    rs = 1.0 / np.sqrt(V)
    mu, P = _pencil_modes((Ay[1] * rs * rs).tobytes(), (Ay[2] * rs[:-1] * rs[1:]).tobytes())
    mode_solve = _shifted_solver(-Ax, -mu, "y-mode system {k} is singular or indefinite: its "
                                 "shift mu = {p:g} lost its sign to rounding")

    def solve(r, overwrite=False):
        # with overwrite, r's buffer is scaled, transformed and returned
        X = r.reshape(len(V), -1)
        X = np.multiply(X, -rs[:, None], out=X if overwrite else None)
        G = mode_solve(P.T @ X, overwrite_b=True)
        np.matmul(P, G, out=X)
        X *= rs[:, None]
        return X.ravel()

    return solve


@lru_cache(maxsize=64)
def _pencil_modes(diag, off):
    """(mu, P) with P diag(mu) P^T the symmetric tridiagonal matrix of the
    float64 bytes diag and off: the scaled y-pencil of `_y_mode_solver`, which
    is strongly graded (K_{1/2} / V_0 grows like y_1^{-2}).  The implicit QL/QR
    driver `stev` follows the grading: the divide-and-conquer `stevd` left a
    backward error of 0.18 against 6e-16 on a 33^2 x 28 mesh at s = 0.92, and
    scipy's default, MRRR `stemr`, 4-5x faster at my = 192, leaves ||P^T P -
    I|| at 1e-13 to 2.4e-13 against 2.4e-15 to 3.7e-15 (my 96-192, s = 0.05
    and 0.48), too much to trade for a factorization made once per pencil.

    Memoized on the bytes, arrays read-only: the solves on one y-mesh (s, Z,
    my, grading, bottom) share its modes bit for bit.  P holds my^2 doubles:
    295 KB at my = 192, 128 MiB at the config's cap my = 4096.  Counts obs
    extension.pencil_factorizations per factorization made (a hit counts none).
    """
    from scipy.linalg import eigh_tridiagonal

    obs.count("extension.pencil_factorizations")
    mu, P = eigh_tridiagonal(np.frombuffer(diag), np.frombuffer(off), lapack_driver="stev")
    mu.flags.writeable = P.flags.writeable = False
    return mu, P


# bytes of solution in one block of levels: its backward-error pass makes
# about five temporaries of that size, 640 KiB together, which a core's L2
# cache holds
_BLOCK_BYTES = 2**17


class _LevelOperator:
    """A = Ay (x) I + diag(V) (x) Ax on level-major vectors, applied through its
    factors a block of levels at a time: with X the vector as (levels,
    x-nodes), the rows of A x on the levels b are (Ay X)_b + V_b o (Ax
    X_b^T)^T.  Ay is its three diagonals (lower, main, upper); Ay X is summed
    from them, from 0 and in column order as a CSR product sums, so bit for
    bit as `Ay @ X` with Ay assembled.  `_blocks` pairs each block b with
    the levels near it reads (b and its two neighbours): the fewest equal
    blocks of at most _BLOCK_BYTES of solution each.  abs() gives |A| =
    |Ay| (x) I + diag(V) (x) |Ax| the same way."""

    def __init__(self, Ay, V, Ax):
        self.Ay, self.V, self.Ax = Ay, V, Ax
        nl = len(V)
        blocks = -(-nl * Ax.shape[0] * 8 // _BLOCK_BYTES)  # the fewest that fit the bytes
        step = -(-nl // blocks)  # of equal size
        self._blocks = [(slice(i, min(i + step, nl)), slice(max(i - 1, 0), min(i + step + 1, nl)))
                        for i in range(0, nl, step)]

    def rows(self, Xn, b, near):
        """The rows of A X on the levels b, a new array, from Xn = X[near]."""
        lo, d, up = self.Ay
        i, j, o = b.start, b.stop, near.start
        out = np.zeros((j - i, Xn.shape[1]))
        k = max(i, 1)  # levels k.. have a lower neighbour
        out[k - i:] += lo[k - 1:j - 1, None] * Xn[k - 1 - o:j - 1 - o]
        out += d[b, None] * Xn[i - o:j - o]
        k = min(j, len(d) - 1)  # levels ..k-1 have an upper neighbour
        out[:k - i] += up[i:k, None] * Xn[i + 1 - o:k + 1 - o]
        out += self.V[b, None] * (self.Ax @ Xn[i - o:j - o].T).T
        return out

    def __abs__(self):
        # the two terms meet only on the diagonal, where no cancellation
        # happens while both diagonals are <= 0; then |A| splits as above
        if np.any(self.Ay[1] > 0.0) or np.any(self.Ax.diagonal() > 0.0):
            raise ValueError("|A| splits over the factors only for nonpositive diagonals")
        return _LevelOperator(tuple(map(np.abs, self.Ay)), self.V, abs(self.Ax))


def _checked_solve(A, rhs, solve):
    """solve(rhs) with the non-finite check and its componentwise backward
    error |b - A x| / (|A| |x| + |b|) per row (rows near y = 0 carry huge
    conductances, so the raw residual must be normalized per row), taken a
    block of levels at a time through the _LevelOperator A and kept as its
    maximum per level.  One refinement step with A is taken, solve(r,
    overwrite=True) turning the residual's buffer into the correction, and
    kept only if it lowers the largest backward error.  Returns (x,
    per-level maxima, refinement kept).  |A| lives only through one
    backward-error pass, so no copy of |Ay| and |Ax| is held while solve
    runs.
    """
    B = rhs.reshape(len(A.V), -1)

    def level_errors(x, residual=None):
        # b - A x goes into `residual` when one is given
        abs_A = abs(A)
        X = x.reshape(B.shape)
        err = np.empty(len(B))
        for b, near in A._blocks:
            r = A.rows(X[near], b, near)
            r = np.subtract(B[b], r, out=r if residual is None else residual[b])
            den = abs_A.rows(np.abs(X[near]), b, near)
            den += np.abs(B[b])
            den += 1e-300
            err[b] = np.max(np.divide(np.abs(r), den, out=den), axis=1)
        return err

    sol = solve(rhs)
    if not np.all(np.isfinite(sol)):
        raise RuntimeError("linear solve failed: nonfinite solution")
    r = np.empty_like(B)
    err = level_errors(sol, r)
    sol1 = solve(r, overwrite=True)
    sol1 += sol
    err1 = level_errors(sol1)
    if np.max(err1) < np.max(err):
        return sol1, err1, True
    return sol, err, False


# -- anisotropic rescaling -----------------------------------------------------------------


def rescale_solution(state: ExtensionState, rho) -> ExtensionState:
    """V(x, z) = U(rho x, rho^{2s} z) as a new state: the exact pullback.

    The grid is pulled back (x/rho, y/rho) and the values are kept, so no
    interpolation happens; to sample V elsewhere, evaluate
    state.values_at(rho x, rho^{2s} z).  The induced data transforms
    (a(rho x), rho^{2s} f(rho x)) are recorded in the metadata; the trace
    flux is rho^{2s} times U's.
    """
    if not (np.isfinite(rho) and rho > 0):
        raise ValueError(f"rho must be finite and positive, got {rho!r}")
    s = state.s
    meta = dict(state.meta)
    fv = meta.pop("flux_trace_fv", None)
    if fv is not None:  # d_z V(x, 0) = rho^{2s} d_z U(rho x, 0)
        meta["flux_trace_fv"] = rho ** (2.0 * s) * np.asarray(fv, dtype=float)
    meta["rescaled_by"] = meta.get("rescaled_by", 1.0) * rho
    meta["data_transform"] = "a(rho x), rho^{2s} f(rho x), rho^2 F(rho x, rho^{2s} z)"
    return ExtensionState(s, [ax / rho for ax in state.x_axes], state.y_nodes / rho,
                          state.values.copy(), state.residual_interior,
                          state.residual_bottom, meta)


# -- exact solutions used as oracles -----------------------------------------------------


def harmonic_mode_profile(s, k, y):
    """phi_k(y) = Gamma(1-s) (k y / 2)^s I_{-s}(k y): the reflection-even mode profile.

    cos(k x) phi_k(y) solves the transformed equation with zero weighted flux
    at y = 0 and phi_k(0) = 1; in native coordinates it is harmonic for the
    extension operator with d_z H(x, 0) = 0.  phi_k = 1 wherever k y == 0 (the
    constant mode, y = 0, underflow); ValueError for a negative or non-finite k.
    """
    if not (np.isfinite(k) and k >= 0.0):
        raise ValueError(f"mode wave number must be finite and >= 0, got k = {k}")
    from scipy.special import gamma, iv

    def profile(y):
        w = k * y
        out, nonzero = np.ones_like(y), w != 0.0
        out[nonzero] = gamma(1.0 - s) * (w[nonzero] / 2.0) ** s * iv(-s, w[nonzero])
        return out

    y = np.asarray(y, dtype=float)
    out, _ = _per_distinct(profile, np.atleast_1d(y))
    return out if y.ndim else float(out[0])


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

    def at_y(self, x, y, profiles=None):
        """The combination at (x, y).  profiles, a dict by wave number, holds
        the mode profiles at this y: those missing are added, so combos
        evaluated at the same y with one dict compute each profile once."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        profiles = {} if profiles is None else profiles
        out = np.full(np.broadcast(x, y).shape, self.const, dtype=float)
        for a, k, p in self.modes:
            if k not in profiles:
                profiles[k] = harmonic_mode_profile(self.s, k, y)
            out = out + a * np.cos(k * x + p) * profiles[k]
        return out

    def __call__(self, x, z):
        return self.at_y(x, transform_to_y(z, self.s))

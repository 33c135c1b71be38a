"""Quantitative regularity measurements: geometry-adapted Hoelder seminorms,
Harnack quotients over sections, harmonic-approximation distance, dyadic decay
of best polynomial fits at the trace, the inductive rescaling iteration, and
the end-to-end fractional estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .benchmarks import harmonic_combo_problem, harmonic_family_ycap
from .extension import (ExtensionMesh, ExtensionProblem, ExtensionState,
                        HarmonicCombo, solve_extension,
                        transform_to_y, transform_to_z)
from .fitting import sup_fit, sup_fitter
from .geometry import MAGeometry, SectionDescriptor, _names_s
from .semigroup import CoefficientField, _uniform_step


# -- Hoelder seminorm in the quasi-metric ---------------------------------------------------


# Points per row block in both Hoelder maxima: holder_seminorm pairs each row
# block with every point, holder_quotient pairs its leaf blocks row block by
# row block, so each keeps O(_HOLDER_BLOCK N) values at a time.
_HOLDER_BLOCK = 256
_HOLDER_LEAF = 16  # points per leaf block of holder_quotient's bounds


def holder_seminorm(geom: MAGeometry, x_pts, z_pts, vals, beta):
    """max over ordered pairs of |U(p) - U(q)| / delta_Phi(p, q)^(beta/2).

    Every pair counts: row blocks of _HOLDER_BLOCK points p against all
    points q, both orders as delta_Phi is not symmetric, O(_HOLDER_BLOCK N)
    memory.  0 if no pair is apart.  ValueError unless the points and vals
    are finite and of one length N, as holder_quotient's.
    """
    if not 0.0 < beta < 2.0:
        raise ValueError("exponent must be in (0, 2)")
    vals = np.asarray(vals, dtype=float)
    x_pts, z_pts = np.asarray(x_pts, dtype=float), np.asarray(z_pts, dtype=float)
    if vals.ndim != 1 or z_pts.shape != vals.shape or x_pts.shape[:1] != vals.shape:
        raise ValueError("holder_seminorm: x_pts, z_pts and vals must hold one entry per point")
    if not (np.all(np.isfinite(x_pts)) and np.all(np.isfinite(z_pts))):
        raise ValueError("holder_seminorm: x_pts and z_pts must be finite")
    if not np.all(np.isfinite(vals)):
        raise ValueError("holder_seminorm: vals must be finite")
    x_pts = x_pts.reshape(len(vals), -1)  # (N, n)
    h, hp = geom.h(z_pts), geom.hp(z_pts)
    maxima = [0.0]
    for i in range(0, len(vals), _HOLDER_BLOCK):
        p = slice(i, i + _HOLDER_BLOCK)
        dphi = 0.5 * sum((x[p, None] - x[None, :]) ** 2 for x in x_pts.T)
        delta = dphi + (h[None, :] - h[p, None] - hp[p, None] * (z_pts[None, :] - z_pts[p, None]))
        mask = delta > 1e-300
        num = np.abs(vals[None, :] - vals[p, None])[mask]
        maxima.append(np.max(num / delta[mask] ** (beta / 2.0), initial=0.0))
    return float(np.max(maxima))


def holder_seminorm_state(state: ExtensionState, center, R, beta):
    """Seminorm of a solved state on S_R(center) in `state.geom`, a ValueError
    if it holds no node.  It is its even reflection's too: with t > 0,
    delta_h(-z, t) = delta_h(z, t) + 2 h'(z) t and delta_h(-z, -t) =
    delta_h(z, t), so no pair across z = 0 beats its twin pair."""
    x, z, v = state.node_points()
    member = SectionDescriptor(center[0], center[1], R).contains(state.geom, x, z)
    if not member.any():
        raise ValueError("section S_R contains no grid nodes")
    return holder_seminorm(state.geom, x[member], z[member], v[member], beta)


# -- Harnack quotient -------------------------------------------------------------------------


@dataclass
class HarnackReport:
    center_x: float | tuple  # a float in 1-D, the whole x-center otherwise
    center_z: float
    R: float
    kappa: float
    sup: float
    inf: float
    quotient: float


def harnack_quotient(state: ExtensionState, center, R, kappa=0.5) -> HarnackReport:
    """sup / inf over the shrunken section S_{kappa R} in `state.geom`, 0 < kappa < 1.

    The state must be nonnegative on S_R and solve a problem with f = F = 0,
    so the data terms ||f|| R^s + ||F|| R of the denominator vanish.  It is
    the quotient of the even reflection across z = 0 too: with t > 0,
    delta_h(z0, -t) = delta_h(z0, t) + 2 h'(z0) t >= delta_h(z0, t), so a
    mirrored node lies in a section only if its twin does.
    """
    x, z, v = state.node_points()
    return _HarnackSections(state.geom, x, z, center, R, kappa).report(v)


class _HarnackSections:
    """The nodes of S_R(center) and S_{kappa R}(center) among fixed nodes (x, z),
    as flat index arrays: the geometry of a Harnack quotient, shared by every
    function on them."""

    def __init__(self, geom: MAGeometry, x, z, center, R, kappa):
        if not 0.0 < kappa < 1.0:  # S_{kappa R} must lie inside S_R, where v >= 0 is checked
            raise ValueError(f"Harnack kappa must lie in (0, 1), got {kappa!r}")
        self.center, self.R, self.kappa = center, R, kappa
        self.in_R, self.in_kR = (np.flatnonzero(SectionDescriptor(
            center[0], center[1], radius).contains(geom, x, z)) for radius in (R, kappa * R))
        if not self.in_R.size:
            raise ValueError("section S_R contains no grid nodes")
        if not self.in_kR.size:
            raise ValueError("section S_{kappa R} contains no grid nodes")

    def report(self, v) -> HarnackReport:
        """The quotient of the node values v (one per node, all finite)."""
        v_R, v_kR = v[self.in_R], v[self.in_kR]
        if np.min(v_R) < -1e-10 * max(1.0, np.max(np.abs(v_R))):
            raise ValueError("Harnack quotient requires a nonnegative solution on S_R")
        sup = float(np.max(v_kR))
        inf = float(max(np.min(v_kR), 0.0))
        Q = 1.0 if sup == 0.0 else (np.inf if inf == 0.0 else sup / inf)
        cx, cz = self.center
        cx = np.asarray(cx, dtype=float).ravel().tolist()
        return HarnackReport(cx[0] if len(cx) == 1 else tuple(cx), float(cz), float(self.R),
                             float(self.kappa), sup, inf, float(Q))


@_names_s
def harnack_family_report(s, family, nx, my, kappa, R):
    """Max quotient over a family of exact nonnegative harmonic combinations.

    family: a nonempty list of HarmonicCombo at this s, else a ValueError
    (naming the member; f = F = 0, so the data terms vanish).  Each is
    sampled, not solved, on a grid of its own: nx x-nodes and my geometric
    z-levels plus the trace z = 0, over S_R(0) x S_R(0)^+ widened by 5%.
    The sections are found once for the family; by the inequality in
    `harnack_quotient` the quotients are also those of the even reflection.
    """
    if not len(family):
        raise ValueError("harnack_family_report: family must hold at least one member")
    geom = MAGeometry(s)
    xlim = np.sqrt(2.0 * R) * 1.05
    zcap = geom.section_interval(0.0, R)[1] * 1.05
    xs = np.linspace(-xlim, xlim, nx)
    zs = np.concatenate([[0.0], np.geomspace(zcap * 1e-3, zcap, my)])
    ys = transform_to_y(zs, s)
    Z, X = np.meshgrid(transform_to_z(ys, s), xs, indexing="ij")
    section = _HarnackSections(geom, X.ravel(), Z.ravel(), (0.0, 0.0), R, kappa)
    profiles = {}  # each wave number's mode profile on this grid, for the whole family
    reports = []
    for i, combo in enumerate(family):
        if combo.s != s:
            raise ValueError(f"family member {i} has s = {combo.s!r}, not the report's {s!r}")
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            vals = combo.at_y(xs[None, :], ys[:, None], profiles)
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"R = {R:g} is too large: a family member overflows on S_R, "
                             f"where its mode profiles grow like e^(k y)")
        try:
            reports.append(section.report(vals.ravel()))
        except ValueError as exc:  # the values are finite: negative on S_R
            raise ValueError(
                f"R = {R:g} is too large: family member {i} is negative on S_R, sampled up "
                f"to y = {ys[-1]:.4g}, and positive_harmonic_family keeps its members "
                f"positive only on the box h(z) <= 1, y <= {harmonic_family_ycap(s):.4g}"
            ) from exc
    quotients = np.array([r.quotient for r in reports])
    return {"C_H_hat": float(np.max(quotients)),
            "min_quotient": float(np.min(quotients)),
            "reports": reports}


# -- approximation by harmonic solutions ------------------------------------------------------


def approximation_distance(s, eps0, mesh=None):
    """||U - H||_inf on S_{3/4} x S_{3/4}^+ u T_{3/4} for a perturbed problem.

    U solves coefficients 1 + 0.45 eps0 cos(2x), Neumann 0.3 eps0 sin(3x) and
    right-hand side 0.25 eps0 cos(x); H solves the harmonic problem (a = 1,
    f = F = 0); both take the lateral/top data of the harmonic combination
    1 + 0.4 cos(x + 0.2) (times its mode profile) and one mesh, so the
    distance tends to 0 with eps0.
    """
    mesh = mesh or ExtensionMesh(nx=129, my=48)
    # on S_1 x (0, Z), h(Z) = 1
    prob_h = harmonic_combo_problem(HarmonicCombo(s, const=1.0, modes=[(0.4, 1.0, 0.2)]))
    lam = max(1e-6, 1.0 - 0.45 * eps0)
    coeff_p = CoefficientField(1, lambda x: 1.0 + 0.45 * eps0 * np.cos(2.0 * x),
                               lam, 1.0 + 0.45 * eps0)
    prob_p = ExtensionProblem(
        s=s, coeff=coeff_p, domain=prob_h.domain, Z=prob_h.Z,
        bottom=("neumann", lambda x: 0.3 * eps0 * np.sin(3.0 * x)),
        F=lambda x, z: 0.25 * eps0 * np.cos(x) * np.ones_like(np.asarray(x, float)),
        g_lateral=prob_h.g_lateral, g_top=prob_h.g_top)
    U = solve_extension(prob_p, mesh)
    H = solve_extension(prob_h, mesh)
    member = SectionDescriptor((0.0,), 0.0, 0.75, "cylinder").contains(
        U.geom, U.x_axes[0][None, :], U.z_nodes[:, None])
    return float(np.max(np.abs(U.values - H.values)[member]))


# -- dyadic polynomial decay at the trace -------------------------------------------------------


# the coefficients of each case's polynomial c + b x + 1/2 A x^2 + d h(z), in
# the column order of _case_basis, and the degree by which each one scales
_CASE_COEFFS = {1: ("c",), 2: ("c", "b"), 3: ("c", "b", "A", "d")}
_DEGREE = {"c": 0, "b": 1, "A": 2, "d": 2}


def _case_polynomial(coeffs, x, z, geom: MAGeometry):
    """c + b x + 1/2 A x^2 + d h(z); a coefficient the dict lacks is 0."""
    c, b, A, d = (coeffs.get(name, 0.0) for name in _DEGREE)
    return c + b * x + 0.5 * A * x**2 + d * geom.h(z)


def _case_basis(case, X, Z, geom: MAGeometry):
    ones = np.ones_like(X)
    if case == 1:
        return np.stack([ones], axis=1)
    if case == 2:
        return np.stack([ones, X], axis=1)
    return np.stack([ones, X, 0.5 * X**2, geom.h(Z)], axis=1)


def _check_ladder(case, rho):
    """ValueError unless case is 1, 2 or 3 and the scales rho^j shrink, 0 < rho < 1."""
    if case not in (1, 2, 3):
        raise ValueError(f"case must be 1, 2 or 3, got {case!r}")
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (0, 1), got {rho!r}")


def _decay_cylinder(r, case):
    """S_{r^2} x S_{zcap}^+ about the origin: zcap = r^2 in cases 1-2 and r^3
    in the degenerate case 3."""
    return SectionDescriptor((0.0,), 0.0, r**2, "cylinder", r**2 if case in (1, 2) else r**3)


def _region(state: ExtensionState, r, case):
    """Nodes of the decay cylinder of radius r in row-major (z, x) order,
    thinned by a fixed stride to at most 6000.  The cylinder is the product
    of its x- and z-sets, so only the kept nodes are gathered."""
    xs, zs = state.x_axes[0], state.z_nodes
    inside = _decay_cylinder(r, case).contains(state.geom, xs[None, :], zs[:, None])
    ix, iz = np.flatnonzero(inside.any(axis=0)), np.flatnonzero(inside.any(axis=1))
    if len(ix) < 7 or len(iz) < 4:
        return None
    nodes = len(iz) * len(ix)
    rows, cols = np.divmod(np.arange(0, nodes, -(-nodes // 6000)), len(ix))
    rows, cols = iz[rows], ix[cols]
    return xs[cols], zs[rows], state.values[rows, cols]


@dataclass
class DecayReport:
    case: int
    rho: float
    scales: list
    fitted_exponent: float | None
    noise_floor: float
    fit_window: int | None
    kept: list
    increments: dict = field(default_factory=dict)
    truncated: bool = False


def schauder_decay(state: ExtensionState, case, rho, depth, noise_floor,
                   fit_window=None) -> DecayReport:
    """Best sup-fit of the case polynomial over S_{r^2} x S_{r^2}^+ ladders.

    case 1: constants; case 2: affine in x; case 3: 1/2 A x^2 + b x + c +
    d h(z) over the anisotropic region S_{r^2} x S_{r^3}^+ (the degenerate
    scaling).  Scales with sup error below 10x the noise floor are excluded
    from the exponent fit; fit_window keeps only the last k surviving scales
    ("r sufficiently small").
    """
    _check_ladder(case, rho)
    if state.n != 1:
        raise ValueError("decay fitting implemented for 1-D x")
    geom = state.geom
    scales = []
    truncated = False
    for j in range(depth + 1):
        r = rho**j
        nodes = _region(state, r, case)
        if nodes is None:
            truncated = True
            break
        X, Z, V = nodes
        basis = _case_basis(case, X, Z, geom)
        coeffs, E = sup_fit(basis, V)
        scales.append({"j": j, "r": float(r), "nodes": int(len(V)), "E": float(E),
                       "coeffs": {k: float(v) for k, v in zip(_CASE_COEFFS[case], coeffs)}})
    kept = [row for row in scales if row["E"] > 10.0 * noise_floor]
    if fit_window:
        kept = kept[-fit_window:]
    fitted = None
    if len(kept) >= 2:
        lr = np.log([row["r"] for row in kept])
        lE = np.log([row["E"] for row in kept])
        fitted = float(np.polyfit(lr, lE, 1)[0])
    increments = {"d" + name: [] for name in _DEGREE}
    for a, b in zip(scales[:-1], scales[1:]):
        for name in _CASE_COEFFS[case]:
            increments["d" + name].append(
                a["r"] ** _DEGREE[name] * abs(a["coeffs"][name] - b["coeffs"][name]))
    return DecayReport(case, float(rho), scales, fitted, float(noise_floor),
                       fit_window, [row["j"] for row in kept], increments, truncated)


# -- inductive rescaling iteration ---------------------------------------------------------------


@dataclass
class CampanatoReport:
    case: int
    rho: float
    alpha: float
    steps: int
    coefficients: list           # accumulated (c, b, A, d) after each step
    step_errors: list            # sup error of the corrector fit per step
    increments: dict
    limit: dict
    truncated: bool = False


def campanato_iterate(state: ExtensionState, case, alpha, rho) -> CampanatoReport:
    """Inductive zoom: sample the zoomed state, fit a unit-scale corrector,
    accumulate.

    The fit nodes are those of a fixed 97 x 41 grid (my = 40, grading 3) on
    [-xw, xw] x [0, Zfit] that lie in the decay cylinder of radius rho.  At
    step k, rho^{-k(alpha+2s)} (U(rho^k x, rho^{2sk} z) - P_k(...)) is sampled
    there, `values_at` taking the grid as its (1, 97) x- and (41, 1) z-axes,
    and sup-fitted by the case polynomial, and the
    accumulated polynomial is updated by
    P_{k+1} = P_k + rho^{k(alpha+2s)} P(rho^{-k} x, rho^{-2ks} z), i.e.

        c += rho^{k(alpha+2s)} c_step      b += rho^{k(alpha+2s-1)} b_step
        A += rho^{k(alpha+2s-2)} A_step    d += rho^{k(alpha+2s-2)} d_step.

    The zoom takes 8 steps and stops early (truncated report) once the
    zoomed fit region falls below a few source-grid cells.  The fit nodes,
    their basis and the fit's work on that basis alone (`fitting.sup_fitter`)
    are set up once, before the loop.
    """
    _check_ladder(case, rho)
    if state.n != 1:
        raise ValueError("iteration implemented for 1-D x")
    s, geom = state.s, state.geom
    gam = alpha + 2.0 * s
    cylinder = _decay_cylinder(rho, case)
    xw = np.sqrt(2.0) * rho * 1.02
    Zfit = geom.section_interval(0.0, cylinder.r)[1] * 1.02
    dx0 = float(np.min(np.diff(state.x_axes[0])))
    grid = ExtensionMesh(nx=97, my=40, grading=3.0)
    xs = grid.x_axes((-xw, xw), 1)[0][None, :]
    zs = transform_to_z(grid.y_nodes(transform_to_y(Zfit, s), s), s)[:, None]
    member = cylinder.contains(geom, xs, zs)
    X, Z = (np.broadcast_to(a, member.shape)[member] for a in (xs, zs))
    fit = sup_fitter(_case_basis(case, X, Z, geom))

    acc = dict.fromkeys(_DEGREE, 0.0)
    coefficients, step_errors = [], []
    inc = {"d" + name: [] for name in _DEGREE}
    truncated = False
    for k in range(8):
        if rho**k * xw < 4.0 * dx0 / np.sqrt(2.0):
            truncated = True
            break
        W = state.values_at(rho**k * xs, (rho**k) ** (2 * s) * zs)[member]
        # subtract the accumulated polynomial in original coordinates
        Pk = _case_polynomial(acc, rho**k * X, rho ** (2 * s * k) * Z, geom)
        theta, err = fit((W - Pk) / rho ** (k * gam))
        step_errors.append(float(err))
        step = dict.fromkeys(_DEGREE, 0.0)
        step.update(zip(_CASE_COEFFS[case], theta))
        for name, value in step.items():
            inc["d" + name].append(abs(rho ** (k * gam) * value))
            acc[name] += rho ** (k * (gam - _DEGREE[name])) * value
        coefficients.append({name: float(value) for name, value in acc.items()})
    limit = coefficients[-1] if coefficients else dict.fromkeys(_DEGREE, 0.0)
    return CampanatoReport(case, float(rho), float(alpha), len(coefficients),
                           coefficients, step_errors, inc, limit, truncated)


# -- end-to-end fractional regularity --------------------------------------------------------------


def holder_quotient(xs, g, gamma):
    """max |g_i - g_j| / |x_i - x_j|^gamma over the pairs of points with
    |x_i - x_j| > 1e-300 (0 if none), bit for bit the dense all-pairs max.

    The points, sorted by x, fall into leaf blocks of _HOLDER_LEAF.  For
    blocks I <= J every pair (i in I, j in J) has
        quotient <= ub = max(gmax_J - gmin_I, gmax_I - gmin_J) / (xlo_J - xhi_I)^gamma
    in floating point too: IEEE subtraction and division are monotone, and
    pow is up to its rounding, which the factor 1 + 1e-12 below covers.  ub
    is inf where the gap is <= 1e-300 (diagonal and touching blocks).
    `best` starts as the max of the dense quotients of each block pair's
    extreme-value pairs (argmin_I with argmax_J, argmax_I with argmin_J).
    A block pair with ub (1 + 1e-12) <= best is skipped: its pairs are all
    <= best, itself a pair's quotient, so the max is exact.  The others are
    evaluated with the dense formula.  Smooth data leaves a few block pairs
    near the diagonal; the worst case (nothing pruned) is O(N^2) time.
    Bounds and pairs are built for _HOLDER_BLOCK points of rows at a time:
    O(_HOLDER_BLOCK N) memory.

    ValueError unless xs and g are finite 1-D arrays of one length and gamma
    is finite and > 0 (a NaN would drop pairs, gamma <= 0 reverse the bound).
    """
    xs, g = np.asarray(xs, dtype=float), np.asarray(g, dtype=float)
    if xs.ndim != 1 or xs.shape != g.shape:
        raise ValueError("holder_quotient: xs and g must be 1-D arrays of equal length")
    if not np.all(np.isfinite(xs)):
        raise ValueError("holder_quotient: xs must be finite")
    if not np.all(np.isfinite(g)):
        raise ValueError("holder_quotient: g must be finite")
    if not (np.isfinite(gamma) and gamma > 0):
        raise ValueError(f"holder_quotient: gamma must be finite and > 0, got {gamma!r}")
    n = len(xs)
    if n < 2:
        return 0.0
    # repeating the last point adds only pairs the dense max already has
    order = np.pad(np.argsort(xs, kind="stable"), (0, -n % _HOLDER_LEAF), mode="edge")
    x, v = xs[order].reshape(-1, _HOLDER_LEAF), g[order].reshape(-1, _HOLDER_LEAF)
    blocks = np.arange(len(x))
    lo, hi = x[:, 0], x[:, -1]
    imin, imax = v.argmin(axis=1), v.argmax(axis=1)
    xmin, gmin = x[blocks, imin], v[blocks, imin]
    xmax, gmax = x[blocks, imax], v[blocks, imax]
    step = _HOLDER_BLOCK // _HOLDER_LEAF
    rows = [slice(i, i + step) for i in range(0, len(x), step)]
    # argmin_I with argmax_J over all ordered (I, J) is both extreme-value pairs of I <= J
    best = np.max([_block_pair_max(xmin[None, r], gmin[None, r], xmax[None, :], gmax[None, :],
                                   gamma) for r in rows])
    for r in rows:
        gap = lo[None, :] - hi[r, None]
        apart = gap > 1e-300
        num = np.maximum(gmax[None, :] - gmin[r, None], gmax[r, None] - gmin[None, :])
        bound = num / np.where(apart, gap, 1.0) ** gamma * (1.0 + 1e-12)
        bi, bj = np.nonzero((blocks[None, :] >= blocks[r, None]) & ~(apart & (bound <= best)))
        bi += r.start
        best = np.maximum(best, _block_pair_max(x[bi], v[bi], x[bj], v[bj], gamma))
    return float(best)


def _block_pair_max(x_rows, g_rows, x_cols, g_cols, gamma):
    """max |g_i - g_j| / |x_i - x_j|^gamma over i in row k and j in column k of
    (K, a) and (K, b) arrays, pairs with |x_i - x_j| <= 1e-300 skipped (0 if
    none).  A NaN quotient propagates, as in the dense max."""
    dist = x_rows[:, :, None] - x_cols[:, None, :]
    np.abs(dist, out=dist)
    apart = dist > 1e-300
    diff = g_rows[:, :, None] - g_cols[:, None, :]
    np.abs(diff, out=diff)
    dist **= gamma
    np.divide(diff, dist, out=diff, where=apart)
    return float(np.max(diff, where=apart, initial=0.0))


@dataclass
class NormReport:
    order: int
    holder_exponent: float
    sup_u: float
    sup_derivatives: list
    holder_seminorm: float
    data_norm: float
    ratio: float


def interior_norm_report(xs, u, gamma_total, sub_mask, data_norm) -> NormReport:
    """C^{m, gamma} norms by divided differences on a uniform 1-D grid.

    m = floor(gamma_total), gamma = gamma_total - m; derivatives are
    np.gradient(., h, edge_order=2), h the grid step.  [D^m u]_gamma is
    holder_quotient over the nodes of sub_mask: the exact all-pairs max,
    pruned by block bounds, O(N^2) time at worst and O(_HOLDER_BLOCK N)
    memory.  The ratio is
    (sup |u| + sup |D^m u| + [D^m u]_gamma) / data_norm.

    ValueError for fewer than 3 nodes, a u or sub_mask not of the shape of
    xs, a sub_mask that is not boolean (an integer array would index
    nodes), a grid that is not uniform (the rule of `semigroup.x_operator`
    in 2-D, `_uniform_step`) or a sub_mask of fewer than 2 nodes.
    """
    xs = np.asarray(xs, dtype=float)
    u = np.asarray(u, dtype=float)
    m = int(np.floor(gamma_total))
    gam = gamma_total - m
    if not 0.0 < gam < 1.0:
        raise ValueError("gamma_total must have fractional part in (0,1)")
    if len(xs) < 3:
        raise ValueError(f"interior_norm_report needs at least 3 nodes, got {len(xs)}")
    sub_mask = np.asarray(sub_mask)
    for name, a in (("u", u), ("sub_mask", sub_mask)):
        if a.shape != xs.shape:
            raise ValueError(f"interior_norm_report: {name} must have the shape of xs, "
                             f"{xs.shape}, got {a.shape}")
    if sub_mask.dtype != bool:
        raise ValueError(f"interior_norm_report: sub_mask must be a boolean mask, "
                         f"got dtype {sub_mask.dtype}")
    h = _uniform_step(xs, "xs", "interior_norm_report")
    if np.count_nonzero(sub_mask) < 2:
        raise ValueError("interior_norm_report: sub_mask needs 2 nodes for a Hoelder pair")
    derivs = [u]
    for _ in range(m):
        derivs.append(np.gradient(derivs[-1], h, edge_order=2))
    semi = holder_quotient(xs[sub_mask], derivs[-1][sub_mask], gam)
    sup_u = float(np.max(np.abs(u[sub_mask])))
    sups = [float(np.max(np.abs(dv[sub_mask]))) for dv in derivs[1:]]
    total = sup_u + sum(sups) + semi
    ratio = total / data_norm if data_norm > 0 else np.inf
    return NormReport(m, float(gam), sup_u, sups, semi, float(data_norm), float(ratio))

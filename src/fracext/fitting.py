"""Sup-norm (Chebyshev) linear fitting.

`sup_fit` solves the linear program min t subject to
|values_i - (basis @ c)_i| <= t for every row i with scipy's HiGHS backend,
but on an active set of rows instead of all 2m inequality rows at once
(Stiefel's exchange method).  The set starts from the rows where the
least-squares residual is most negative and most positive, k = 4(p + 1) of
each.  After each LP solve on the set, the residuals of its solution are
computed on all m rows: if no row outside the set exceeds the set's optimum t
by more than tol = 1e-12 max(1, max|values|), the solution is polished
(below) and returned, otherwise the k worst violators join the set and the
LP is solved again.

The LP on a subset of rows is a relaxation of the full one, so its optimum t
is at most the full optimum E_opt, and the returned error
max|values - basis @ c| <= t + tol <= E_opt + tol is a certificate, not an
estimate.  The set grows on every pass, so the loop ends, at worst with all
rows.  HiGHS works to absolute tolerances (primal feasibility 1e-7) and drops
matrix entries below 1e-9, so each LP is posed for the correction to the
least-squares fit, with unit-maximum basis columns and the least-squares
residual scaled to _LP_SCALE.  Even so, HiGHS can leave a row of the set a
few 1e-12 above t, so the final set's tight rows (nonzero duals) are solved
once more as equations, which holds them at the optimum to rounding.

Lawson's iteratively reweighted least squares serves method="lawson" and is
the fallback when any LP solve fails.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

_LP_SCALE = 1e6


def sup_fit(basis, values, method="lp", lawson_iters=8):
    """min over coefficients of max_i |values_i - (basis @ coeffs)_i|.

    basis: (m, p) design matrix.  Returns (coeffs, sup_error), where
    sup_error is the maximum residual of the returned coefficients.
    """
    basis = np.asarray(basis, dtype=float)
    values = np.asarray(values, dtype=float)
    if method == "lp":
        coeffs = _active_set_lp(basis, values)
        if coeffs is not None:
            return coeffs, float(np.max(np.abs(values - basis @ coeffs)))
    return _lawson(basis, values, lawson_iters)


def _active_set_lp(basis, values):
    """Minimax coefficients from LPs on a growing set of rows; None if an LP
    solve fails."""
    m, p = basis.shape
    k = 4 * (p + 1)
    tol = 1e-12 * max(1.0, float(np.max(np.abs(values))))
    lsq, *_ = np.linalg.lstsq(basis, values, rcond=None)
    r = values - basis @ lsq
    scale = float(np.max(np.abs(r)))
    if scale == 0.0:
        return lsq
    col = np.max(np.abs(basis), axis=0)
    col[col == 0.0] = 1.0
    unit = scale / _LP_SCALE
    Bs, rs = basis / col, r / unit
    if m <= 2 * k:
        rows = np.arange(m)
    else:
        order = np.argpartition(r, (k, m - k - 1))
        rows = np.union1d(order[:k], order[m - k:])
    c = np.zeros(p + 1)
    c[-1] = 1.0
    bounds = [(None, None)] * (p + 1)
    while True:
        B = Bs[rows]
        ones = np.ones((len(rows), 1))
        A = np.block([[B, -ones], [-B, -ones]])
        b = np.concatenate([rs[rows], -rs[rows]])
        res = linprog(c, A_ub=A, b_ub=b, bounds=bounds, method="highs")
        if not res.success:
            return None
        coeffs = lsq + res.x[:p] * unit / col
        excess = np.abs(values - basis @ coeffs) - (res.x[p] * unit + tol)
        excess[rows] = 0.0
        worst = np.argsort(excess)[-k:]
        worst = worst[excess[worst] > 0.0]
        if worst.size == 0:
            return _polish(basis, values, coeffs, lsq, unit / col, Bs[rows], rs[rows],
                           res.ineqlin.marginals)
        rows = np.union1d(rows, worst)


def _polish(basis, values, coeffs, lsq, step, B, r, duals):
    """Re-solve the final LP's tight rows (nonzero duals) as equations
    B_i y + sigma_i t = r_i, sigma_i = -1 in the first block and +1 in the
    second; the result is kept only if it lowers the sup error."""
    tight = np.flatnonzero(duals)
    sigma = np.where(tight < len(r), -1.0, 1.0)
    rows = tight % len(r)
    sol, *_ = np.linalg.lstsq(np.column_stack([B[rows], sigma]), r[rows], rcond=None)
    polished = lsq + sol[:-1] * step
    if (np.max(np.abs(values - basis @ polished))
            < np.max(np.abs(values - basis @ coeffs))):
        return polished
    return coeffs


def _lawson(basis, values, iters):
    """Lawson's algorithm: weighted LS with weights multiplicatively updated by
    the residual magnitudes converges to the Chebyshev fit."""
    m = basis.shape[0]
    w = np.full(m, 1.0 / m)
    coeffs = None
    for _ in range(max(1, iters)):
        sw = np.sqrt(w)
        coeffs, *_ = np.linalg.lstsq(basis * sw[:, None], values * sw, rcond=None)
        r = np.abs(values - basis @ coeffs)
        w = w * r
        tot = w.sum()
        if tot <= 0:
            break
        w /= tot
    return coeffs, float(np.max(np.abs(values - basis @ coeffs)))

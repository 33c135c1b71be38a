"""Sup-norm (Chebyshev) linear fitting.

`sup_fit` minimizes E = max_i |values_i - (basis @ c)_i| by Stiefel's exchange
(Numer. Math. 1 (1959) 1-28), the simplex method on the dual LP
max sum_i u_i r_i subject to B^T u = 0, sum_i |u_i| = 1.  It solves for the
correction y to the least-squares fit: r is the least-squares residual and B
the basis with unit-maximum columns, less the columns a pivoted QR finds
dependent, so B has full rank q.  A reference is q + 1 rows J with signs
sigma; with M = [B_J, sigma], M [y; h] = r_J levels the residual at sigma h on
J and M^T u = e_{q+1} gives the dual weights lambda = sigma u.  It starts from
q rows picked by a pivoted QR of B^T and the row of largest |r|, where the
null vector of B_J^T is lambda >= 0, signed so that h >= 0.  Each step prices
every row by one product B y: the worst row enters with its residual's sign
and the ratio test on lambda picks the row that leaves.  The signs are
carried, not read back from u, whose zero weights on degenerate references
(repeated rows) can flip them and cycle.

Every reference is dual feasible, so h <= E_opt by weak duality; the exchange
stops once max|r - B y| <= h + tol, tol = 1e-12 max(1, max|values|) (or
1e-12 max|r| when smaller), and the returned error is a certificate:
h <= E_opt <= E <= h + tol.  After _MAX_EXCHANGES steps one HiGHS LP over all
2m rows takes over, posed with the residual scaled to _LP_SCALE because
HiGHS's tolerances are absolute; if it fails, Lawson's iteratively reweighted
least squares answers, as it does for method="lawson".
"""

from __future__ import annotations

import sys

import numpy as np
from scipy.linalg import qr

_MAX_EXCHANGES = 100
_LP_SCALE = 1e6


def __getattr__(name):
    # `linprog` is imported on each lookup and never stored: importing fitting
    # skips scipy.optimize, and a patched `fitting.linprog` is what _full_lp calls
    if name == "linprog":
        from scipy.optimize import linprog
        return linprog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def sup_fit(basis, values, method="lp", lawson_iters=8):
    """min over coefficients of max_i |values_i - (basis @ coeffs)_i|.

    basis: (m, p) design matrix, values: m finite numbers.  Returns
    (coeffs, sup_error), where sup_error is the maximum residual of the
    returned coefficients.
    """
    basis = np.asarray(basis, dtype=float)
    values = np.asarray(values, dtype=float)
    if basis.ndim != 2:
        raise ValueError("basis must be a 2-D (m, p) array")
    if values.shape != (basis.shape[0],):
        raise ValueError(f"values must have shape ({basis.shape[0]},), got {values.shape}")
    if not (np.all(np.isfinite(basis)) and np.all(np.isfinite(values))):
        raise ValueError("basis and values must be finite")
    if method == "lp":
        coeffs = _minimax(basis, values)
        if coeffs is not None:
            return coeffs, float(np.max(np.abs(values - basis @ coeffs)))
    return _lawson(basis, values, lawson_iters)


def _minimax(basis, values):
    """Minimax coefficients: the exchange, else one full LP; None if the LP
    fails."""
    lsq, *_ = np.linalg.lstsq(basis, values, rcond=None)
    r = values - basis @ lsq
    col = np.max(np.abs(basis), axis=0)
    col[col == 0.0] = 1.0
    B = basis / col
    R, perm = qr(B, mode="r", pivoting=True)
    diag = np.abs(np.diag(R))
    rank = np.sum(diag > np.finfo(float).eps * max(B.shape) * np.max(diag, initial=0.0))
    keep = np.sort(perm[:rank])
    if np.max(np.abs(r)) == 0.0 or not 0 < keep.size < len(r):
        return lsq
    B = B[:, keep]
    tol = 1e-12 * min(max(1.0, float(np.max(np.abs(values)))), float(np.max(np.abs(r))))
    found = _exchange(B, r, tol)
    y = found[0] if found is not None else _full_lp(B, r)
    if y is None:
        return None
    coeffs = lsq.copy()
    coeffs[keep] += y / col[keep]
    return coeffs


def _exchange(B, r, tol):
    """Stiefel's exchange for min_y max|r - B y| with B of full column rank q
    and more than q rows.  Returns (y, h), h the dual lower bound with
    max|r - B y| <= h + tol, or None after _MAX_EXCHANGES steps."""
    q = B.shape[1]
    rows = qr(B.T, mode="r", pivoting=True)[1][:q]
    mag = np.abs(r)
    mag[rows] = -1.0
    J = np.append(rows, np.argmax(mag))
    u = np.append(-np.linalg.solve(B[rows].T, B[J[-1]]), 1.0)
    if u @ r[J] < 0.0:
        u = -u
    sigma = np.where(u >= 0.0, 1.0, -1.0)
    for _ in range(_MAX_EXCHANGES):
        Minv = np.linalg.inv(np.column_stack([B[J], sigma]))
        yh = Minv @ r[J]
        e = r - B @ yh[:q]
        k = np.argmax(np.abs(e))
        if abs(e[k]) <= yh[q] + tol:
            return yh[:q], yh[q]
        sk = 1.0 if e[k] > 0.0 else -1.0
        lam = np.maximum(sigma * Minv[q], 0.0)
        d = sigma * (Minv.T @ np.append(sk * B[k], 1.0))
        # d sums to 1; leaving on a pivot below 1e-12 would make M near singular
        ratio = np.where(d > 1e-12, lam / np.where(d > 1e-12, d, 1.0), np.inf)
        leave = np.argmax(np.where(ratio <= ratio.min(), d, -np.inf))
        J[leave], sigma[leave] = k, sk
    return None


def _full_lp(B, r):
    """min_y max|r - B y| as one HiGHS LP over all 2m rows, with r scaled to
    max |r| = _LP_SCALE; None if the solve fails."""
    m, q = B.shape
    unit = float(np.max(np.abs(r))) / _LP_SCALE
    cost = np.zeros(q + 1)
    cost[-1] = 1.0
    ones = np.ones((m, 1))
    linprog = sys.modules[__name__].linprog
    res = linprog(cost, A_ub=np.block([[B, -ones], [-B, -ones]]),
                  b_ub=np.concatenate([r, -r]) / unit, bounds=[(None, None)] * (q + 1),
                  method="highs")
    return res.x[:q] * unit if res.success else None


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

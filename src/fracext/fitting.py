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
1e-12 max|r| when smaller) but at least 8 (p + 1) eps max|values| for p
columns, a bound of the returned residual's rounding, so the returned error
is a certificate at every scale: h <= E_opt <= E <= h + tol.  After
_MAX_EXCHANGES steps, or at a reference whose M is singular, the fit raises
a ValueError naming the row count and the gap E - h it reached: a fit that
is not the minimax fit is never returned.
The bases the package builds have not been seen to stall; high-degree
Vandermonde bases on repeated abscissae can.

`sup_fitter(basis)` is that fit as a function of the values: the basis checks,
the column scaling and both pivoted QRs depend on the basis alone and run once
for all the value vectors it fits.  `sup_fit` is `sup_fitter(basis)(values)`.
The basis work runs on a column-major copy of the basis, so column maxima and
scaling run along memory and LAPACK factors a Fortran-ordered copy in place;
the exchange's B is column-major, as the products B y read it.  Counts obs
fitting.bases per `sup_fitter` call and fitting.fits, fitting.fit_rows and
fitting.exchange_steps (reference exchanges made) per fit.
"""

from __future__ import annotations

import numpy as np

from . import obs

_MAX_EXCHANGES = 100


def __getattr__(name):
    # the benchmark tracer looks `linprog` up here by name to wrap it; no fit
    # calls it.  It is imported on each lookup and never stored, so importing
    # fitting skips scipy.optimize
    if name == "linprog":
        from scipy.optimize import linprog
        return linprog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def sup_fit(basis, values, method="lp"):
    """min over coefficients of max_i |values_i - (basis @ coeffs)_i|.

    basis: (m, p) design matrix, values: m finite numbers.  Returns
    (coeffs, sup_error), where sup_error is the maximum residual of the
    returned coefficients.  "lp" is the only method; any other raises
    ValueError, as does a fit whose exchange stalls.
    """
    if method != "lp":
        raise ValueError(f"unknown sup_fit method {method!r}: the only method is 'lp'")
    return sup_fitter(basis)(values)


def sup_fitter(basis):
    """fit(values) -> sup_fit(basis, values), bit for bit.

    The work on the basis alone is done here, once for every values vector
    fit is given: its checks, the column scaling, the rank-revealing pivoted
    QR and the exchange's starting rows.
    """
    basis = np.asarray(basis, dtype=float)
    if basis.ndim != 2 or not basis.shape[0]:
        raise ValueError(f"basis must be a 2-D (m, p) array with m >= 1 rows, "
                         f"got shape {basis.shape}")
    if not np.all(np.isfinite(basis)):
        raise ValueError("basis and values must be finite")
    obs.count("fitting.bases")
    m, p = basis.shape
    # row j of Bt is column j of the basis: a copy even where basis.T is
    # contiguous already, so the scaling never writes to the caller's basis
    Bt = basis.T.copy()
    col = np.max(np.abs(Bt), axis=1)
    col[col == 0.0] = 1.0
    Bt /= col[:, None]
    _, R, perm = _pivoted_qr(Bt.T)
    diag = np.abs(np.diag(R))
    rank = np.sum(diag > np.finfo(float).eps * max(Bt.shape) * np.max(diag, initial=0.0))
    keep = np.sort(perm[:rank])
    B = Bt[keep].T
    # the exchange starts from the rows a pivoted QR of B^T ranks first
    rows = _pivoted_qr(B.T)[2][:rank] if 0 < rank < m else None

    def fit(values):
        values = np.asarray(values, dtype=float)
        if values.shape != (m,):
            raise ValueError(f"values must have shape ({m},), got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("basis and values must be finite")
        obs.count("fitting.fits")
        obs.count("fitting.fit_rows", m)
        coeffs, *_ = np.linalg.lstsq(basis, values, rcond=None)
        r = values - basis @ coeffs
        if np.max(np.abs(r)) > 0.0 and rows is not None:
            top = float(np.max(np.abs(values)))
            tol = max(1e-12 * min(max(1.0, top), float(np.max(np.abs(r)))),
                      8 * (p + 1) * np.finfo(float).eps * top)
            coeffs[keep] += _exchange(B, r, tol, rows)[0] / col[keep]
        return coeffs, float(np.max(np.abs(values - basis @ coeffs)))

    return fit


def _pivoted_qr(a):
    """scipy's ((qr, tau), R, jpvt) for a, from LAPACK's pivoted QR of a
    Fortran-ordered copy of a, which it overwrites (a is finite)."""
    from scipy.linalg import qr

    return qr(np.array(a, order="F"), mode="raw", pivoting=True, check_finite=False,
              overwrite_a=True)


def _exchange(B, r, tol, rows):
    """Stiefel's exchange for min_y max|r - B y| with B of full column rank q
    and more than q rows, started from the q independent rows `rows`.
    Returns (y, h), h the dual lower bound with max|r - B y| <= h + tol.
    Raises ValueError naming the rows and the gap max|r - B y| - h of the
    last reference after _MAX_EXCHANGES steps or at a singular reference."""
    q = B.shape[1]
    mag = np.abs(r)
    gap = float(np.max(mag))  # y = 0 against the bound h = 0
    mag[rows] = -1.0
    J = np.append(rows, np.argmax(mag))
    u = np.append(-np.linalg.solve(B[rows].T, B[J[-1]]), 1.0)
    if u @ r[J] < 0.0:
        u = -u
    sigma = np.where(u >= 0.0, 1.0, -1.0)
    stall = f"after {_MAX_EXCHANGES} exchanges"
    for step in range(_MAX_EXCHANGES):
        try:
            Minv = np.linalg.inv(np.column_stack([B[J], sigma]))
        except np.linalg.LinAlgError:
            stall = "at a singular reference"
            break
        yh = Minv @ r[J]
        e = r - B @ yh[:q]
        k = np.argmax(np.abs(e))
        if abs(e[k]) <= yh[q] + tol:
            obs.count("fitting.exchange_steps", step)
            return yh[:q], yh[q]
        gap = float(abs(e[k]) - yh[q])
        sk = 1.0 if e[k] > 0.0 else -1.0
        lam = np.maximum(sigma * Minv[q], 0.0)
        d = sigma * (Minv.T @ np.append(sk * B[k], 1.0))
        # d sums to 1; leaving on a pivot below 1e-12 would make M near singular
        ratio = np.where(d > 1e-12, lam / np.where(d > 1e-12, d, 1.0), np.inf)
        leave = np.argmax(np.where(ratio <= ratio.min(), d, -np.inf))
        J[leave], sigma[leave] = k, sk
    else:
        step = _MAX_EXCHANGES
    obs.count("fitting.exchange_steps", step)
    raise ValueError(f"sup-norm fit over {len(r)} rows: the exchange stalled {stall}, "
                     f"gap {gap:.3g} > tol {tol:.3g}")

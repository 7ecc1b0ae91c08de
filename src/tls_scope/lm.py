"""Damped Gauss-Newton (Levenberg-Marquardt) least squares.

Minimal implementation for the small, well-conditioned fits in this
package (3-4 parameters, analytic Jacobians).  The damping parameter
follows the classic schedule: multiply by 10 on a rejected step, divide
by 10 on an accepted one.  :func:`lm_batch` is the one LM loop: it runs
many independent problems in lockstep (every trace of a dataset, or the
two sign starts of the coupled-pair fit) and flags, rather than raises,
a problem that does not converge.
"""

from __future__ import annotations

import numpy as np

#: Initial damping and the factor of its schedule.
LAM0 = 1e-3
LAM_FACTOR = 10.0
#: Iterations before a problem counts as not converged.
MAX_ITER = 200
#: Convergence: gradient max <= GTOL * max(1, chi2), relative step <= XTOL,
#: or chi2 falls by <= FTOL * chi2.
GTOL = 1e-12
XTOL = 1e-12
FTOL = 1e-14


def lm_batch(residuals, jacobian, x0, weights, lengths):
    """Minimize sum(w * r(x)^2) for m independent problems in lockstep.

    ``x0`` is (m, p), ``weights`` (m, n); problem i uses its first
    ``lengths[i]`` points.  ``residuals(x, rows)``/``jacobian(x, rows)``
    give the (k, n) residuals (data - model) and their (k, n, p)
    derivatives of problems ``rows``.  Each problem
    takes its one-problem steps bit for bit: sums and normal equations run
    per run of equal lengths (sort by length to keep runs few).  Returns
    params, covariance s^2 (J^T W J)^-1 with s^2 = chi2 / (n - p) (NaN
    unless converged, and NaN where J^T W J is singular), chi2, n_iter and
    converged, per problem.  A problem whose chi2 at ``x0`` is not finite
    runs no iteration and does not converge.
    """
    x, w, n = np.array(x0, dtype=float), np.asarray(weights, dtype=float), np.asarray(lengths)
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    m, p = x.shape
    r = residuals(x, np.arange(m))
    chi2 = _chi2(w, r, n)
    lam, n_iter, converged = np.full(m, LAM0), np.zeros(m, dtype=int), np.zeros(m, dtype=bool)
    active, diag = np.flatnonzero(np.isfinite(chi2)), np.arange(p)
    for it in range(1, MAX_ITER + 1):
        if not active.size:
            break
        n_iter[active] = it
        a, grad = _normal_equations(jacobian(x[active], active), w[active], r[active], n[active])
        # np.fmax(1.0, nan) is 1.0, as the builtin max(1.0, nan) is.
        small = np.abs(grad).max(axis=1) <= GTOL * np.fmax(1.0, chi2[active])
        converged[active[small]] = True
        rows, a, neg_grad = active[~small], a[~small], -grad[~small]
        scale = np.zeros_like(a)
        scale[:, diag, diag] = np.clip(a[:, diag, diag], 1e-30, None)
        trying, stop = np.ones(rows.size, dtype=bool), np.zeros(rows.size, dtype=bool)
        for _ in range(50):
            if not (t := np.flatnonzero(trying)).size:
                break
            # A singular row's NaN step is rejected: more damping, next try.
            step = _each(lambda a, b: np.linalg.solve(a, b[..., None])[..., 0],
                         a[t] + lam[rows[t], None, None] * scale[t], neg_grad[t])
            x_try = x[rows[t]] + step
            r_try = residuals(x_try, rows[t])
            c_try = _chi2(w[rows[t]], r_try, n[rows[t]])
            good = np.isfinite(c_try) & (c_try <= chi2[rows[t]])
            lam[rows[t[~good]]] *= LAM_FACTOR
            t, g, c_new = t[good], rows[t[good]], c_try[good]
            dx = np.abs(step[good]).max(axis=1) / np.maximum(np.abs(x[g]).max(axis=1), 1e-30)
            stop[t] = (dx <= XTOL) | (chi2[g] - c_new <= FTOL * np.maximum(c_new, 1e-300))
            x[g], r[g], chi2[g], trying[t] = x_try[good], r_try[good], c_new, False
            lam[g] = np.maximum(lam[g] / LAM_FACTOR, 1e-14)
        converged[rows[trying | stop]] = True  # still trying: damping exhausted
        active = rows[~(trying | stop)]

    cov = np.full((m, p, p), np.nan)
    if (done := np.flatnonzero(converged)).size:
        a, _ = _normal_equations(jacobian(x[done], done), w[done], r[done], n[done])
        s2 = chi2[done] / np.maximum(n[done] - p, 1)
        cov[done] = _each(np.linalg.inv, a) * s2[:, None, None]
    return x, cov, chi2, n_iter, converged


def _runs(n) -> list[tuple[slice, int]]:
    """(rows, length) of each run of equal lengths in ``n``."""
    cuts = [0, *(np.flatnonzero(np.diff(n)) + 1).tolist(), len(n)]
    return [(slice(lo, hi), int(n[lo])) for lo, hi in zip(cuts, cuts[1:]) if hi > lo]


def _chi2(w, r, n) -> np.ndarray:
    """Sum of w * r^2 of each row over its first ``n`` points; one that
    overflows is inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        v = w * r * r
        return np.concatenate([v[s, :k].sum(axis=1) for s, k in _runs(n)])


def _normal_equations(jac, w, r, n):
    """J^T W J and J^T W r of each row, over its first ``n`` points."""
    a, grad = np.empty(jac.shape[:1] + jac.shape[2:] * 2), np.empty(jac.shape[::2])
    for s, k in _runs(n):
        jtw = jac[s, :k].transpose(0, 2, 1) * w[s, None, :k]
        a[s], grad[s] = jtw @ jac[s, :k], (jtw @ r[s, :k, None])[..., 0]
    return a, grad


def _each(fn, *stacks):
    """``fn`` on stacked rows, or row by row with NaN where a row is singular.

    A singular row's NaN result has the shape of its row of the last stack,
    which is the shape of ``fn``'s result for the solves and inverses here.
    """
    try:
        return fn(*stacks)
    except np.linalg.LinAlgError:
        out = []
        for row in zip(*stacks):
            try:
                out.append(fn(*row))
            except np.linalg.LinAlgError:
                out.append(np.full_like(row[-1], np.nan))
        return np.array(out)

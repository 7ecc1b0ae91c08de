"""Damped Gauss-Newton (Levenberg-Marquardt) least squares.

Minimal implementation for the small, well-conditioned fits in this
package (3-4 parameters, analytic Jacobians).  The damping parameter
follows the classic schedule: multiply by 10 on a rejected step, divide
by 10 on an accepted one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NoConvergence

#: Initial damping and the factor of its schedule.
LAM0 = 1e-3
LAM_FACTOR = 10.0


@dataclass
class LmResult:
    """Outcome of an LM minimization.

    ``covariance`` is the scaled parameter covariance
    s^2 * (J^T W J)^-1 with s^2 = chi^2 / (n_points - n_params); the
    scaling makes the reported uncertainties track the actual residual
    scatter when the supplied weights are only relative.
    """

    params: np.ndarray
    covariance: np.ndarray
    chi2: float
    n_iter: int
    cost_history: list[float] = field(default_factory=list)

    @property
    def param_sigma(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))


def lm_fit(
    residuals: Callable[[np.ndarray], np.ndarray],
    jacobian: Callable[[np.ndarray], np.ndarray],
    x0,
    weights=None,
    max_iter: int = 200,
    gtol: float = 1e-12,
    xtol: float = 1e-12,
    ftol: float = 1e-14,
) -> LmResult:
    """Minimize sum(w * r(x)^2) over x.

    Parameters
    ----------
    residuals : callable
        Maps parameters to the residual vector (data - model).
    jacobian : callable
        Maps parameters to d(residual)/d(params), shape (n, p).
        Residual convention: rows are d(data - model)/dx = -d(model)/dx.
    x0 : array_like
        Starting point.
    weights : array_like, optional
        Per-point weights w_i (inverse variances up to a common factor).

    Raises
    ------
    NoConvergence
        If ``max_iter`` iterations pass without meeting any tolerance.
    """
    x = np.asarray(x0, dtype=float).copy()
    n_params = x.size
    r = residuals(x)
    w = np.ones_like(r) if weights is None else np.asarray(weights, dtype=float)
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    chi2 = float(np.sum(w * r * r))
    lam = LAM0
    history = [chi2]
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        jac = jacobian(x)
        jtw = jac.T * w
        a = jtw @ jac
        grad = jtw @ r
        if np.abs(grad).max() <= gtol * max(1.0, chi2):
            converged = True
            break
        scale = np.diag(np.clip(np.diag(a), 1e-30, None))
        neg_grad = -grad
        accepted = False
        for _ in range(50):
            try:
                step = np.linalg.solve(a + lam * scale, neg_grad)
            except np.linalg.LinAlgError:
                lam *= LAM_FACTOR
                continue
            x_new = x + step
            r_new = residuals(x_new)
            chi2_new = float(np.sum(w * r_new * r_new))
            if np.isfinite(chi2_new) and chi2_new <= chi2:
                accepted = True
                break
            lam *= LAM_FACTOR
        if not accepted:
            converged = True  # damping exhausted: already at a minimum
            break
        dx = np.abs(step).max() / max(np.abs(x).max(), 1e-30)
        dchi = chi2 - chi2_new
        x, r, chi2 = x_new, r_new, chi2_new
        history.append(chi2)
        lam = max(lam / LAM_FACTOR, 1e-14)
        if dx <= xtol or dchi <= ftol * max(chi2, 1e-300):
            converged = True
            break
    if not converged:
        raise NoConvergence(f"no convergence after {max_iter} iterations")

    jac = jacobian(x)
    jtw = jac.T * w
    a = jtw @ jac
    dof = max(r.size - n_params, 1)
    s2 = chi2 / dof
    try:
        cov = np.linalg.inv(a) * s2
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(a) * s2
    return LmResult(params=x, covariance=cov, chi2=chi2, n_iter=it, cost_history=history)

"""Hyperbolic resonance-curve fitting.

A TLS tuned by one control voltage V traces

    f(V) = sqrt(Delta0^2 + (eps_i + gamma*V)^2)

in swap-spectroscopy data.  :func:`fit_hyperbolas` is the one fit, of
one trace or of many, on one zero-padded batch of every trace in length
order: a stacked least-squares solve of f^2 as a quadratic in V per run
of equal lengths gives the starts, and one lockstep LM with the analytic
Jacobian refines every hyperbolic row.  A trace whose f^2 is flat within
the noise (or that has fewer than three distinct biases), curves down,
or has its minimum at or below zero is no hyperbola and gets a
``DegenerateTrace``.  The model is blind to the sign of Delta0 and to
the joint flip (eps_i, gamma) -> (-eps_i, -gamma); fits are
canonicalized to Delta0 >= 0 and gamma >= 0.  Delta0 is the fitted
value whether or not the sweep reached the vertex; its sigma from the
covariance says how well the trace determines it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateTrace, NoConvergence
from .lm import _chi2, _runs, lm_batch

#: Fewest points of a fittable trace: three parameters and two degrees
#: of freedom.
MIN_POINTS = 5


@dataclass(frozen=True)
class TraceFit:
    """Result of fitting one resonance trace against one control.

    ``covariance`` is the scaled 3x3 covariance of (delta0, eps_at_zero,
    gamma); ``residual_rms`` is the rms frequency residual [GHz].
    """

    delta0: float
    eps_at_zero: float
    gamma: float
    covariance: np.ndarray
    residual_rms: float
    n_points: int

    @cached_property
    def sigma(self) -> np.ndarray:
        """1-sigma uncertainties of (delta0, eps_at_zero, gamma)."""
        return np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))


#: Why a trace has no hyperbolic start, in the order the checks run.
_NOT_A_HYPERBOLA = (
    "trace has no significant bias dependence; gamma unidentifiable",
    "f^2 curves down along the bias; not a hyperbola",
    "f^2 has its minimum at or below zero; not a hyperbola",
)


def _quadratic_starts(volts, freqs, weights) -> list:
    """Start values from the linearized model f^2 = quadratic(V).

    ``volts``, ``freqs`` and ``weights`` are (m, k): m traces of k points.
    Each row is a weighted least-squares fit of f^2 to (u^2, u, 1), with
    u the bias scaled to [-1, 1], solved by one stacked QR.  Returns per
    row the start (delta0, eps_i, gamma) or the :class:`DegenerateTrace`
    that says why there is none; a row's result does not depend on the
    other rows.  A rank-deficient design (fewer than three distinct
    biases of nonzero weight, e.g. a constant bias) has no significant
    bias dependence.
    """
    k = volts.shape[1]
    v0 = volts.mean(axis=1)
    scale = np.maximum(volts.max(axis=1) - volts.min(axis=1), 1e-30) / 2.0
    u = (volts - v0[:, None]) / scale[:, None]
    sqrt_w = np.sqrt(weights)
    q, r = np.linalg.qr(np.stack((u * u, u, np.ones_like(u)), axis=-1) * sqrt_w[..., None])
    pivots = np.abs(np.diagonal(r, axis1=1, axis2=2))
    full_rank = pivots.min(axis=1) > k * np.finfo(float).eps * pivots.max(axis=1)
    rhs = q[full_rank].transpose(0, 2, 1) @ (sqrt_w * freqs**2)[full_rank, :, None]
    coeffs = np.full((volts.shape[0], 3), np.nan)
    coeffs[full_rank] = np.linalg.solve(r[full_rank], rhs)[..., 0]

    a, b, c = coeffs.T
    fitted = (a[:, None] * u + b[:, None]) * u + c[:, None]  # Horner, as np.polyval
    rms = np.sqrt(np.mean((freqs**2 - fitted) ** 2, axis=1))
    flat = ~(np.ptp(fitted, axis=1) > 3.0 * rms)  # NaN coefficients count as flat
    curves_down = ~(a > 0)
    gamma_u = np.sqrt(np.where(curves_down, 1.0, a))
    eps_u = b / (2.0 * gamma_u)
    delta0_sq = c - eps_u**2
    why = np.select([flat, curves_down, ~(delta0_sq > 0)], [0, 1, 2], -1)
    gamma = gamma_u / scale
    starts = np.stack((np.sqrt(np.where(why < 0, delta0_sq, 1.0)), eps_u - gamma * v0, gamma),
                      axis=-1)
    return [DegenerateTrace(_NOT_A_HYPERBOLA[j]) if j >= 0 else x
            for j, x in zip(why.tolist(), starts)]


def fit_hyperbolas(traces) -> list:
    """Fit (Delta0, eps_i, gamma) to each trace of resonance points along
    one control.

    Parameters
    ----------
    traces : sequence of (volts, freqs, weights)
        Bias voltages [V], resonance frequencies [GHz] and relative
        inverse-variance weights, one weight per point and at least
        :data:`MIN_POINTS` points.  The reported covariance is rescaled
        by chi^2/dof, so only the relative weighting matters.

    Returns per trace a :class:`TraceFit`, or the :class:`DegenerateTrace`
    if the points carry no significant bias dependence or their f^2 is no
    upward parabola in V with a positive minimum, or the
    :class:`NoConvergence` if the refinement stalls (rare once the start
    is a hyperbola) or ends where J^T W J is singular, so without a
    covariance.  A trace's result does not depend on the other traces:
    the starts, the LM's sums and the residual rms run per run of equal
    lengths of the one padded batch.

    Raises
    ------
    ValueError
        If a trace's arrays are not 1-d of equal length, hold fewer than
        :data:`MIN_POINTS` points, or its weights are not one
        non-negative value per point.
    """
    out: list = [None] * len(traces)
    # One zero-padded (volts, freqs, weights) batch in length order.
    n = np.array([np.size(t[1]) for t in traces], dtype=int)
    order = np.argsort(n, kind="stable")
    n = n[order]
    batch = np.zeros((3, n.size, n.max(initial=0)))
    for j, i in enumerate(order.tolist()):
        v, f, w = traces[i]
        v, f = np.asarray(v, dtype=float), np.asarray(f, dtype=float)
        if v.shape != f.shape or v.ndim != 1:
            raise ValueError("volts and freqs must be 1-d arrays of equal length")
        if v.size < MIN_POINTS:
            raise ValueError(f"need at least {MIN_POINTS} points to fit a hyperbola")
        w = np.asarray(w, dtype=float)
        if w.shape != f.shape or np.any(w < 0):
            raise ValueError("weights must be one non-negative value per point")
        batch[:, j, :n[j]] = v, f, w
    x0, hyperbolic = np.empty((n.size, 3)), np.ones(n.size, dtype=bool)
    for rows, k in _runs(n):
        for j, start in enumerate(_quadratic_starts(*batch[:, rows, :k]), rows.start):
            if isinstance(start, DegenerateTrace):
                out[order[j]], hyperbolic[j] = start, False
            else:
                x0[j] = start
    if not hyperbolic.any():
        return out
    # The LM gets the hyperbolic rows, padded to the longest of them.
    order, n = order[hyperbolic], n[hyperbolic]
    volts, freqs, weights = batch[:, hyperbolic, :n[-1]]

    def jacobian(x, sub):
        v = volts[sub]
        eps, f = _hyperbola(x, v)
        jac = np.stack((x[:, :1] / f, eps / f, eps * v / f), axis=-1)
        return np.negative(jac, out=jac)

    params, cov, _, n_iter, converged = lm_batch(
        lambda x, sub: freqs[sub] - _hyperbola(x, volts[sub])[1],
        jacobian, x0[hyperbolic], weights, n,
    )
    # Canonical signs, Delta0 >= 0 and gamma >= 0, to which the model is
    # blind; the covariance is reflected with the parameters.
    flip = np.where(np.signbit(params), -1.0, 1.0)[:, [0, 2, 2]]
    params *= flip
    cov *= flip[:, :, None] * flip[:, None, :]
    rms = np.sqrt(_chi2(1.0, freqs - _hyperbola(params, volts)[1], n) / n)
    for j, i in enumerate(order.tolist()):
        if not converged[j]:
            out[i] = NoConvergence(f"no convergence after {n_iter[j]} iterations")
        elif not np.isfinite(cov[j]).all():
            out[i] = NoConvergence("J^T W J is singular at the solution: no covariance")
        else:
            out[i] = TraceFit(*params[j].tolist(), covariance=cov[j],
                              residual_rms=float(rms[j]), n_points=int(n[j]))
    return out


def _hyperbola(x, volts):
    """(eps, f) = (eps_i + gamma*V, hypot(Delta0, eps)) of rows ``x`` on ``volts``."""
    eps = x[:, 1:2] + x[:, 2:] * volts
    return eps, np.hypot(x[:, :1], eps)

"""Hyperbolic resonance-curve fitting.

A TLS tuned by one control voltage V traces

    f(V) = sqrt(Delta0^2 + (eps_i + gamma*V)^2)

in swap-spectroscopy data.  The fit linearizes f^2 as a quadratic in V
for the starting point, one stacked least-squares solve for all traces
of a length, and refines with damped Gauss-Newton using the analytic
Jacobian, all traces of a dataset in one lockstep LM.  A trace whose f^2
is flat within the noise (or that has fewer than three distinct biases),
curves down, or has its minimum at or below zero is no hyperbola and
raises ``DegenerateTrace``.  The model is blind to the joint sign flip
(eps_i, gamma) -> (-eps_i, -gamma); fits are canonicalized to gamma >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTrace, NoConvergence
from .lm import _runs, lm_batch

#: Fewest points of a fittable trace: three parameters and two degrees
#: of freedom.
MIN_POINTS = 5


@dataclass(frozen=True)
class TraceFit:
    """Result of fitting one resonance trace against one control.

    ``covariance`` is the scaled 3x3 covariance of (delta0, eps_at_zero,
    gamma); ``residual_rms`` is the rms frequency residual [GHz].
    ``delta0_lower_bound_only`` is set when the hyperbola vertex falls
    outside the observed bias window; the symmetry point was not actually
    reached, so ``delta0`` is an extrapolated bound rather than a
    measurement.
    """

    delta0: float
    eps_at_zero: float
    gamma: float
    covariance: np.ndarray
    residual_rms: float
    n_points: int
    delta0_lower_bound_only: bool

    @property
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


def fit_hyperbola(volts, freqs, weights=None) -> TraceFit:
    """Fit (Delta0, eps_i, gamma) to resonance points along one control.

    Parameters
    ----------
    volts, freqs : array_like
        Bias voltages [V] and resonance frequencies [GHz], at least
        :data:`MIN_POINTS` points.
    weights : array_like, optional
        Relative inverse-variance weights; defaults to uniform.  The
        reported covariance is rescaled by chi^2/dof, so only the
        relative weighting matters.

    Raises
    ------
    DegenerateTrace
        If the points carry no significant bias dependence, or their f^2
        is no upward parabola in V with a positive minimum.
    NoConvergence
        If the refinement stalls (rare once the start is a hyperbola), or
        ends where the covariance is singular.
    ValueError
        If the arrays are not 1-d of equal length, hold fewer than
        :data:`MIN_POINTS` points, or a weight is negative.
    """
    (outcome,) = fit_hyperbolas([(volts, freqs, weights)])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def fit_hyperbolas(traces) -> list:
    """:func:`fit_hyperbola` on each (volts, freqs, weights) of ``traces``.

    Returns per trace the same :class:`TraceFit`, bit for bit, or the
    :class:`DegenerateTrace` or :class:`NoConvergence` it would raise; a
    fit that converges where J^T W J is singular has no covariance and is
    a :class:`NoConvergence` too.
    Every trace with a hyperbolic start runs in one lockstep LM, sorted
    by length and padded to the longest.
    """
    out: list = [None] * len(traces)
    checked = []
    for i in np.argsort([np.size(t[1]) for t in traces], kind="stable").tolist():
        v, f, w = traces[i]
        v, f = np.asarray(v, dtype=float), np.asarray(f, dtype=float)
        if v.shape != f.shape or v.ndim != 1:
            raise ValueError("volts and freqs must be 1-d arrays of equal length")
        if v.size < MIN_POINTS:
            raise ValueError(f"need at least {MIN_POINTS} points to fit a hyperbola")
        w = np.ones_like(f) if w is None else np.asarray(w, dtype=float)
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
        checked.append((i, v, f, w))
    if not checked:
        return out
    data, x0 = [], []
    for rows, _k in _runs([f.size for _i, _v, f, _w in checked]):
        run = checked[rows]
        _i, *columns = zip(*run)
        for trace, start in zip(run, _quadratic_starts(*map(np.array, columns))):
            if isinstance(start, DegenerateTrace):
                out[trace[0]] = start
            else:
                data.append(trace)
                x0.append(start)
    if not data:
        return out
    n = [f.size for _i, _v, f, _w in data]
    volts, freqs, weights = np.zeros((3, len(data), n[-1]))
    for j, (_i, v, f, w) in enumerate(data):
        volts[j, :v.size], freqs[j, :v.size], weights[j, :v.size] = v, f, w

    def jacobian(x, sub):
        v = volts[sub]
        eps = x[:, 1:2] + x[:, 2:] * v
        f = np.hypot(x[:, :1], eps)
        jac = np.stack((x[:, :1] / f, eps / f, eps * v / f), axis=-1)
        return np.negative(jac, out=jac)

    params, cov, _chi2, n_iter, converged = lm_batch(
        lambda x, sub: freqs[sub] - np.hypot(x[:, :1], x[:, 1:2] + x[:, 2:] * volts[sub]),
        jacobian, np.array(x0), weights, n,
    )
    for j, (i, v, f, _w) in enumerate(data):
        if not converged[j]:
            out[i] = NoConvergence(f"no convergence after {n_iter[j]} iterations")
        elif not np.isfinite(cov[j]).all():
            out[i] = NoConvergence("J^T W J is singular at the solution: no covariance")
        else:
            out[i] = _trace_fit(v, f, params[j], cov[j])
    return out


def _trace_fit(volts, freqs, x, cov) -> TraceFit:
    d0, eps_i, gamma = x
    if gamma < 0:
        # Canonical sign: the model is invariant under the joint flip.
        eps_i, gamma = -eps_i, -gamma
        flip = np.diag([1.0, -1.0, -1.0])
        cov = flip @ cov @ flip
    d0 = abs(d0)

    vertex = -eps_i / gamma if gamma != 0 else np.inf
    in_window = volts.min() <= vertex <= volts.max()
    rms = float(np.sqrt(np.mean((freqs - np.hypot(d0, eps_i + gamma * volts)) ** 2)))
    return TraceFit(
        delta0=float(d0), eps_at_zero=float(eps_i), gamma=float(gamma), covariance=cov,
        residual_rms=rms, n_points=int(volts.size), delta0_lower_bound_only=not in_window,
    )

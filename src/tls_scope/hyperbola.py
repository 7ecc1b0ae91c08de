"""Hyperbolic resonance-curve fitting.

A TLS tuned by one control voltage V traces

    f(V) = sqrt(Delta0^2 + (eps_i + gamma*V)^2)

in swap-spectroscopy data.  The fit linearizes f^2 as a quadratic in V
for the starting point and refines with damped Gauss-Newton using the
analytic Jacobian.  The model is blind to the joint sign flip
(eps_i, gamma) -> (-eps_i, -gamma); fits are canonicalized to gamma >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTrace
from .lm import lm_fit


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

    def model(self, volts) -> np.ndarray:
        v = np.asarray(volts, dtype=float)
        return np.hypot(self.delta0, self.eps_at_zero + self.gamma * v)


def _quadratic_init(volts, freqs, weights):
    """Start values from the linearized model f^2 = quadratic(V)."""
    v0 = volts.mean()
    scale = max(volts.max() - volts.min(), 1e-30) / 2.0
    u = (volts - v0) / scale
    coeffs = np.polyfit(u, freqs**2, 2, w=np.sqrt(weights))
    a, b, c = coeffs
    resid = freqs**2 - np.polyval(coeffs, u)
    span_model = np.ptp(np.polyval(coeffs, u))
    noise = np.sqrt(np.mean(resid**2))
    if span_model <= 3.0 * noise or a <= 0:
        # No usable bias dependence: either flat within noise or the
        # quadratic term has the wrong sign (pure noise curvature).
        if span_model <= 3.0 * noise:
            raise DegenerateTrace(
                "trace has no significant bias dependence; gamma unidentifiable"
            )
        a = max(a, 1e-12 * max(abs(b), abs(c), 1.0))
    gamma_u = np.sqrt(a)
    eps_u = b / (2.0 * gamma_u)
    delta0_sq = c - eps_u**2
    delta0 = np.sqrt(max(delta0_sq, 1e-6 * abs(c)))
    gamma = gamma_u / scale
    eps_i = eps_u - gamma * v0
    return delta0, eps_i, gamma


def fit_hyperbola(volts, freqs, weights=None) -> TraceFit:
    """Fit (Delta0, eps_i, gamma) to resonance points along one control.

    Parameters
    ----------
    volts, freqs : array_like
        Bias voltages [V] and resonance frequencies [GHz], >= 5 points.
    weights : array_like, optional
        Relative inverse-variance weights; defaults to uniform.  The
        reported covariance is rescaled by chi^2/dof, so only the
        relative weighting matters.

    Raises
    ------
    DegenerateTrace
        If the points carry no significant bias dependence.
    NoConvergence
        If the refinement stalls (rare; the model is well conditioned
        once the linearized start is available).
    """
    volts = np.asarray(volts, dtype=float)
    freqs = np.asarray(freqs, dtype=float)
    if volts.shape != freqs.shape or volts.ndim != 1:
        raise ValueError("volts and freqs must be 1-d arrays of equal length")
    if volts.size < 5:
        raise ValueError("need at least 5 points to fit a hyperbola")
    w = np.ones_like(freqs) if weights is None else np.asarray(weights, dtype=float)

    x0 = _quadratic_init(volts, freqs, w)

    def model(x):
        d0, eps_i, gamma = x
        return np.hypot(d0, eps_i + gamma * volts)

    def residuals(x):
        return freqs - model(x)

    def jacobian(x):
        d0, eps_i, gamma = x
        eps = eps_i + gamma * volts
        f = np.hypot(d0, eps)
        return -np.column_stack((d0 / f, eps / f, eps * volts / f))

    res = lm_fit(residuals, jacobian, x0, weights=w)
    d0, eps_i, gamma = res.params
    cov = res.covariance
    if gamma < 0:
        # Canonical sign: the model is invariant under the joint flip.
        eps_i, gamma = -eps_i, -gamma
        flip = np.diag([1.0, -1.0, -1.0])
        cov = flip @ cov @ flip
    d0 = abs(d0)

    vertex = -eps_i / gamma if gamma != 0 else np.inf
    in_window = volts.min() <= vertex <= volts.max()
    rms = float(np.sqrt(np.mean(residuals((d0, eps_i, gamma)) ** 2)))
    return TraceFit(
        delta0=float(d0),
        eps_at_zero=float(eps_i),
        gamma=float(gamma),
        covariance=cov,
        residual_rms=rms,
        n_points=int(volts.size),
        delta0_lower_bound_only=not in_window,
    )

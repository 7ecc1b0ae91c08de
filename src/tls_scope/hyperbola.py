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

from .errors import DegenerateTrace, NoConvergence
from .lm import lm_batch

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


#: Traces per lockstep LM block, which runs until its slowest fit ends;
#: 512 was the smallest as fast as 1024 on a dense dataset's 2.6k traces.
FIT_BLOCK = 512


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
        If the points carry no significant bias dependence.
    NoConvergence
        If the refinement stalls (rare; the model is well conditioned
        once the linearized start is available).
    """
    (outcome,) = fit_hyperbolas([(volts, freqs, weights)])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def fit_hyperbolas(traces) -> list:
    """:func:`fit_hyperbola` on each (volts, freqs, weights) of ``traces``.

    Returns per trace the same :class:`TraceFit`, bit for bit, or the
    :class:`DegenerateTrace` or :class:`NoConvergence` it would raise.
    Traces run by length, in blocks of :data:`FIT_BLOCK` that are each
    one lockstep LM padded to their longest trace.
    """
    out: list = [None] * len(traces)
    order = np.argsort([np.size(t[1]) for t in traces], kind="stable").tolist()
    for start in range(0, len(order), FIT_BLOCK):
        data, x0 = [], []
        for i in order[start:start + FIT_BLOCK]:
            v, f, w = traces[i]
            v, f = np.asarray(v, dtype=float), np.asarray(f, dtype=float)
            if v.shape != f.shape or v.ndim != 1:
                raise ValueError("volts and freqs must be 1-d arrays of equal length")
            if v.size < MIN_POINTS:
                raise ValueError(f"need at least {MIN_POINTS} points to fit a hyperbola")
            w = np.ones_like(f) if w is None else np.asarray(w, dtype=float)
            try:
                x0.append(_quadratic_init(v, f, w))
            except DegenerateTrace as exc:
                out[i] = exc.with_traceback(None)  # keep no frame alive
                continue
            data.append((i, v, f, w))
        if not data:
            continue
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
            out[i] = (
                _trace_fit(v, f, params[j], cov[j]) if converged[j]
                else NoConvergence(f"no convergence after {n_iter[j]} iterations")
            )
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

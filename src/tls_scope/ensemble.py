"""Random TLS ensembles.

Ensembles follow the standard tunneling model measure: density flat in
asymmetry and proportional to 1/Delta0 in tunneling energy, i.e. Delta0
is log-uniform and eps_i uniform over a generation window.  The window
is sized so that the number of TLS whose zero-bias transition lands in
the observation band is Poisson with mean P0 * volume * bandwidth; the
total candidate count is inflated accordingly (Poisson thinning), so
off-band defects that may wander into the band under bias exist too.
Dipole projections are a truncated normal, drawn by inverting the
normal CDF of the standard library's ``statistics.NormalDist`` on one
uniform per defect, so drawing an ensemble imports no scipy.  An
:class:`Ensemble` is only its defects: the band, density and volume it
was drawn for stay in its :class:`EnsembleConfig`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .stm import Location, TlsParams, dipole_to_gamma_s

#: Asymmetry shift [GHz] the bias sweeps may apply; widens the eps_i window.
MAX_BIAS_SWING = 2.5

#: Largest mean number of candidate defects that a config may have drawn:
#: the in-band mean P0 * volume * bandwidth over the share of the
#: generation window that lands in band (the CLI default draws 18 for
#: 3.6 in band, 100x its volume 1836).
MAX_MEAN_DRAWN = 1e5


@dataclass(frozen=True)
class EnsembleConfig:
    """Knobs of the ensemble generator.

    ``band`` is the observation band [GHz]; ``p0_target`` the TLS volume
    density [1/(um^3 GHz)]; ``volume_um3`` the field-carrying dielectric
    volume.  Dipole projections are truncated-normal (>= 0) with the given
    mean/std [e*Angstrom], both positive; the sample-bias rate follows
    from the dipole and thickness, gamma_s = +-2p/d, with random
    orientation sign.  Strain rates are uniform within ``+-gamma_p_max``
    [GHz/V]; the global-gate rate is zero for defects buried in the
    sample capacitor (the top electrode screens the global field).
    ``p0_target``, ``volume_um3`` and ``gamma_p_max`` must be finite and
    non-negative, and the band must satisfy 0 < lo < hi; a zero density or
    volume draws an empty ensemble, and the mean number of candidates
    drawn may not exceed :data:`MAX_MEAN_DRAWN`.
    """

    band: tuple[float, float] = (5.8, 6.7)
    p0_target: float = 1800.0
    volume_um3: float = 2.25e-3
    thickness_m: float = 50.0 * 1e-9
    dipole_mean: float = 0.4
    dipole_std: float = 0.2
    gamma_p_max: float = 0.04

    def __post_init__(self):
        if not (self.dipole_mean > 0 and self.dipole_std > 0):
            raise ConfigError("dipole_mean and dipole_std must be > 0")
        for name in ("p0_target", "volume_um3", "gamma_p_max"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be finite and >= 0, got {value}")
        if not 0 < self.band[0] < self.band[1]:
            raise ConfigError(f"band {self.band} is empty")
        drawn = self.mean_drawn
        if drawn > MAX_MEAN_DRAWN:
            raise ConfigError(f"p0_target * volume_um3 * bandwidth asks for "
                              f"{self.mean_in_band:.3g} defects in band, drawn from "
                              f"{drawn:.3g} candidates, more than {MAX_MEAN_DRAWN:.0f}")

    @property
    def mean_in_band(self) -> float:
        """Mean number of defects whose zero-bias transition is in band."""
        return self.p0_target * self.volume_um3 * (self.band[1] - self.band[0])

    @property
    def mean_drawn(self) -> float:
        """Mean number of candidate defects drawn, in band or not; inf when
        no part of the generation window lands in band."""
        if self.mean_in_band == 0:
            return 0.0
        try:
            q = _in_band_probability(self)
        except OverflowError:  # a band edge whose square is no float
            return math.inf
        return self.mean_in_band / q if q > 0 else math.inf

    def resolved_delta0_min(self) -> float:
        """Lower end of the log-uniform Delta0 window [GHz]."""
        return 0.6 * self.band[0]

    def resolved_eps_halfwidth(self) -> float:
        """Half-width of the uniform eps_i window [GHz]."""
        lo = self.resolved_delta0_min()
        return float(np.sqrt(self.band[1] ** 2 - lo**2) + MAX_BIAS_SWING)


@dataclass(frozen=True)
class Ensemble:
    """A concrete draw of TLS parameters."""

    tls_list: tuple[TlsParams, ...]


def _in_band_probability(cfg: EnsembleConfig) -> float:
    """P(zero-bias transition in band) under the generation window.

    For fixed Delta0 the in-band asymmetries form two symmetric intervals
    of total length 2*(sqrt(hi^2-D^2) - sqrt(lo^2-D^2)); averaging over
    log-uniform Delta0 is a smooth 1-d quadrature.
    """
    lo, hi = cfg.band
    d_lo = cfg.resolved_delta0_min()
    w = cfg.resolved_eps_halfwidth()
    logd = np.linspace(np.log(d_lo), np.log(hi), 2001)
    d = np.exp(logd)
    len_eps = 2.0 * (
        np.sqrt(np.clip(hi**2 - d**2, 0.0, None))
        - np.sqrt(np.clip(lo**2 - d**2, 0.0, None))
    )
    frac = np.clip(len_eps / (2.0 * w), 0.0, 1.0)
    area = float(np.sum(0.5 * (frac[1:] + frac[:-1]) * np.diff(logd)))
    return area / (logd[-1] - logd[0])


def _truncnorm_left_ppf(u: np.ndarray, a: float) -> np.ndarray:
    """Quantiles ``u`` of the standard normal truncated to [a, inf), a < 0.

    By the symmetry of the normal, P(X >= x | X >= a) = 1 - u gives
    x = -Phi^-1((1 - u) * Phi(-a)), evaluated with the standard library's
    :class:`statistics.NormalDist`: no :mod:`scipy` import, and accurate
    to a few ulps deep into the upper tail.  The argument of Phi^-1 lies
    in (0, 1) for every u in [0, 1); it is held below 1 for u = 0 when
    Phi(-a) rounds to 1 (a <= -8.3).
    """
    from statistics import NormalDist

    normal = NormalDist()
    q = np.minimum((1.0 - u) * normal.cdf(-a), np.nextafter(1.0, 0.0))
    return -np.array([normal.inv_cdf(p) for p in q.tolist()], dtype=float)


def generate_ensemble(cfg: EnsembleConfig, seed: int) -> Ensemble:
    """Draw a TLS ensemble; deterministic for a given (cfg, seed)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    tls: list[TlsParams] = []
    if cfg.mean_in_band > 0:
        n = int(rng.poisson(cfg.mean_drawn))
        d_lo = cfg.resolved_delta0_min()
        w = cfg.resolved_eps_halfwidth()
        delta0 = np.exp(rng.uniform(np.log(d_lo), np.log(cfg.band[1]), size=n))
        eps_i = rng.uniform(-w, w, size=n)
        a = (0.0 - cfg.dipole_mean) / cfg.dipole_std
        u = rng.uniform(size=n)
        p_par = _truncnorm_left_ppf(u, a) * cfg.dipole_std + cfg.dipole_mean
        sign = rng.choice([-1.0, 1.0], size=n)
        gamma_p = rng.uniform(-cfg.gamma_p_max, cfg.gamma_p_max, size=n)
        for k in range(n):
            tls.append(
                TlsParams(
                    delta0=float(delta0[k]),
                    eps_i=float(eps_i[k]),
                    gamma_p=float(gamma_p[k]),
                    gamma_g=0.0,
                    gamma_s=float(
                        sign[k] * dipole_to_gamma_s(p_par[k], cfg.thickness_m)
                    ),
                    p_parallel=float(p_par[k]),
                    location=Location.SAMPLE_DIELECTRIC,
                )
            )
    return Ensemble(tls_list=tuple(tls))

"""Random TLS ensembles and the sample-bias control chain.

Ensembles follow the standard tunneling model measure: density flat in
asymmetry and proportional to 1/Delta0 in tunneling energy, i.e. Delta0
is log-uniform and eps_i uniform over a generation window.  The window
is sized so that the number of TLS whose zero-bias transition lands in
the observation band is Poisson with mean P0 * volume * bandwidth; the
total candidate count is inflated accordingly (Poisson thinning), so
off-band defects that may wander into the band under bias exist too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.stats import truncnorm

from .errors import BiasLimitExceeded, InvalidBand
from .stm import Location, TlsParams, V_S_LIMIT_DEFAULT, dipole_to_gamma_s


@dataclass(frozen=True)
class ControlChain:
    """Attenuation chain between the V_s source and the sample capacitor."""

    division_factor: float = 205.0
    v_s_limit: float = V_S_LIMIT_DEFAULT

    def __post_init__(self):
        if not self.division_factor > 0:
            raise ValueError("division_factor must be > 0")


def apply_control_chain(v_source: float, chain: ControlChain) -> float:
    """Cold-end sample bias from the source voltage.

    Raises
    ------
    BiasLimitExceeded
        If the divided voltage would exceed the cold-end safety limit.
    """
    v_s = v_source / chain.division_factor
    if abs(v_s) > chain.v_s_limit:
        raise BiasLimitExceeded(
            f"source {v_source:.4g} V divides to {v_s * 1e3:.3f} mV cold-end, "
            f"above the {chain.v_s_limit * 1e3:.3f} mV limit"
        )
    return v_s


@dataclass(frozen=True)
class EnsembleConfig:
    """Knobs of the ensemble generator.

    ``band`` is the observation band [GHz]; ``p0_target`` the TLS volume
    density [1/(um^3 GHz)]; ``volume_um3`` the field-carrying dielectric
    volume.  Dipole projections are truncated-normal (>= 0) with the given
    mean/std [e*Angstrom]; the sample-bias rate follows from the dipole and
    thickness, gamma_s = +-2p/d, with random orientation sign.  Strain
    rates are uniform within ``+-gamma_p_max`` [GHz/V]; the global-gate
    rate is zero for defects buried in the sample capacitor (the top
    electrode screens the global field).
    """

    band: tuple[float, float] = (5.8, 6.7)
    p0_target: float = 1800.0
    volume_um3: float = 2.25e-3
    thickness_m: float = 50e-9
    dipole_mean: float = 0.4
    dipole_std: float = 0.2
    gamma_p_max: float = 0.04
    gamma2_tls: float = 2.0 * np.pi
    delta0_min: float | None = None
    eps_halfwidth: float | None = None
    max_bias_swing: float = 2.5

    def resolved_delta0_min(self) -> float:
        return self.delta0_min if self.delta0_min is not None else 0.6 * self.band[0]

    def resolved_eps_halfwidth(self) -> float:
        if self.eps_halfwidth is not None:
            return self.eps_halfwidth
        lo = self.resolved_delta0_min()
        return float(np.sqrt(self.band[1] ** 2 - lo**2) + self.max_bias_swing)


@dataclass(frozen=True)
class Ensemble:
    """A concrete draw of TLS parameters plus its generation bookkeeping."""

    tls_list: tuple[TlsParams, ...]
    seed: int
    p0_target: float
    volume_um3: float
    band: tuple[float, float]

    @property
    def expected_in_band(self) -> float:
        return self.p0_target * self.volume_um3 * (self.band[1] - self.band[0])

    def in_band_count(self) -> int:
        lo, hi = self.band
        return sum(1 for t in self.tls_list if lo <= np.hypot(t.delta0, t.eps_i) <= hi)


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


def generate_ensemble(cfg: EnsembleConfig, seed: int) -> Ensemble:
    """Draw a TLS ensemble; deterministic for a given (cfg, seed).

    Raises
    ------
    InvalidBand
        If the band is empty or the tunneling-energy window collapses.
    """
    lo, hi = cfg.band
    if not (0 < lo < hi):
        raise InvalidBand(f"band {cfg.band} is empty")
    if cfg.resolved_delta0_min() >= hi:
        raise InvalidBand("delta0 window is empty; lower delta0_min")

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    mean_in_band = cfg.p0_target * cfg.volume_um3 * (hi - lo)
    tls: list[TlsParams] = []
    if mean_in_band > 0:
        q = _in_band_probability(cfg)
        n = int(rng.poisson(mean_in_band / q))
        d_lo = cfg.resolved_delta0_min()
        w = cfg.resolved_eps_halfwidth()
        delta0 = np.exp(rng.uniform(np.log(d_lo), np.log(hi), size=n))
        eps_i = rng.uniform(-w, w, size=n)
        a = (0.0 - cfg.dipole_mean) / cfg.dipole_std
        p_par = truncnorm.rvs(
            a, np.inf, loc=cfg.dipole_mean, scale=cfg.dipole_std, size=n,
            random_state=rng,
        )
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
                    gamma2_tls=cfg.gamma2_tls,
                    location=Location.SAMPLE_DIELECTRIC,
                )
            )
    return Ensemble(
        tls_list=tuple(tls),
        seed=seed,
        p0_target=cfg.p0_target,
        volume_um3=cfg.volume_um3,
        band=cfg.band,
    )

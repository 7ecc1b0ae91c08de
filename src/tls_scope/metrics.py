"""Material-level quantities derived from fitted defect parameters.

Converts trace densities into volume densities, and those into the
intrinsic loss tangent; also evaluates the participation-ratio
relaxation budget used to size the sample capacitor.  Dipole moments
come from the tuning rates through :func:`tls_scope.stm.gamma_s_to_dipole`.
Arguments use the natural units of the quantities as usually quoted:
nm, e*Angstrom, (um^3 GHz)^-1.
"""

from __future__ import annotations

import math

import numpy as np

from .constants import EPS0, HBAR, J_PER_GHZ, CM_PER_EA
from .errors import ConfigError
from .stm import Location, SensorDesign, sample_capacitance


def volume_density(spectral_density_per_ghz: float, volume_um3: float) -> float:
    """TLS volume density P0 [(um^3 GHz)^-1] from a per-trace density."""
    if not (volume_um3 > 0 and math.isfinite(volume_um3)):
        raise ConfigError(f"volume must be positive and finite, got {volume_um3}")
    return spectral_density_per_ghz / volume_um3


def loss_tangent(p0_um3_ghz: float, p_parallel_ea: float, eps_r: float) -> float:
    """Resonant TLS loss tangent  pi*P0*p^2 / (3*eps0*eps_r).

    Evaluated in SI: P0 converts from (um^3 GHz)^-1 to 1/(m^3 J) with
    the energy of one GHz, and the dipole from e*Angstrom to C*m.
    """
    if p0_um3_ghz < 0 or p_parallel_ea < 0 or eps_r <= 0:
        raise ConfigError(f"inputs must be positive, got {p0_um3_ghz}, {p_parallel_ea}, {eps_r}")
    p0_si = p0_um3_ghz / (1e-18 * J_PER_GHZ)
    p_si = p_parallel_ea * CM_PER_EA
    return math.pi * p0_si * p_si**2 / (3.0 * EPS0 * eps_r)


def participation_ratio(design: SensorDesign) -> float:
    """Fraction of the qubit's electric energy in the sample capacitor."""
    c_s = sample_capacitance(design)
    if design.c_tot <= c_s:
        raise ConfigError(f"total capacitance must exceed the sample capacitance {c_s:.4g} F")
    return c_s / design.c_tot


def relaxation_budget(
    design: SensorDesign, tan_delta0: float, gamma_background: float
) -> float:
    """Qubit relaxation rate [1/us] with dielectric loss of the capacitor.

    Gamma1 = omega10 * p_s * tan_delta0 + Gamma1_bg, with p_s the sample
    capacitor's participation ratio.  ``gamma_background`` collects all
    other loss channels [1/us].
    """
    if tan_delta0 < 0 or gamma_background < 0:
        raise ConfigError("loss inputs must be non-negative")
    p_s = participation_ratio(design)
    return design.omega10 * p_s * tan_delta0 / 1e6 + gamma_background


def detectable_dipole_min(field_rms: float, t1_us: float) -> float:
    """Smallest detectable dipole projection [e*A]: g*T1 = 1 at field F."""
    if field_rms <= 0 or t1_us <= 0:
        raise ConfigError(f"field and T1 must be positive, got {field_rms}, {t1_us}")
    return HBAR / (field_rms * t1_us * 1e-6) / CM_PER_EA


def material_report(
    analysis,
    volume_um3: float,
    eps_r: float,
    thickness_nm: float,
    field_rms: float | None = None,
    t1_us: float | None = None,
    dipole_sigma_truncated_normal: float | None = None,
) -> dict:
    """Reduce an :class:`~tls_scope.pipeline.AnalysisResult` to material numbers,
    the payload of ``material_report.json``.

    The detectability cut is reported, never silently applied: when the
    rms field and qubit T1 are given, the minimum detectable dipole and a
    corrected P0 (raw divided by the detected fraction of a
    truncated-normal dipole population, the distribution the ensemble
    draws from, evaluated with :class:`statistics.NormalDist`) appear
    alongside the raw value.  One of the pair without the other, or a
    dipole std prior that is not positive, is a
    :class:`~tls_scope.errors.ConfigError`.
    """
    if (field_rms is None) != (t1_us is None):
        raise ConfigError(f"the detectability cut needs both the rms field and T1, "
                          f"got {field_rms} and {t1_us}")
    if dipole_sigma_truncated_normal is not None and not dipole_sigma_truncated_normal > 0:
        raise ConfigError(f"the dipole std prior must be > 0, got {dipole_sigma_truncated_normal}")
    # Dipole projections [e*A] of the sample-dielectric defects.
    dip = np.array([
        r.p_parallel
        for r in analysis.records
        if r.location is Location.SAMPLE_DIELECTRIC and r.p_parallel is not None
    ])
    sample_key = Location.SAMPLE_DIELECTRIC.value
    sample_density = float(analysis.density_by_class.get(sample_key, 0.0))
    p0 = volume_density(sample_density, volume_um3)
    p_mean = float(dip.mean()) if dip.size else None
    p_std = float(dip.std(ddof=1)) if dip.size > 1 else None
    tan_d = loss_tangent(p0, p_mean, eps_r) if (p_mean and p0 > 0) else None

    p_min = corrected = None
    if field_rms is not None and t1_us is not None:
        p_min = detectable_dipole_min(field_rms, t1_us)
        if p_mean is not None and dip.size:
            sigma = dipole_sigma_truncated_normal or (p_std or 0.0)
            if sigma > 0:
                from statistics import NormalDist

                # P(p > p_min | p > 0) of the normal N(p_mean, sigma).
                cdf = NormalDist().cdf
                detected = cdf((p_mean - p_min) / sigma) / cdf(p_mean / sigma)
                if detected > 0:
                    corrected = p0 / detected

    return {
        "n_tls_total": len(analysis.records),
        "n_sample_tls": int(dip.size),
        "p_parallel_mean_eA": p_mean,
        "p_parallel_std_eA": p_std,
        "spectral_density_per_GHz": {k: float(v) for k, v in analysis.density_by_class.items()},
        "sample_density_per_GHz": sample_density,
        "P0_per_um3_GHz": p0,
        "tan_delta0": tan_d,
        "p_min_detectable_eA": p_min,
        "P0_detection_corrected": corrected,
        "assumptions": {
            "volume_um3": volume_um3,
            "eps_r": eps_r,
            "thickness_nm": thickness_nm,
            "field_rms_v_per_m": field_rms,
            "t1_us": t1_us,
        },
    }

"""Material-level quantities derived from fitted defect parameters.

Converts trace densities into volume densities, and those into the
intrinsic loss tangent; also evaluates the participation-ratio
relaxation budget used to size the sample capacitor.  Dipole moments
come from the tuning rates through :func:`tls_scope.stm.gamma_s_to_dipole`.
The numbers are the raw ones, with no correction for the defects the
extraction misses; the detectability rule g*T1 = 1 lives in
:func:`tls_scope.stm.design_thickness`, which sizes the capacitor.
Arguments use the natural units of the quantities as usually quoted:
nm, e*Angstrom, (um^3 GHz)^-1.
"""

from __future__ import annotations

import math

import numpy as np

from .constants import EPS0, J_PER_GHZ, CM_PER_EA
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
    return sample_capacitance(design) / design.c_tot


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


def material_report(analysis, volume_um3: float, eps_r: float, thickness_nm: float) -> dict:
    """Reduce an :class:`~tls_scope.pipeline.AnalysisResult` to material numbers,
    the payload of ``material_report.json``.

    An ``eps_r`` that is not positive (checked whether or not a loss
    tangent follows), and a P0, dipole moment or loss tangent that
    overflows (a tiny volume or ``eps_r``, a huge thickness), is a
    :class:`~tls_scope.errors.ConfigError`.
    """
    if not eps_r > 0:
        raise ConfigError(f"eps_r must be > 0, got {eps_r}")
    # Dipole projections [e*A] of the sample-dielectric defects.
    dip = np.array([
        r.p_parallel
        for r in analysis.records
        if r.location is Location.SAMPLE_DIELECTRIC and r.p_parallel is not None
    ])
    sample_key = Location.SAMPLE_DIELECTRIC.value
    sample_density = float(analysis.density_by_class.get(sample_key, 0.0))
    p0 = volume_density(sample_density, volume_um3)
    with np.errstate(over="ignore"):  # an overflow is refused below
        p_mean = float(dip.mean()) if dip.size else None
        p_std = float(dip.std(ddof=1)) if dip.size > 1 else None
    try:
        tan_d = loss_tangent(p0, p_mean, eps_r) if (p_mean and p0 > 0) else None
    except (OverflowError, ZeroDivisionError):
        tan_d = math.inf
    numbers = {"P0": p0, "mean dipole": p_mean, "dipole std": p_std, "tan_delta0": tan_d}
    overflow = [name for name, value in numbers.items()
                if value is not None and not math.isfinite(value)]
    if overflow:
        raise ConfigError(f"{', '.join(overflow)} overflow with volume_um3 {volume_um3}, "
                          f"eps_r {eps_r} and thickness_nm {thickness_nm}")

    return {
        "n_tls_total": len(analysis.records),
        "n_sample_tls": int(dip.size),
        "p_parallel_mean_eA": p_mean,
        "p_parallel_std_eA": p_std,
        "spectral_density_per_GHz": {k: float(v) for k, v in analysis.density_by_class.items()},
        "sample_density_per_GHz": sample_density,
        "P0_per_um3_GHz": p0,
        "tan_delta0": tan_d,
        "assumptions": {
            "volume_um3": volume_um3,
            "eps_r": eps_r,
            "thickness_nm": thickness_nm,
        },
    }

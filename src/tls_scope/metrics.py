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
from dataclasses import dataclass, field

import numpy as np

from .constants import EPS0, HBAR, J_PER_GHZ, CM_PER_EA
from .stm import SCHEMA_VERSION, SensorDesign, sample_capacitance


def volume_density(spectral_density_per_ghz: float, volume_um3: float) -> float:
    """TLS volume density P0 [(um^3 GHz)^-1] from a per-trace density."""
    if volume_um3 <= 0:
        raise ValueError("volume must be positive")
    return spectral_density_per_ghz / volume_um3


def loss_tangent(p0_um3_ghz: float, p_parallel_ea: float, eps_r: float) -> float:
    """Resonant TLS loss tangent  pi*P0*p^2 / (3*eps0*eps_r).

    Evaluated in SI: P0 converts from (um^3 GHz)^-1 to 1/(m^3 J) with
    the energy of one GHz, and the dipole from e*Angstrom to C*m.
    """
    if p0_um3_ghz < 0 or p_parallel_ea < 0 or eps_r <= 0:
        raise ValueError("inputs must be positive")
    p0_si = p0_um3_ghz / (1e-18 * J_PER_GHZ)
    p_si = p_parallel_ea * CM_PER_EA
    return math.pi * p0_si * p_si**2 / (3.0 * EPS0 * eps_r)


def participation_ratio(design: SensorDesign) -> float:
    """Fraction of the qubit's electric energy in the sample capacitor."""
    c_s = sample_capacitance(design)
    if design.c_tot <= c_s:
        raise ValueError("total capacitance must exceed the sample capacitance")
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
        raise ValueError("loss inputs must be non-negative")
    p_s = participation_ratio(design)
    return design.omega10 * p_s * tan_delta0 / 1e6 + gamma_background


def detectable_dipole_min(field_rms: float, t1_us: float) -> float:
    """Smallest detectable dipole projection [e*A]: g*T1 = 1 at field F."""
    if field_rms <= 0 or t1_us <= 0:
        raise ValueError("field and T1 must be positive")
    return HBAR / (field_rms * t1_us * 1e-6) / CM_PER_EA


@dataclass(frozen=True)
class MaterialReport:
    """Material summary derived from one analyzed dataset."""

    n_tls_total: int
    n_sample_tls: int
    p_parallel_mean: float | None
    p_parallel_std: float | None
    density_by_class: dict
    sample_density_per_ghz: float
    p0_um3_ghz: float
    tan_delta0: float | None
    p_min_detectable_ea: float | None
    p0_detection_corrected: float | None
    assumptions: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "n_tls_total": self.n_tls_total,
            "n_sample_tls": self.n_sample_tls,
            "p_parallel_mean_eA": self.p_parallel_mean,
            "p_parallel_std_eA": self.p_parallel_std,
            "spectral_density_per_GHz": {
                k: float(v) for k, v in self.density_by_class.items()
            },
            "sample_density_per_GHz": self.sample_density_per_ghz,
            "P0_per_um3_GHz": self.p0_um3_ghz,
            "tan_delta0": self.tan_delta0,
            "p_min_detectable_eA": self.p_min_detectable_ea,
            "P0_detection_corrected": self.p0_detection_corrected,
            "assumptions": self.assumptions,
        }

    def text_table(self) -> str:
        rows = [
            ("defects tracked", f"{self.n_tls_total}"),
            ("sample-dielectric defects", f"{self.n_sample_tls}"),
            ("mean dipole p_par [eA]", _fmt(self.p_parallel_mean)),
            ("std dipole p_par [eA]", _fmt(self.p_parallel_std)),
            ("sample spectral density [1/GHz]", _fmt(self.sample_density_per_ghz)),
            ("volume density P0 [1/(um^3 GHz)]", _fmt(self.p0_um3_ghz)),
            ("loss tangent tan_d0", _fmt(self.tan_delta0, "{:.3e}")),
            ("detectability cut p_min [eA]", _fmt(self.p_min_detectable_ea)),
            ("P0 corrected for cut", _fmt(self.p0_detection_corrected)),
        ]
        width = max(len(r[0]) for r in rows)
        lines = [f"{name:<{width}}  {value}" for name, value in rows]
        for k, v in sorted(self.density_by_class.items()):
            lines.append(f"{'density ' + k:<{width}}  {float(v):.4g} /GHz")
        return "\n".join(lines)


def _fmt(x, spec="{:.4g}"):
    return "n/a" if x is None else spec.format(x)


def material_report(
    analysis,
    volume_um3: float,
    eps_r: float,
    thickness_nm: float,
    field_rms: float | None = None,
    t1_us: float | None = None,
    dipole_sigma_truncated_normal: float | None = None,
) -> MaterialReport:
    """Reduce an :class:`~tls_scope.pipeline.AnalysisResult` to material numbers.

    The detectability cut is reported, never silently applied: when the
    rms field and qubit T1 are given, the minimum detectable dipole and a
    corrected P0 (raw divided by the detected fraction of a
    truncated-normal dipole population) appear alongside the raw value.
    """
    from .pipeline import sample_dipoles
    from .stm import Location

    dip = sample_dipoles(analysis)
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
                from scipy.stats import truncnorm

                a = (0.0 - p_mean) / sigma
                detected = 1.0 - truncnorm.cdf(p_min, a, np.inf, loc=p_mean, scale=sigma)
                if detected > 0:
                    corrected = p0 / detected

    return MaterialReport(
        n_tls_total=len(analysis.records),
        n_sample_tls=int(dip.size),
        p_parallel_mean=p_mean,
        p_parallel_std=p_std,
        density_by_class=dict(analysis.density_by_class),
        sample_density_per_ghz=sample_density,
        p0_um3_ghz=p0,
        tan_delta0=tan_d,
        p_min_detectable_ea=p_min,
        p0_detection_corrected=corrected,
        assumptions={
            "volume_um3": volume_um3,
            "eps_r": eps_r,
            "thickness_nm": thickness_nm,
            "field_rms_v_per_m": field_rms,
            "t1_us": t1_us,
        },
    )

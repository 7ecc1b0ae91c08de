"""Standard tunneling model: single-defect energies, couplings, design rules.

A tunneling two-level system (TLS) is described by its tunneling energy
Delta0 and a bias-dependent asymmetry energy

    eps(V) = eps_i + gamma_p*V_p + gamma_g*V_g + gamma_s*V_s,

giving the transition energy E = sqrt(Delta0^2 + eps^2) and the matrix
element Delta0/E.  All energies are frequencies in GHz (energy/h); the
three gamma coefficients are in GHz per volt of the respective control
(piezo, global gate, sample capacitor).

:func:`energies` is the one place this rule is written; it evaluates a
single :class:`TlsParams` and a whole :class:`TlsTable` alike.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .constants import HBAR, J_PER_GHZ, CM_PER_EA, EPS0, H_PLANCK, MHZ
from .errors import ConfigError, OutOfRange, SchemaError

SCHEMA_VERSION = 1


def check_schema_version(version, what: str) -> None:
    """Refuse data written under a schema version this package does not know."""
    if version != SCHEMA_VERSION:
        raise SchemaError(f"{what}: unsupported schema_version {version!r}")


#: Cold-end limit on the sample-capacitor bias [V]; larger swings heat
#: the attenuators in the bias line.
V_S_LIMIT = 2.5e-3


class Location(enum.Enum):
    """Possible host location of a TLS in the circuit."""

    SAMPLE_DIELECTRIC = "sample_dielectric"
    JUNCTION = "junction"
    SURFACE_ELECTRODE = "surface_electrode"
    UNCLASSIFIED = "unclassified"


@dataclass(frozen=True)
class TlsParams:
    """Parameters of one TLS; every field but ``location`` must be finite.

    Attributes
    ----------
    delta0 : float
        Tunneling energy [GHz], strictly positive.
    eps_i : float
        Intrinsic asymmetry energy at zero bias [GHz].
    gamma_p, gamma_g, gamma_s : float
        Asymmetry tuning rates for piezo, global gate and sample
        capacitor voltage [GHz/V].
    p_parallel : float
        Electric dipole moment projection [e*Angstrom], >= 0; the sign of
        the projection is absorbed into ``gamma_s``.
    gamma2_tls : float
        Dephasing rate [1/us], finite and > 0: the half width of the T1 dip.
    location : Location
        Host location, if known.
    """

    delta0: float
    eps_i: float = 0.0
    gamma_p: float = 0.0
    gamma_g: float = 0.0
    gamma_s: float = 0.0
    p_parallel: float = 0.0
    gamma2_tls: float = 2.0 * math.pi  # 2*pi MHz expressed in 1/us
    location: Location = Location.UNCLASSIFIED

    def __post_init__(self):
        if not self.delta0 > 0:
            raise ConfigError(f"delta0 must be > 0, got {self.delta0}")
        if not 0 < self.gamma2_tls < math.inf:
            raise ConfigError(f"gamma2_tls must be finite and > 0, got {self.gamma2_tls}")
        for f in fields(self):  # pairfit's array of trial gamma_p is its own
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise OutOfRange(f.name, "must be finite", value)
        if self.p_parallel < 0:
            raise ConfigError("p_parallel is a magnitude; sign lives in gamma_s")
        if self.location is Location.SAMPLE_DIELECTRIC and self.gamma_s == 0:
            raise ConfigError("sample-dielectric TLS must respond to V_s")
        if self.location is Location.JUNCTION and (
            self.gamma_g != 0 or self.gamma_s != 0
        ):
            raise ConfigError("junction TLS are screened from both E-fields")

    def to_dict(self) -> dict:
        # A shallow copy of the fields: every value is a float or the enum.
        return {**vars(self), "location": self.location.value, "schema_version": SCHEMA_VERSION}

    @classmethod
    def from_dict(cls, d: dict) -> "TlsParams":
        d = dict(d)
        if "schema_version" in d:  # a hand-written record may have none
            check_schema_version(d.pop("schema_version"), "TlsParams")
        d["location"] = Location(d.get("location", "unclassified"))
        return cls(**d)


@dataclass(frozen=True)
class BiasPoint:
    """One setting of the three bias controls [V].

    ``v_s`` is the cold-end voltage on the sample capacitor; its magnitude
    is checked against :data:`V_S_LIMIT` (attenuator heating constraint).
    """

    v_p: float = 0.0
    v_g: float = 0.0
    v_s: float = 0.0

    def __post_init__(self):
        if abs(self.v_s) > V_S_LIMIT:
            raise ConfigError(
                f"|v_s| = {abs(self.v_s):.4g} V exceeds the "
                f"{V_S_LIMIT:.4g} V safety limit"
            )


@dataclass(frozen=True)
class TlsTable:
    """Struct-of-arrays view of a TLS population, one entry per defect.

    The fields mirror the numeric fields of :class:`TlsParams`.  Voltages
    passed to :func:`energies` together with a table broadcast against the
    defect axis, so ``v[:, None]`` gives a (bias step, defect) grid.
    """

    delta0: np.ndarray
    eps_i: np.ndarray
    gamma_p: np.ndarray
    gamma_g: np.ndarray
    gamma_s: np.ndarray
    p_parallel: np.ndarray
    gamma2_tls: np.ndarray

    @classmethod
    def of(cls, tls_list) -> "TlsTable":
        columns = ([getattr(t, f.name) for t in tls_list] for f in fields(cls))
        return cls(*(np.array(c, dtype=float) for c in columns))


@dataclass(frozen=True)
class SensorDesign:
    """Geometry and electrical parameters of the sample-capacitor sensor.

    Every parameter must be positive and finite, and ``c_tot`` must exceed
    the sample capacitance; a sample capacitor above 5 % of ``c_tot`` warns.

    Attributes
    ----------
    d : float
        Sample dielectric thickness [m].
    area : float
        Capacitor plate area [m^2].
    eps_r : float
        Relative permittivity of the sample dielectric.
    c_tot : float
        Total capacitance shunting the qubit junctions [F].
    omega10 : float
        Qubit plasma frequency [rad/s].
    t1_qubit : float
        Energy relaxation time of the isolated qubit [us], the one home of
        its T1: the T1 map's background rate and the relaxation budget's
        non-dielectric rate are both 1/``t1_qubit``, which must be finite.
    """

    d: float
    area: float
    eps_r: float
    c_tot: float
    omega10: float
    t1_qubit: float

    def __post_init__(self):
        for name in ("d", "area", "eps_r", "c_tot", "omega10", "t1_qubit"):
            value = getattr(self, name)
            if not value > 0:
                raise OutOfRange(name, "must be strictly positive", value)
            if not math.isfinite(value):
                raise OutOfRange(name, "must be finite", value)
        if not 1.0 / self.t1_qubit < math.inf:
            raise OutOfRange("t1_qubit", "must be large enough that 1/t1_qubit is finite",
                             self.t1_qubit)
        c_s = sample_capacitance(self)
        if self.c_tot <= c_s:
            raise ConfigError(
                f"total capacitance must exceed the sample capacitance {c_s:.4g} F")
        ratio = c_s / self.c_tot
        if ratio > 0.05:
            warnings.warn(
                f"sample capacitor holds {ratio:.1%} of the total capacitance; "
                "it will load the qubit",
                stacklevel=2,
            )

    def to_dict(self) -> dict:
        return {**vars(self), "schema_version": SCHEMA_VERSION}


# ---------------------------------------------------------------------------
# Single-TLS formulas
# ---------------------------------------------------------------------------

def energies(tls, v_p, v_g, v_s):
    """Asymmetry and transition energy (eps, E) [GHz] at (v_p, v_g, v_s) [V].

    ``tls`` is a :class:`TlsParams` or a :class:`TlsTable`; voltages may be
    floats or arrays that broadcast against the table's fields.
    """
    eps = tls.eps_i + tls.gamma_p * v_p + tls.gamma_g * v_g + tls.gamma_s * v_s
    return eps, np.hypot(tls.delta0, eps)


def coupling_mhz(p_parallel, matrix_el, field_rms):
    """Qubit-TLS coupling g = p*(Delta0/E)*F/h [MHz, ordinary frequency].

    ``p_parallel`` is the dipole projection [e*Angstrom], ``matrix_el``
    the matrix element Delta0/E and ``field_rms`` the rms electric field
    seen by the TLS [V/m]; all three may be arrays.
    """
    return p_parallel * CM_PER_EA * matrix_el * field_rms / H_PLANCK / MHZ


def vacuum_voltage(design: SensorDesign) -> float:
    """Vacuum voltage fluctuation sqrt(hbar*omega10 / (2*C_tot)) [V]."""
    return math.sqrt(HBAR * design.omega10 / (2.0 * design.c_tot))


def design_thickness(p_min: float, t1: float, v_rms: float) -> float:
    """Dielectric thickness [m] at which g*T1 = 1 for the weakest dipole.

    Detectability requires the coupling (angular) to match the qubit decay
    rate, g = 1/T1; substituting F = V_rms/d gives d = p_min*T1*V_rms/hbar.

    Parameters
    ----------
    p_min : float
        Smallest dipole projection to remain detectable [e*Angstrom].
    t1 : float
        Qubit energy relaxation time [s].
    v_rms : float
        Vacuum voltage fluctuation on the qubit island [V].
    """
    if p_min <= 0 or t1 <= 0 or v_rms <= 0:
        raise ConfigError(f"p_min, t1 and v_rms must be positive, got {p_min}, {t1}, {v_rms}")
    return p_min * CM_PER_EA * t1 * v_rms / HBAR


def sample_capacitance(design: SensorDesign) -> float:
    """Parallel-plate capacitance eps0*eps_r*A/d [F].

    No fringe-field correction is applied; measured values of overlap
    capacitors run 10-20% above this.
    """
    return EPS0 * design.eps_r * design.area / design.d


def capacitor_field_rms(design: SensorDesign) -> float:
    """Rms qubit field inside the sample capacitor, V_rms/d [V/m]."""
    return vacuum_voltage(design) / design.d


def dipole_to_gamma_s(p_parallel: float, d: float) -> float:
    """Sample-bias tuning rate gamma_s = 2*p/d [GHz/V] of a dipole p [e*A]."""
    return 2.0 * p_parallel * CM_PER_EA / (d * J_PER_GHZ)


def gamma_s_to_dipole(gamma_s: float, d: float) -> float:
    """Dipole projection p = |gamma_s|*d/2 [e*Angstrom] from the tuning rate.

    Note: published parameter tables sometimes quote p = gamma_s*d (without
    the factor 1/2, i.e. twice this value); this function follows the
    dipole-energy identity 2*p*V/d = gamma_s*V.
    """
    return abs(gamma_s) * J_PER_GHZ * d / 2.0 / CM_PER_EA

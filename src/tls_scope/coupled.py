"""Two interacting TLS: Hamiltonians, spectra, avoided-crossing geometry.

Two defects close enough to interact are modeled in two equivalent ways:

* localized basis -- each TLS contributes (eps*sz + Delta*sx)/2 and the
  pair couples through a single longitudinal term g*sz1*sz2/2 [GHz];
* eigenbasis -- each TLS is diagonal, E_i*sz_i/2, and the interaction
  splits into four Pauli products.  Dropping the z-x cross terms leaves
  the truncated model (g_z*sz1*sz2 + g_x*sx1*sx2)/2 whose transverse part
  opens the avoided crossing and whose longitudinal part shifts both
  single-excitation transitions.

Couplings g, g_z, g_x are in MHz (ordinary frequency); transition
energies are in GHz like everywhere else in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .constants import MHZ_PER_GHZ
from .errors import NoCrossingInRange
from .linalg import Spectrum, eigensolve_hermitian
from .stm import BiasPoint, TlsParams, asymmetry, transition_energy

SZ = np.array([[1.0, 0.0], [0.0, -1.0]])
SX = np.array([[0.0, 1.0], [1.0, 0.0]])
ID2 = np.eye(2)


@dataclass(frozen=True)
class CoupledPair:
    """Two TLS plus their mutual coupling.

    Exactly one parameterization is authoritative: pass ``g_localized``
    [MHz] for the localized-basis model, or ``(g_z, g_x)`` [MHz] for the
    truncated eigenbasis model.  The respective other representation is
    derived (bias-dependent) where needed.
    """

    tls1: TlsParams
    tls2: TlsParams
    g_z: float | None = None
    g_x: float | None = None
    g_localized: float | None = None

    def __post_init__(self):
        eig = self.g_z is not None or self.g_x is not None
        loc = self.g_localized is not None
        if eig == loc:
            raise ValueError("specify either g_localized or (g_z, g_x), not both")
        if eig and (self.g_z is None or self.g_x is None):
            raise ValueError("the eigenbasis parameterization needs both g_z and g_x")


def single_tls_hamiltonian(tls: TlsParams, b: BiasPoint) -> np.ndarray:
    """2x2 localized-basis Hamiltonian (eps*sz + Delta0*sx)/2 [GHz]."""
    eps = asymmetry(tls, b)
    return 0.5 * (eps * SZ + tls.delta0 * SX)


def full_hamiltonian_localized(pair: CoupledPair, b: BiasPoint) -> np.ndarray:
    """4x4 localized-basis Hamiltonian H1 + H2 + g*sz1*sz2/2 [GHz]."""
    if pair.g_localized is None:
        raise ValueError("pair is not parameterized by g_localized")
    h1 = single_tls_hamiltonian(pair.tls1, b)
    h2 = single_tls_hamiltonian(pair.tls2, b)
    g = pair.g_localized / MHZ_PER_GHZ
    return np.kron(h1, ID2) + np.kron(ID2, h2) + 0.5 * g * np.kron(SZ, SZ)


def mixing_angles(tls: TlsParams, b: BiasPoint) -> tuple[float, float]:
    """(cos, sin) of the rotation angle diagonalizing one TLS.

    cos(theta) = eps/E and sin(theta) = Delta0/E, computed through
    atan2 so the Delta0 -> 0 limit is regular.
    """
    theta = math.atan2(tls.delta0, asymmetry(tls, b))
    return math.cos(theta), math.sin(theta)


def transform_coupling_to_eigenbasis(
    g_localized: float, tls1: TlsParams, tls2: TlsParams, b: BiasPoint
) -> tuple[float, float, float, float]:
    """Eigenbasis coefficients (g_z, g_x, g_zx, g_xz) of a sz1*sz2 coupling.

    Rotating each sz with its TLS mixing angle splits g*sz1*sz2 into
    g_z*sz1*sz2, g_x*sx1*sx2 and the two cross products; the returned
    coefficients are g*(c1*c2, s1*s2, c1*s2, s1*c2), same units as
    ``g_localized``.
    """
    c1, s1 = mixing_angles(tls1, b)
    c2, s2 = mixing_angles(tls2, b)
    return (
        g_localized * c1 * c2,
        g_localized * s1 * s2,
        g_localized * c1 * s2,
        g_localized * s1 * c2,
    )


def _eigenbasis_hamiltonian(
    e1: float, e2: float, g_z: float, g_x: float, g_zx: float = 0.0, g_xz: float = 0.0
) -> np.ndarray:
    """Assemble the eigenbasis 4x4 [GHz] from transitions and couplings [MHz]."""
    gz, gx, gzx, gxz = (v / MHZ_PER_GHZ for v in (g_z, g_x, g_zx, g_xz))
    h = 0.5 * e1 * np.kron(SZ, ID2) + 0.5 * e2 * np.kron(ID2, SZ)
    h += 0.5 * (gz * np.kron(SZ, SZ) + gx * np.kron(SX, SX))
    h += 0.5 * (gzx * np.kron(SZ, SX) + gxz * np.kron(SX, SZ))
    return h


def truncated_hamiltonian_eigenbasis(pair: CoupledPair, b: BiasPoint) -> np.ndarray:
    """4x4 truncated eigenbasis Hamiltonian [GHz]; cross terms dropped."""
    if pair.g_z is None or pair.g_x is None:
        raise ValueError("pair is not parameterized by (g_z, g_x)")
    e1 = transition_energy(pair.tls1, b)
    e2 = transition_energy(pair.tls2, b)
    return _eigenbasis_hamiltonian(e1, e2, pair.g_z, pair.g_x)


def complete_hamiltonian_eigenbasis(pair: CoupledPair, b: BiasPoint) -> np.ndarray:
    """4x4 eigenbasis Hamiltonian with all four transformed coupling terms.

    Requires the localized parameterization; spectra agree with
    :func:`full_hamiltonian_localized` exactly (same operator, rotated).
    """
    if pair.g_localized is None:
        raise ValueError("pair is not parameterized by g_localized")
    e1 = transition_energy(pair.tls1, b)
    e2 = transition_energy(pair.tls2, b)
    gz, gx, gzx, gxz = transform_coupling_to_eigenbasis(
        pair.g_localized, pair.tls1, pair.tls2, b
    )
    return _eigenbasis_hamiltonian(e1, e2, gz, gx, gzx, gxz)


def pair_spectrum(pair: CoupledPair, b: BiasPoint) -> Spectrum:
    """Diagonalize the pair at one bias using its authoritative model."""
    if pair.g_localized is not None:
        h = full_hamiltonian_localized(pair, b)
    else:
        h = truncated_hamiltonian_eigenbasis(pair, b)
    return eigensolve_hermitian(h)


def transitions_truncated(
    e1: np.ndarray, e2: np.ndarray, g_z: float, g_x: float
) -> tuple[np.ndarray, np.ndarray]:
    """Single-excitation transitions of the truncated model, closed form.

    The 4x4 truncated Hamiltonian splits into two 2x2 blocks; from the
    ground state the two transitions are

        T+- = -g_z + (sqrt(S^2 + gx^2) +- sqrt(D^2 + gx^2)) / 2

    with S = E1 + E2 and D = E1 - E2.  Inputs in GHz, couplings in MHz;
    returns (lower, upper) transition branches in GHz.  Vectorized over
    bias arrays.  Cross-checked against the dense eigensolver in tests.
    """
    e1 = np.asarray(e1, dtype=float)
    e2 = np.asarray(e2, dtype=float)
    gz = g_z / MHZ_PER_GHZ
    gx = g_x / MHZ_PER_GHZ
    s = np.hypot(e1 + e2, gx)
    d = np.hypot(e1 - e2, gx)
    return -gz + 0.5 * (s - d), -gz + 0.5 * (s + d)


def _splitting(pair: CoupledPair, base: BiasPoint, control: str, v: float) -> float:
    spec = pair_spectrum(pair, replace(base, **{control: v}))
    return spec.transition_02 - spec.transition_01


def crossing_geometry(
    pair: CoupledPair,
    sweep: Sequence[BiasPoint],
    approach_window: float = 0.5,
    tol: float = 1e-12,
) -> tuple[float, float]:
    """Locate the avoided crossing along a one-control bias sweep.

    The sweep must vary exactly one control monotonically.  The minimum
    splitting between the two single-excitation transitions is bracketed
    on the sweep grid and refined by golden-section search.

    Parameters
    ----------
    pair : CoupledPair
    sweep : sequence of BiasPoint
        Monotone in one of v_p, v_g, v_s.
    approach_window : float
        Largest grid-minimum splitting [GHz] still considered a crossing.
    tol : float
        Voltage tolerance of the golden-section refinement [V].

    Returns
    -------
    (v_min, splitting_min) : tuple of float
        Bias voltage of the swept control [V] and minimum splitting [MHz].

    Raises
    ------
    NoCrossingInRange
        If the transitions never approach within ``approach_window``.
    """
    if len(sweep) < 3:
        raise ValueError("sweep needs at least 3 points")
    controls = [
        name
        for name in ("v_p", "v_g", "v_s")
        if getattr(sweep[0], name) != getattr(sweep[-1], name)
    ]
    if len(controls) != 1:
        raise ValueError("sweep must vary exactly one control")
    control = controls[0]
    volts = np.array([getattr(b, control) for b in sweep])
    steps = np.diff(volts)
    if not (np.all(steps > 0) or np.all(steps < 0)):
        raise ValueError(f"sweep is not monotone in {control}")

    split = np.array([_splitting(pair, sweep[0], control, v) for v in volts])
    k = int(np.argmin(split))
    if split[k] > approach_window:
        raise NoCrossingInRange(
            f"minimum splitting {split[k]:.4g} GHz exceeds the "
            f"{approach_window:.4g} GHz window"
        )
    lo = volts[max(k - 1, 0)]
    hi = volts[min(k + 1, len(volts) - 1)]

    # Golden-section refinement of the bracketed minimum
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = (lo, hi) if lo < hi else (hi, lo)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = _splitting(pair, sweep[0], control, c)
    fd = _splitting(pair, sweep[0], control, d)
    while abs(b - a) > tol * max(1.0, abs(a), abs(b)):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = _splitting(pair, sweep[0], control, c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = _splitting(pair, sweep[0], control, d)
    v_min = (a + b) / 2.0
    return v_min, _splitting(pair, sweep[0], control, v_min) * MHZ_PER_GHZ

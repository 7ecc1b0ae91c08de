"""Two interacting TLS: transition spectra and avoided-crossing geometry.

A pair is described by one of two models, chosen by how its coupling is
given:

* localized basis -- each TLS contributes (eps*sz + Delta0*sx)/2 and the
  pair couples through a single longitudinal term g*sz1*sz2/2 [GHz];
  the 4x4 Hamiltonian is diagonalized numerically;
* truncated eigenbasis -- each TLS is diagonal, E_i*sz_i/2, and the
  pair couples through (g_z*sz1*sz2 + g_x*sx1*sx2)/2, whose transverse
  part opens the avoided crossing and whose longitudinal part shifts
  both single-excitation transitions; the spectrum is in closed form.

Rotating g*sz1*sz2 into the eigenbasis gives g_z = g*c1*c2 and
g_x = g*s1*s2 (c_i = eps_i/E_i, s_i = Delta0_i/E_i) plus z-x cross terms
that the truncated model drops.

:func:`crossing_geometry` locates the avoided crossing along a sweep by
re-gridding a bracket of the minimum splitting ever finer.

Couplings g, g_z, g_x are in MHz (ordinary frequency); transition
energies are in GHz like everywhere else in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Sequence

import numpy as np

from .constants import MHZ_PER_GHZ
from .errors import NoCrossingInRange
from .stm import BiasPoint, TlsParams, energies

_SZ, _SX, _ID2 = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2)
#: Pauli products of the localized-basis 4x4 Hamiltonian.
_SZ1, _SX1 = np.kron(_SZ, _ID2), np.kron(_SX, _ID2)
_SZ2, _SX2 = np.kron(_ID2, _SZ), np.kron(_ID2, _SX)
_SZSZ = np.kron(_SZ, _SZ)

#: Width [V] below which :func:`crossing_geometry` stops narrowing its
#: bracket, relative to max(1 V, |V|).
BRACKET_TOL = 1e-12
#: Points of each re-grid of the bracket in :func:`crossing_geometry`;
#: each re-grid narrows the bracket at least 7.5-fold.  16 to 32 points
#: time alike (0.8-1.3 ms per 241-point sweep on a 2-vCPU x86-64 VM);
#: 8 points take more rounds and the sweep's own length more points.
REGRID_POINTS = 16
#: Largest grid-minimum splitting [GHz] that :func:`crossing_geometry`
#: still takes for a crossing.
APPROACH_WINDOW = 0.5


@dataclass(frozen=True)
class CoupledPair:
    """Two TLS plus their mutual coupling.

    Exactly one parameterization is given: ``g_localized`` [MHz] for the
    localized-basis model, or ``(g_z, g_x)`` [MHz] for the truncated
    eigenbasis model.  :func:`pair_transitions` evaluates the pair in
    the model it was given.
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


def transitions_truncated(
    e1: np.ndarray, e2: np.ndarray, g_z: float, g_x: float
) -> tuple[np.ndarray, np.ndarray]:
    """Single-excitation transitions of the truncated model, closed form.

    The 4x4 truncated Hamiltonian splits into two 2x2 blocks; from the
    ground state the two transitions are

        T+- = -g_z + (sqrt(S^2 + gx^2) +- sqrt(D^2 + gx^2)) / 2

    with S = E1 + E2 and D = E1 - E2.  Inputs in GHz, couplings in MHz;
    returns (lower, upper) transition branches in GHz.  Vectorized over
    bias arrays.  Cross-checked against a dense eigensolver in tests.
    """
    e1 = np.asarray(e1, dtype=float)
    e2 = np.asarray(e2, dtype=float)
    gz = g_z / MHZ_PER_GHZ
    gx = g_x / MHZ_PER_GHZ
    s = np.hypot(e1 + e2, gx)
    d = np.hypot(e1 - e2, gx)
    return -gz + 0.5 * (s - d), -gz + 0.5 * (s + d)


def pair_transitions(pair: CoupledPair, v_p, v_g, v_s) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) single-excitation transitions [GHz] of a pair.

    Voltages [V] are floats or arrays that broadcast against each other.
    A ``(g_z, g_x)`` pair uses :func:`transitions_truncated`; a
    ``g_localized`` pair diagonalizes one stack of 4x4 Hamiltonians.
    """
    eps1, e1 = energies(pair.tls1, v_p, v_g, v_s)
    eps2, e2 = energies(pair.tls2, v_p, v_g, v_s)
    if pair.g_localized is None:
        return transitions_truncated(e1, e2, pair.g_z, pair.g_x)
    eps1 = np.asarray(eps1)[..., None, None]
    eps2 = np.asarray(eps2)[..., None, None]
    fixed = (pair.tls1.delta0 * _SX1 + pair.tls2.delta0 * _SX2
             + pair.g_localized / MHZ_PER_GHZ * _SZSZ)
    levels = np.linalg.eigvalsh(0.5 * (eps1 * _SZ1 + eps2 * _SZ2 + fixed))
    return levels[..., 1] - levels[..., 0], levels[..., 2] - levels[..., 0]


def crossing_geometry(pair: CoupledPair, sweep: Sequence[BiasPoint]) -> tuple[float, float]:
    """Locate the avoided crossing along a one-control bias sweep.

    Exactly one control varies over the sweep, strictly monotonically;
    the other two hold one value at every point.  The minimum splitting
    between the two single-excitation transitions is bracketed by the
    sweep grid's argmin and its neighbours; the bracket is re-gridded at
    :data:`REGRID_POINTS` points and narrowed the same way until it is
    :data:`BRACKET_TOL` wide.  ``v_min`` is the last grid's argmin: the
    final bracket's midpoint, or the sweep's end where the minimum is.

    Parameters
    ----------
    pair : CoupledPair
    sweep : sequence of BiasPoint
        Strictly monotone in one of v_p, v_g, v_s; the others constant.

    Returns
    -------
    (v_min, splitting_min) : tuple of float
        Bias voltage of the swept control [V] and minimum splitting [MHz].

    Raises
    ------
    NoCrossingInRange
        If the transitions never approach within ``APPROACH_WINDOW``.
    """
    if len(sweep) < 3:
        raise ValueError("sweep needs at least 3 points")
    names = ("v_p", "v_g", "v_s")
    points = chain.from_iterable(map(attrgetter(*names), sweep))
    grid = np.fromiter(points, float, 3 * len(sweep)).reshape(-1, 3)
    varied = np.flatnonzero((grid != grid[0]).any(axis=0))
    if varied.size != 1:
        raise ValueError("sweep must vary exactly one control")
    control, volts = names[varied[0]], grid[:, varied[0]]
    steps = np.diff(volts)
    if not (np.all(steps > 0) or np.all(steps < 0)):
        raise ValueError(f"sweep is not monotone in {control}")
    held = {n: getattr(sweep[0], n) for n in names}

    def splitting(v):
        lower, upper = pair_transitions(pair, **{**held, control: v})
        return upper - lower

    grid, split = volts, splitting(volts)
    k = int(np.argmin(split))
    if split[k] > APPROACH_WINDOW:
        raise NoCrossingInRange(
            f"minimum splitting {split[k]:.4g} GHz exceeds the "
            f"{APPROACH_WINDOW:.4g} GHz window"
        )
    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]
    while abs(hi - lo) > BRACKET_TOL * max(1.0, abs(lo), abs(hi)):
        grid = np.linspace(lo, hi, REGRID_POINTS)
        split = splitting(grid)
        k = int(np.argmin(split))
        lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, REGRID_POINTS - 1)]
    return float(grid[k]), float(split[k]) * MHZ_PER_GHZ

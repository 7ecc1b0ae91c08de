"""Small dense Hermitian eigensolver: input checks around numpy.linalg.eigh.

The spectra needed here are 2x2 and 4x4 Hamiltonians.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonHermitianInput


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a small Hermitian matrix.

    ``eigenvalues`` are ascending; column k of ``eigenvectors`` belongs to
    ``eigenvalues[k]``.  For 4x4 Hamiltonians, ``transition_01`` and
    ``transition_02`` are the two single-excitation transition energies
    out of the ground state.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def transition_01(self) -> float:
        return float(self.eigenvalues[1] - self.eigenvalues[0])

    @property
    def transition_02(self) -> float:
        return float(self.eigenvalues[2] - self.eigenvalues[0])


def eigensolve_hermitian(h: np.ndarray, tol: float = 1e-10) -> Spectrum:
    """Diagonalize a small Hermitian matrix; eigenvalues ascending.

    Parameters
    ----------
    h : ndarray
        Real symmetric or complex Hermitian matrix (2x2 or 4x4 in normal
        use).
    tol : float
        Largest tolerated relative asymmetry before the input is rejected.

    Raises
    ------
    NonHermitianInput
        If ``h`` deviates from its conjugate transpose by more than
        ``tol`` relative to its norm.
    """
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise NonHermitianInput(f"expected a square matrix, got shape {h.shape}")
    scale = np.abs(h).max() or 1.0
    if np.abs(h - h.conj().T).max() > tol * scale:
        raise NonHermitianInput("matrix is not Hermitian within tolerance")

    values, vectors = np.linalg.eigh(h)
    return Spectrum(values, vectors)

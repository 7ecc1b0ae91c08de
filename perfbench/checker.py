"""Output checks.  Each check returns a list of failure messages.

A failed check counts as a failed operation of the run.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from workloads import TRUE_GAMMA_P2, TRUE_G_X_MHZ, TRUE_G_Z_MHZ

SCHEMA_VERSION = 1

#: Largest tolerated worst relative error of (g_z, g_x, gamma_p2).
COUPLED_TOL = 0.02


def check_exit(command: str, returncode: int) -> list[str]:
    return [] if returncode == 0 else [f"{command}: exit code {returncode}"]


def check_schema(path: Path) -> list[str]:
    """The JSON file exists, parses and carries the known schema_version."""
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        return [f"{Path(path).name}: unreadable ({exc})"]
    version = payload.get("schema_version") if isinstance(payload, dict) else None
    if version != SCHEMA_VERSION:
        return [f"{Path(path).name}: schema_version {version!r}, expected {SCHEMA_VERSION}"]
    return []


def check_same_bytes(reference: Path, other: Path) -> list[str]:
    """Two runs of the same command wrote byte-identical files."""
    try:
        same = Path(reference).read_bytes() == Path(other).read_bytes()
    except OSError as exc:
        return [f"{Path(other).name}: {exc}"]
    return [] if same else [f"{Path(other).name}: differs from {reference}"]


def check_dataset(simulated, csv_path: Path, read=None) -> list[str]:
    """``read_dataset`` of the written CSV equals the simulated grid bit for bit.

    ``read`` is the dataset the program already read from ``csv_path``;
    without it the file is read here.
    """
    if read is None:
        from tls_scope import dataio
        from tls_scope.errors import TlsScopeError

        try:
            read = dataio.read_dataset(csv_path)
        except (TlsScopeError, ValueError, OSError) as exc:
            return [f"{Path(csv_path).name}: unreadable ({exc})"]
    name = Path(csv_path).name
    if len(read.segments) != len(simulated.segments):
        return [f"{name}: {len(read.segments)} segments, simulated {len(simulated.segments)}"]
    failures = []
    if not _same_bits(read.freq_ghz, simulated.freq_ghz):
        failures.append(f"{name}: frequency axis differs")
    pairs = zip(read.segments, simulated.segments, read.t1_us, simulated.t1_us)
    for s, (seg_r, seg_s, grid_r, grid_s) in enumerate(pairs):
        if seg_r.control != seg_s.control or not _same_bits(seg_r.bias, seg_s.bias):
            failures.append(f"{name}: segment {s} bias axis differs")
        if not _same_bits(grid_r, grid_s):
            failures.append(f"{name}: segment {s} T1 grid differs")
    return failures


def _same_bits(a, b) -> bool:
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def coupled_rel_err(coupled_fit: Path) -> float:
    """Worst relative error of the fitted (g_z, g_x, gamma_p2)."""
    fit = json.loads(Path(coupled_fit).read_text())
    pairs = (
        (fit["g_z_MHz"], TRUE_G_Z_MHZ),
        (fit["g_x_MHz"], TRUE_G_X_MHZ),
        (fit["gamma_p2_GHz_per_V"], TRUE_GAMMA_P2),
    )
    return max(abs(got - want) / abs(want) for got, want in pairs)


def check_coupled(coupled_fit: Path) -> tuple[list[str], float]:
    """Failures and the worst relative error (NaN if unreadable)."""
    try:
        err = coupled_rel_err(coupled_fit)
    except (OSError, ValueError, KeyError) as exc:
        return [f"{Path(coupled_fit).name}: unreadable ({exc})"], float("nan")
    if err > COUPLED_TOL:
        return [f"coupled fit off by {err:.3g} (tolerance {COUPLED_TOL})"], err
    return [], err


def geometry_oracle(pair, v_lo: float, v_hi: float, n: int = 4001):
    """(v_min, splitting_min [MHz], grid step) of a localized-basis pair on a fine grid.

    The sweep moves V_s only, at V_p = V_g = 0.  Builds the 4x4
    Hamiltonian independently of the program and diagonalizes it with
    ``numpy.linalg.eigvalsh``.
    """
    sz = np.diag([1.0, -1.0])
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    eye = np.eye(2)
    v = np.linspace(v_lo, v_hi, n)
    h = np.zeros((n, 4, 4))
    for t, place in ((pair.tls1, lambda m: np.kron(m, eye)), (pair.tls2, lambda m: np.kron(eye, m))):
        eps = t.eps_i + t.gamma_s * v
        h += 0.5 * (eps[:, None, None] * place(sz) + t.delta0 * place(sx))
    h += 0.5 * pair.g_localized / 1e3 * np.kron(sz, sz)
    levels = np.linalg.eigvalsh(h)
    split = levels[:, 2] - levels[:, 1]
    k = int(np.argmin(split))
    return float(v[k]), float(split[k] * 1e3), float(v[1] - v[0])


def check_geometry(pair, sweep, v_min: float, s_min: float) -> list[str]:
    """The located crossing agrees with the fine-grid oracle."""
    v_star, s_star, dv = geometry_oracle(pair, sweep[0].v_s, sweep[-1].v_s)
    failures = []
    if abs(v_min - v_star) > 2 * dv:
        failures.append(f"crossing at {v_min:.6g} V, oracle {v_star:.6g} V")
    # The refined minimum may only undercut the grid minimum, and barely.
    if not (s_star * (1 - 1e-4) - 1e-9 <= s_min <= s_star + 1e-9):
        failures.append(f"splitting {s_min:.6g} MHz, oracle {s_star:.6g} MHz")
    return failures

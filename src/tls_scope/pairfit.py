"""Fitting avoided-crossing scans of two interacting defects.

The data are strain-stacked crossing panels: per piezo setting, the
extracted resonance points (V_s, f) around the crossing of two TLS whose
single-defect parameters are already known from wide scans.  The fit
floats (g_z, g_x, gamma_p2) of the truncated interaction model and
minimizes the distance of every point to the nearer of the two
single-excitation transitions, re-assigned each iteration.

The truncated model sees g_x only through g_x^2, so the *sign* of the
transverse coupling is not identifiable from transition frequencies; the
reported sign follows the sign of the supplied initial guess and the
result carries ``gx_sign_from_convention=True``.  The longitudinal
coupling enters linearly (it offsets both transitions against the known
bare hyperbolas), so its sign is measured.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .constants import MHZ_PER_GHZ
from .coupled import transitions_truncated
from .errors import AmbiguousSigns, NoConvergence, NoTracesFound
from .lm import lm_fit
from .stm import TlsParams, energies

#: Parameter distances (g_z [MHz], |g_x| [MHz], gamma_p2 [GHz/V]) above
#: which two converged sign branches count as different solutions.
DISTINCT_TOL = (0.1, 0.1, 1e-4)


@dataclass(frozen=True)
class CrossingPanel:
    """Extracted resonance points of one V_s sweep at fixed strain."""

    v_p: float
    v_s: np.ndarray
    freq: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        if self.v_s.shape != self.freq.shape:
            raise ValueError("v_s and freq must have matching shapes")


@dataclass(frozen=True)
class PairFitResult:
    """Best-fit interaction parameters and their covariance."""

    g_z: float
    g_x: float
    gamma_p2: float
    covariance: np.ndarray
    chi2: float
    n_points: int
    gx_sign_from_convention: bool = True

    @property
    def sigma(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))

    def model_transitions(
        self, tls1: TlsParams, tls2: TlsParams, v_p: float, v_s
    ) -> tuple[np.ndarray, np.ndarray]:
        """(lower, upper) transition branches [GHz] along a V_s sweep."""
        v_s = np.asarray(v_s, dtype=float)
        (_, e1), (_, e2) = _bare_energies(tls1, tls2, self.gamma_p2, v_p, v_s)
        return transitions_truncated(e1, e2, self.g_z, self.g_x)


def _bare_energies(tls1, tls2, gamma_p2, v_p, v_s):
    """(eps, E) [GHz] of each defect at V_g = 0; gamma_p2 replaces tls2.gamma_p."""
    return (
        energies(tls1, v_p, 0.0, v_s),
        energies(replace(tls2, gamma_p=gamma_p2), v_p, 0.0, v_s),
    )


def panel_points_from_dataset(ds, opts) -> CrossingPanel:
    """Pool the points ``extract_traces(ds, opts)`` finds in a one-segment crossing scan.

    Raises
    ------
    NoTracesFound
        If the scan shows no resonance trace.
    """
    from .traces import extract_traces

    if len(ds.segments) != 1 or ds.segments[0].control != "sample":
        raise ValueError("crossing panels are single-segment V_s sweeps")
    v_p = float(ds.segments[0].held["v_p"])
    vs, fs, ws = [], [], []
    for tr in extract_traces(ds, opts):
        v, f, w = tr.arrays()
        vs.append(v)
        fs.append(f)
        ws.append(w)
    if not vs:
        raise NoTracesFound("no resonance traces found in the panel")
    return CrossingPanel(
        v_p=v_p,
        v_s=np.concatenate(vs),
        freq=np.concatenate(fs),
        weight=np.concatenate(ws),
    )


def _stack(panels):
    v_p = np.concatenate([np.full(p.v_s.size, p.v_p) for p in panels])
    v_s = np.concatenate([p.v_s for p in panels])
    f = np.concatenate([p.freq for p in panels])
    w = np.concatenate([p.weight for p in panels])
    return v_p, v_s, f, w


def fit_coupled_pair(
    panels: list[CrossingPanel],
    tls1: TlsParams,
    tls2: TlsParams,
    g_z0: float = 10.0,
    g_x0: float = -10.0,
    gamma_p2_0: float = 0.0,
) -> PairFitResult:
    """Fit (g_z, g_x, gamma_p2) to crossing panels, multi-start over the sign of g_z.

    Parameters
    ----------
    panels : list of CrossingPanel
        At least one; several strain settings make gamma_p2 and the sign
        of g_z well determined.
    tls1, tls2 : TlsParams
        Wide-scan parameters; tls2.gamma_p is replaced by the fit.
    g_z0, g_x0, gamma_p2_0 : float
        Initial guesses [MHz, MHz, GHz/V].  The sign of ``g_x0`` picks
        the reported g_x sign convention.

    Raises
    ------
    AmbiguousSigns
        When two genuinely different solutions fit the data equally well
        (within one standard deviation of the chi^2 difference), e.g.
        for data covering only one side of the crossing.
    NoConvergence
        If no multi-start branch converges.
    """
    if not panels:
        raise ValueError("need at least one panel")
    v_p, v_s, f_data, w = _stack(panels)

    def model_branches(x):
        gz, gx, gp2 = x
        bare = _bare_energies(tls1, tls2, gp2, v_p, v_s)
        (_, e1), (_, e2) = bare
        return transitions_truncated(e1, e2, gz, gx), bare

    def residuals(x):
        (t_lo, t_hi), _ = model_branches(x)
        r_lo = f_data - t_lo
        r_hi = f_data - t_hi
        return np.where(np.abs(r_lo) <= np.abs(r_hi), r_lo, r_hi)

    def jacobian(x):
        gz, gx, gp2 = x
        (t_lo, t_hi), ((_, e1), (eps2, e2)) = model_branches(x)
        upper = np.abs(f_data - t_hi) < np.abs(f_data - t_lo)
        pm = np.where(upper, 1.0, -1.0)
        gx_ghz = gx / MHZ_PER_GHZ
        s = np.hypot(e1 + e2, gx_ghz)
        d = np.hypot(e1 - e2, gx_ghz)
        dt_dgz = np.full(f_data.shape, -1.0 / MHZ_PER_GHZ)
        dt_dgx = (gx_ghz / MHZ_PER_GHZ) * 0.5 * (1.0 / s + pm / d)
        de2 = np.divide(eps2, e2, out=np.zeros_like(e2), where=e2 > 0) * v_p
        dt_de2 = 0.5 * ((e1 + e2) / s - pm * (e1 - e2) / d)
        dt_dgp2 = dt_de2 * de2
        return -np.column_stack((dt_dgz, dt_dgx, dt_dgp2))

    # Start from both signs of g_z only.  The model sees g_x through g_x^2
    # alone, so a start at -g_x retraces the one at +g_x with the sign of
    # g_x flipped, bit for bit, and adds no branch.
    candidates = []
    g_z0 = abs(g_z0) or 10.0
    g_x0_mag = abs(g_x0) or 10.0
    for sz in (1.0, -1.0):
        x0 = np.array([sz * g_z0, g_x0_mag, gamma_p2_0])
        try:
            res = lm_fit(residuals, jacobian, x0, weights=w)
        except NoConvergence:
            continue
        candidates.append(res)
    if not candidates:
        raise NoConvergence("no sign branch of the coupled fit converged")

    # Fold the exact gx -> -gx reflection into one canonical candidate
    sign_convention = 1.0 if g_x0 >= 0 else -1.0
    canon = []
    for res in candidates:
        gz, gx, gp2 = res.params
        key = (gz, abs(gx), gp2)
        if not any(
            all(abs(a - b) <= tol for a, b, tol in zip(key, prev_key, DISTINCT_TOL))
            for prev_key, _prev in canon
        ):
            canon.append((key, res))
    canon.sort(key=lambda kr: kr[1].chi2)
    best = canon[0][1]

    if len(canon) > 1:
        runner = canon[1][1]
        dof = max(f_data.size - 3, 1)
        s2 = best.chi2 / dof
        tie_band = s2 * np.sqrt(2.0 * dof) + 1e-9 * (1.0 + best.chi2)
        if runner.chi2 - best.chi2 <= tie_band:
            raise AmbiguousSigns(
                "two sign branches fit equally well: "
                f"{tuple(np.round(best.params, 3))} vs "
                f"{tuple(np.round(runner.params, 3))}"
            )

    gz, gx, gp2 = best.params
    cov = best.covariance
    if gx * sign_convention < 0:
        gx = -gx
        flip = np.diag([1.0, -1.0, 1.0])
        cov = flip @ cov @ flip
    return PairFitResult(
        g_z=float(gz),
        g_x=float(gx),
        gamma_p2=float(gp2),
        covariance=cov,
        chi2=float(best.chi2),
        n_points=int(f_data.size),
    )

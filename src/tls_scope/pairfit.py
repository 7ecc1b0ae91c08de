"""Fitting avoided-crossing scans of two interacting defects.

The data are strain-stacked crossing panels: per piezo setting, the
extracted resonance points (V_s, f) around the crossing of two TLS whose
single-defect parameters are already known from wide scans.  The fit
floats (g_z, g_x, gamma_p2) of the truncated interaction model and
minimizes the distance of every point to the nearer of the two
single-excitation transitions (:func:`nearer_branch`), re-assigned each
iteration.  Both sign starts of g_z run as one lockstep
:func:`~tls_scope.lm.lm_batch`.

The truncated model sees g_x only through g_x^2, so the *sign* of the
transverse coupling is not identifiable from transition frequencies; the
reported sign follows the sign of the supplied initial guess, and
``coupled_fit.json`` says so with ``"gx_sign_from_convention": true``.
The longitudinal coupling enters linearly (it offsets both transitions
against the known bare hyperbolas), so its sign is measured.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .constants import MHZ_PER_GHZ
from .coupled import CoupledPair, pair_transitions, transitions_truncated
from .errors import AmbiguousSigns, ConfigError, NoConvergence, NoTracesFound, SchemaError
from .lm import lm_batch
from .stm import TlsParams, TlsTable, energies

#: ``extract_traces``'s match window on crossing panels [grid steps per
#: bias step]; not the survey's ``JUMP_LIMIT``: the branches bend sharply.
PANEL_JUMP_LIMIT = 8.0

#: Parameter distances (g_z [MHz], |g_x| [MHz], gamma_p2 [GHz/V]) above
#: which two converged sign branches count as different solutions.
DISTINCT_TOL = (0.1, 0.1, 1e-4)


@dataclass(frozen=True)
class CrossingPanel:
    """Extracted resonance points of one V_s sweep at fixed strain, with their bias steps."""

    v_p: float
    bias_index: np.ndarray
    v_s: np.ndarray
    freq: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        if not self.bias_index.shape == self.v_s.shape == self.freq.shape:
            raise ValueError("bias_index, v_s and freq must have matching shapes")


@dataclass(frozen=True)
class PairFitResult:
    """Best-fit interaction parameters and their covariance."""

    g_z: float
    g_x: float
    gamma_p2: float
    covariance: np.ndarray
    chi2: float
    n_points: int

    @property
    def sigma(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))

    def model_transitions(
        self, tls1: TlsParams, tls2: TlsParams, v_p: float, v_s
    ) -> tuple[np.ndarray, np.ndarray]:
        """(lower, upper) transition branches [GHz] along a V_s sweep at V_g = 0."""
        pair = CoupledPair(tls1, replace(tls2, gamma_p=self.gamma_p2), self.g_z, self.g_x)
        return pair_transitions(pair, v_p, 0.0, np.asarray(v_s, dtype=float))


def nearer_branch(f, lower, upper, on_lower, on_upper):
    """``on_upper`` where ``f`` is nearer the upper branch, else ``on_lower``
    (a tie goes to the lower branch)."""
    return np.where(np.abs(f - upper) < np.abs(f - lower), on_upper, on_lower)


def panel_points_from_dataset(ds) -> CrossingPanel:
    """Pool the points ``extract_traces(ds, PANEL_JUMP_LIMIT)`` finds in a
    one-segment crossing scan.

    Raises
    ------
    ConfigError
        If the dataset is not a one-segment V_s sweep.
    SchemaError
        If the segment's sidecar entry holds no V_p.
    NoTracesFound
        If the scan shows no resonance trace.
    """
    from .traces import extract_traces

    if len(ds.segments) != 1 or ds.segments[0].control != "sample":
        raise ConfigError("crossing panels are single-segment V_s sweeps")
    if "v_p" not in ds.segments[0].held:
        raise SchemaError("crossing panel: the sidecar's segment 0 has no held 'v_p'")
    v_p = float(ds.segments[0].held["v_p"])
    traces = extract_traces(ds, PANEL_JUMP_LIMIT)
    if not traces:
        raise NoTracesFound("no resonance traces found in the panel")
    bias_index = np.concatenate([tr.bias_index for tr in traces])
    return CrossingPanel(
        v_p=v_p,
        bias_index=bias_index,
        v_s=np.asarray(ds.segments[0].bias, dtype=float)[bias_index],
        freq=np.concatenate([tr.freq for tr in traces]),
        weight=np.concatenate([tr.weight for tr in traces]),
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
    *,
    g_z0: float,
    g_x0: float,
    gamma_p2_0: float,
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
        If no multi-start branch converges, or the chosen one has no
        covariance because J^T W J is singular there (e.g. gamma_p2 with
        every panel at V_p = 0).
    """
    if not panels:
        raise ConfigError("need at least one panel")
    v_p, v_s, f_data, w = _stack(panels)
    _, e1 = energies(tls1, v_p, 0.0, v_s)
    table2 = TlsTable.of([tls2])  # a table holds the trial gamma_p2 column

    def model(x):
        """(lower, upper) branches, eps2 and E2 of each row (g_z, g_x, gamma_p2) of x."""
        eps2, e2 = energies(replace(table2, gamma_p=x[:, 2:]), v_p, 0.0, v_s)
        return transitions_truncated(e1, e2, x[:, :1], x[:, 1:2]), eps2, e2

    def residuals(x, _rows):
        (t_lo, t_hi), _, _ = model(x)
        return nearer_branch(f_data, t_lo, t_hi, f_data - t_lo, f_data - t_hi)

    def jacobian(x, _rows):
        (t_lo, t_hi), eps2, e2 = model(x)
        pm = nearer_branch(f_data, t_lo, t_hi, -1.0, 1.0)
        gx_ghz = x[:, 1:2] / MHZ_PER_GHZ
        s = np.hypot(e1 + e2, gx_ghz)
        d = np.hypot(e1 - e2, gx_ghz)
        dt_dgz = np.full(e2.shape, -1.0 / MHZ_PER_GHZ)
        dt_dgx = (gx_ghz / MHZ_PER_GHZ) * 0.5 * (1.0 / s + pm / d)
        de2 = np.divide(eps2, e2, out=np.zeros_like(e2), where=e2 > 0) * v_p
        dt_de2 = 0.5 * ((e1 + e2) / s - pm * (e1 - e2) / d)
        return -np.stack((dt_dgz, dt_dgx, dt_de2 * de2), axis=-1)

    # Start from both signs of g_z only.  The model sees g_x through g_x^2
    # alone, so a start at -g_x retraces the one at +g_x with the sign of
    # g_x flipped, bit for bit, and adds no branch.
    g_z0 = abs(g_z0) or 10.0
    g_x0_mag = abs(g_x0) or 10.0
    x0 = [[g_z0, g_x0_mag, gamma_p2_0], [-g_z0, g_x0_mag, gamma_p2_0]]
    params, cov, chi2, _n_iter, converged = lm_batch(
        residuals, jacobian, x0, np.tile(w, (2, 1)), [w.size] * 2)
    rows = np.flatnonzero(converged)
    if not rows.size:
        raise NoConvergence("no sign branch of the coupled fit converged")
    # Fold the exact gx -> -gx reflection; two starts that reach one
    # solution give the +g_z start's result.
    key = np.column_stack((params[:, 0], np.abs(params[:, 1]), params[:, 2]))
    if rows.size == 2 and np.all(np.abs(key[0] - key[1]) <= DISTINCT_TOL):
        rows = rows[:1]
    best, *runner = sorted(rows.tolist(), key=chi2.__getitem__)

    if runner:
        dof = max(f_data.size - 3, 1)
        s2 = chi2[best] / dof
        tie_band = s2 * np.sqrt(2.0 * dof) + 1e-9 * (1.0 + chi2[best])
        if chi2[runner[0]] - chi2[best] <= tie_band:
            raise AmbiguousSigns(
                "two sign branches fit equally well: "
                f"{tuple(np.round(params[best], 3))} vs "
                f"{tuple(np.round(params[runner[0]], 3))}"
            )

    gz, gx, gp2 = params[best]
    cov = cov[best]
    if not np.isfinite(cov).all():
        raise NoConvergence(
            "the coupled fit's J^T W J is singular at the solution: no covariance"
        )
    if gx * (1.0 if g_x0 >= 0 else -1.0) < 0:
        gx = -gx
        flip = np.diag([1.0, -1.0, 1.0])
        cov = flip @ cov @ flip
    return PairFitResult(
        g_z=float(gz),
        g_x=float(gx),
        gamma_p2=float(gp2),
        covariance=cov,
        chi2=float(chi2[best]),
        n_points=int(f_data.size),
    )

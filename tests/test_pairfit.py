"""The coupled-pair fit against a copy of the serial two-start fit it replaces.

``reference_fit_coupled_pair`` is ``fit_coupled_pair`` as it was when each
sign start ran its own LM loop, kept here verbatim but for its docstring,
with ``reference_lm_fit`` as that loop, and with the rule that a chosen
branch without a finite covariance is a ``NoConvergence``.  The lockstep fit must give its
floats bit for bit, and the same exception with the same text.
"""

from dataclasses import replace
from functools import cache

import numpy as np
import pytest

from test_batch_fit import reference_lm_fit
from test_cli import PAIR, PANEL_FREQ, PANEL_V_S, TLS

from tls_scope import cli
from tls_scope.constants import MHZ_PER_GHZ
from tls_scope.coupled import CoupledPair, transitions_truncated
from tls_scope.errors import AmbiguousSigns, NoConvergence
from tls_scope.pairfit import (
    DISTINCT_TOL,
    PairFitResult,
    _stack,
    fit_coupled_pair,
    panel_points_from_dataset,
)
from tls_scope.pipeline import AnalysisOptions
from tls_scope.spectro import coupled_pair_t1_map
from tls_scope.stm import energies


def reference_fit_coupled_pair(panels, tls1, tls2, g_z0, g_x0, gamma_p2_0):
    if not panels:
        raise ValueError("need at least one panel")
    v_p, v_s, f_data, w = _stack(panels)

    def bare_energies(gamma_p2):
        return (
            energies(tls1, v_p, 0.0, v_s),
            energies(replace(tls2, gamma_p=gamma_p2), v_p, 0.0, v_s),
        )

    def model_branches(x):
        gz, gx, gp2 = x
        bare = bare_energies(gp2)
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

    candidates = []
    g_z0 = abs(g_z0) or 10.0
    g_x0_mag = abs(g_x0) or 10.0
    for sz in (1.0, -1.0):
        x0 = np.array([sz * g_z0, g_x0_mag, gamma_p2_0])
        try:
            res = reference_lm_fit(residuals, jacobian, x0, weights=w)
        except NoConvergence:
            continue
        candidates.append(res)
    if not candidates:
        raise NoConvergence("no sign branch of the coupled fit converged")

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
    if not np.isfinite(cov).all():
        raise NoConvergence(
            "the coupled fit's J^T W J is singular at the solution: no covariance"
        )
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


#: The start values and the panel extraction options `coupled` uses.
STARTS = {"g_z0": cli.COUPLED_DEFAULTS["g_z0_mhz"], "g_x0": cli.COUPLED_DEFAULTS["g_x0_mhz"],
          "gamma_p2_0": cli.COUPLED_DEFAULTS["gamma_p2_0"]}
PANEL_OPTIONS = AnalysisOptions(threshold=cli.COUPLED_DEFAULTS["threshold"],
                                jump_limit=cli.COUPLED_DEFAULTS["jump_limit"])


def fit_inputs(pair, seed, v_p_values=(0.0,), v_s=PANEL_V_S):
    """Crossing panels of ``pair`` as `coupled` extracts them (panel k
    gets noise seed ``seed + k``), tls1, and tls2 without its gamma_p."""
    panels = [
        panel_points_from_dataset(
            coupled_pair_t1_map(pair, v_s, v_p, PANEL_FREQ, field_rms=90.0,
                                gamma1_background=1 / 4.3, noise_sigma=0.1, seed=seed + k),
            PANEL_OPTIONS)
        for k, v_p in enumerate(v_p_values)
    ]
    return panels, pair.tls1, replace(pair.tls2, gamma_p=0.0)


def one_sided(lo_mv, hi_mv):
    return fit_inputs(PAIR, 1, (-4.0, 0.0, 4.0),
                      PANEL_V_S[(PANEL_V_S >= lo_mv * 1e-3 - 1e-12) & (PANEL_V_S <= hi_mv * 1e-3)])


CASES = {
    "three-panels": lambda: fit_inputs(PAIR, 1, (-4.0, 0.0, 4.0)),
    "one-sided-low": lambda: one_sided(-2.4, -1.6),
    "one-sided-wide": lambda: one_sided(-0.8, 2.4),
    "one-sided-high": lambda: one_sided(1.0, 2.4),
    **{f"identical-seed{s}": (lambda s=s: fit_inputs(CoupledPair(TLS, TLS, g_z=0.0, g_x=0.0), s))
       for s in range(12)},
}


@cache
def case_inputs(case):
    return CASES[case]()


def outcome(fit, inputs, **starts):
    """Exact bytes of a pair fit, or the type and text of what it raised."""
    try:
        res = fit(*inputs, **starts)
    except (AmbiguousSigns, NoConvergence) as exc:
        return type(exc).__name__, str(exc)
    return (np.array([res.g_z, res.g_x, res.gamma_p2, res.chi2]).tobytes(),
            res.covariance.tobytes(), res.n_points)


@pytest.mark.parametrize("case", CASES)
def test_bit_identical_to_serial(case):
    inputs = case_inputs(case)
    assert outcome(fit_coupled_pair, inputs, **STARTS) == outcome(
        reference_fit_coupled_pair, inputs, **STARTS)


def test_the_cases_have_every_outcome():
    kinds = {outcome(fit_coupled_pair, case_inputs(c), **STARTS)[0] for c in CASES}
    assert "AmbiguousSigns" in kinds and any(isinstance(k, bytes) for k in kinds)


def test_positive_gx_start_flips_gx_and_its_covariance():
    inputs = case_inputs("three-panels")
    neg = fit_coupled_pair(*inputs, **STARTS)
    pos = fit_coupled_pair(*inputs, **{**STARTS, "g_x0": -STARTS["g_x0"]})
    assert neg.g_x < 0 and pos.g_x == -neg.g_x
    assert (pos.g_z, pos.gamma_p2, pos.chi2) == (neg.g_z, neg.gamma_p2, neg.chi2)
    flip = np.array([1.0, -1.0, 1.0])
    assert np.array_equal(pos.covariance, neg.covariance * np.outer(flip, flip))


def test_start_values_are_required():
    with pytest.raises(TypeError):
        fit_coupled_pair(*case_inputs("three-panels"))

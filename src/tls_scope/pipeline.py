"""Dataset analysis: extract, fit, classify, and summarize defects.

Glues the extraction, hyperbola fitting and classification stages into
the per-defect records consumed by reporting and by the material
metrics.  Each linked track fits its own traces, control by control; a
control counts as "responding" when at least one segment shows a tuning
rate that is both resolvable on the frequency grid and significant
against its own uncertainty.  A record keeps that ``responds`` map and
the :class:`~tls_scope.stm.Location` it classifies to.  Settings come in
one :class:`~tls_scope.traces.AnalysisOptions`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classify import classify_location, spectral_density
from .hyperbola import TraceFit, fit_hyperbolas as fit_hyperbola  # the name perfbench wraps
from .spectro import CONTROLS, SpectroscopyDataset
from .stm import Location, gamma_s_to_dipole
from .traces import AnalysisOptions, Trace, extract_traces, link_tracks

#: A fitted tuning rate counts as a response when it moves the line by
#: more than this many frequency-grid steps over its segment ...
RESPONSE_GRID_FACTOR = 3.0
#: ... and exceeds this many of its own standard deviations.
RESPONSE_SIGMA_FACTOR = 3.0


@dataclass
class TlsRecord:
    """Analysis outcome for one tracked defect."""

    id: int
    location: Location
    responds: dict
    delta0: float | None
    delta0_sigma: float | None
    delta0_lower_bound_only: bool
    gammas: dict
    p_parallel: float | None
    visible_fractions: list[float]
    n_segments_seen: int
    covariance: list | None

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "class": self.location.value,
            "responds": self.responds,
            "delta0_GHz": self.delta0,
            "delta0_sigma_GHz": self.delta0_sigma,
            "delta0_lower_bound_only": self.delta0_lower_bound_only,
            "gammas_GHz_per_V": self.gammas,
            "p_parallel_eA": self.p_parallel,
            "visible_fractions": self.visible_fractions,
            "n_segments_seen": self.n_segments_seen,
            "covariance": self.covariance,
        }


@dataclass
class AnalysisResult:
    """Everything the fit stage produces for one dataset."""

    records: list[TlsRecord]
    traces: list[Trace]
    tracks: list[list[Trace]]
    density_by_class: dict


def analyze_dataset(
    ds: SpectroscopyDataset, opts: AnalysisOptions = AnalysisOptions()
) -> AnalysisResult:
    """Run extraction, per-segment fits and classification on a dataset."""
    traces = extract_traces(ds, opts)
    tracks = link_tracks(traces, ds, opts)
    # One batch in track order; each track takes the next len(track) fits.
    fits = iter(fit_hyperbola([(tr.bias, tr.freq, tr.weight) for t in tracks for tr in t]))
    records = [_summarize_track(k, [(tr, next(fits)) for tr in t], ds, opts)
               for k, t in enumerate(tracks)]

    span = float(ds.freq_ghz[-1] - ds.freq_ghz[0])
    by_class: dict[str, list] = {}
    for rec in records:
        by_class.setdefault(rec.location.value, []).append(rec.visible_fractions)
    return AnalysisResult(
        records=records,
        traces=traces,
        tracks=tracks,
        density_by_class={
            key: spectral_density(visible, len(ds.segments), span)
            for key, visible in by_class.items()
        },
    )


def _significant(fit: TraceFit, seg_span: float, grid_step: float) -> bool:
    resolvable = abs(fit.gamma) * seg_span > RESPONSE_GRID_FACTOR * grid_step
    significant = abs(fit.gamma) > RESPONSE_SIGMA_FACTOR * fit.sigma[2]
    return resolvable and significant


def _summarize_track(
    k: int,
    track: list[tuple[Trace, TraceFit | Exception]],
    ds: SpectroscopyDataset,
    opts: AnalysisOptions,
) -> TlsRecord:
    per_control: dict[str, list[tuple[TraceFit, float]]] = {c: [] for c in CONTROLS}
    segments_seen = set()
    visible = [0.0] * len(ds.segments)
    for tr, fit in track:
        segments_seen.add(tr.segment)
        seg = ds.segments[tr.segment]
        visible[tr.segment] += len(tr) / seg.bias.size  # one point per bias step
        if not isinstance(fit, TraceFit):
            continue  # DegenerateTrace or NoConvergence
        seg_span = abs(float(seg.bias[-1] - seg.bias[0]))
        per_control[tr.control].append((fit, seg_span))
    visible = [min(f, 1.0) for f in visible]

    responds = {}
    gammas = {}
    best_cov = None
    for control, fits in per_control.items():
        sig = [f for f, s in fits if _significant(f, s, ds.grid_step_ghz)]
        responds[control] = bool(sig)
        if sig:
            wsum = sum(1.0 / max(f.sigma[2], 1e-12) ** 2 for f in sig)
            gamma = sum(abs(f.gamma) / max(f.sigma[2], 1e-12) ** 2 for f in sig) / wsum
            gammas[control] = {
                "gamma": float(gamma),
                "sigma": float(np.sqrt(1.0 / wsum)),
                "n_segments": len(sig),
            }

    # Tunneling energy: prefer fits whose vertex was actually swept over
    candidates = [f for fits in per_control.values() for f, _s in fits]
    measured = [f for f in candidates if not f.delta0_lower_bound_only]
    pool = measured or candidates
    delta0 = delta0_sigma = None
    lower_bound_only = True
    if pool:
        best = min(pool, key=lambda f: f.sigma[0])
        delta0 = float(best.delta0)
        delta0_sigma = float(best.sigma[0])
        lower_bound_only = best.delta0_lower_bound_only
        best_cov = best.covariance.tolist()

    p_parallel = None
    if "sample" in gammas:
        p_parallel = float(
            gamma_s_to_dipole(gammas["sample"]["gamma"], opts.thickness_m)
        )
    return TlsRecord(
        id=k,
        location=classify_location(responds, len(segments_seen) == 1),
        responds=responds,
        delta0=delta0,
        delta0_sigma=delta0_sigma,
        delta0_lower_bound_only=lower_bound_only,
        gammas=gammas,
        p_parallel=p_parallel,
        visible_fractions=visible,
        n_segments_seen=len(segments_seen),
        covariance=best_cov,
    )

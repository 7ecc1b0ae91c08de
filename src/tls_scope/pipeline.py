"""Dataset analysis: extract, fit, classify, and summarize defects.

Glues the extraction, hyperbola fitting and classification stages into
the per-defect records consumed by reporting and by the material
metrics.  Each linked track fits its own traces, control by control; a
control counts as "responding" when at least one segment shows a tuning
rate that is both resolvable on the frequency grid and significant
against its own uncertainty.  A record keeps that ``responds`` map, the
:class:`~tls_scope.stm.Location` it classifies to, and Delta0 from the
fit of smallest sigma(Delta0).  A class's spectral density counts its
trace points.  The tracking rules are :mod:`~tls_scope.traces` constants;
the one input besides the dataset is the film thickness, a property of
the sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classify import classify_location, spectral_density
from .errors import OutOfRange
from .hyperbola import TraceFit, fit_hyperbolas as fit_hyperbola  # the name perfbench wraps
from .spectro import CONTROLS, SpectroscopyDataset
from .stm import Location, gamma_s_to_dipole
from .traces import JUMP_LIMIT, Trace, extract_traces, link_tracks

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
    tracks: list[list[Trace]]
    density_by_class: dict


def analyze_dataset(ds: SpectroscopyDataset, thickness_m: float) -> AnalysisResult:
    """Run extraction, per-segment fits and classification on a dataset
    whose film is ``thickness_m`` [m] thick (the d in p = |gamma_s|*d/2)."""
    if not thickness_m > 0:
        raise OutOfRange("thickness_m", "must be > 0", thickness_m)
    tracks = link_tracks(extract_traces(ds, JUMP_LIMIT), ds)
    # One batch in track order; each track takes the next len(track) fits.
    bias = [seg.bias for seg in ds.segments]
    fits = iter(fit_hyperbola([(bias[tr.segment][tr.bias_index], tr.freq, tr.weight)
                               for t in tracks for tr in t]))
    records = [_summarize_track(k, [(tr, next(fits)) for tr in t], ds, thickness_m)
               for k, t in enumerate(tracks)]

    span = float(ds.freq_ghz[-1] - ds.freq_ghz[0])
    n_bias = [seg.bias.size for seg in ds.segments]
    points: dict[str, list[int]] = {}
    for rec, track in zip(records, tracks):
        counts = points.setdefault(rec.location.value, [0] * len(n_bias))
        for tr in track:
            counts[tr.segment] += tr.freq.size
    return AnalysisResult(
        records=records,
        tracks=tracks,
        density_by_class={key: spectral_density(counts, n_bias, span)
                          for key, counts in points.items()},
    )


def _significant(fit: TraceFit, seg_span: float, grid_step: float) -> bool:
    resolvable = abs(fit.gamma) * seg_span > RESPONSE_GRID_FACTOR * grid_step
    significant = abs(fit.gamma) > RESPONSE_SIGMA_FACTOR * fit.sigma[2]
    return resolvable and significant


def _summarize_track(
    k: int,
    track: list[tuple[Trace, TraceFit | Exception]],
    ds: SpectroscopyDataset,
    thickness_m: float,
) -> TlsRecord:
    per_control: dict[str, list[tuple[TraceFit, float]]] = {c: [] for c in CONTROLS}
    segments_seen = set()
    visible = [0.0] * len(ds.segments)
    for tr, fit in track:
        segments_seen.add(tr.segment)
        seg = ds.segments[tr.segment]
        visible[tr.segment] += tr.freq.size / seg.bias.size  # one point per bias step
        if not isinstance(fit, TraceFit):
            continue  # DegenerateTrace or NoConvergence
        seg_span = abs(float(seg.bias[-1] - seg.bias[0]))
        per_control[seg.control].append((fit, seg_span))

    responds = {}
    gammas = {}
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

    # Tunneling energy: the fit that determines it best
    best = min((f for fits in per_control.values() for f, _s in fits),
               key=lambda f: f.sigma[0], default=None)
    delta0 = delta0_sigma = best_cov = None
    if best is not None:
        delta0 = float(best.delta0)
        delta0_sigma = float(best.sigma[0])
        best_cov = best.covariance.tolist()

    p_parallel = None
    if "sample" in gammas:
        p_parallel = float(gamma_s_to_dipole(gammas["sample"]["gamma"], thickness_m))
    return TlsRecord(
        id=k,
        location=classify_location(responds, len(segments_seen) == 1),
        responds=responds,
        delta0=delta0,
        delta0_sigma=delta0_sigma,
        gammas=gammas,
        p_parallel=p_parallel,
        visible_fractions=visible,
        n_segments_seen=len(segments_seen),
        covariance=best_cov,
    )

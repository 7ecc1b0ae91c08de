"""Dataset analysis: extract, fit, classify, and summarize defects.

Glues the extraction, hyperbola fitting and classification stages into
the per-defect records consumed by reporting and by the material
metrics.  Each linked track is fitted control by control; a control
counts as "responding" when at least one segment shows a tuning rate
that is both resolvable on the frequency grid and significant against
its own uncertainty.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .classify import LocationVerdict, classify_location, spectral_density
from .errors import DegenerateTrace, NoConvergence
from .hyperbola import TraceFit, fit_hyperbola
from .spectro import SpectroscopyDataset
from .stm import Location, gamma_s_to_dipole
from .traces import Trace, extract_traces, link_tracks

CONTROL_KEYS = ("piezo", "global", "sample")


@dataclass
class TlsRecord:
    """Analysis outcome for one tracked defect."""

    id: int
    verdict: LocationVerdict
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
            "class": self.verdict.location.value,
            "responds": {
                "piezo": self.verdict.responds_p,
                "global": self.verdict.responds_g,
                "sample": self.verdict.responds_s,
            },
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
    n_segments: int
    span_ghz: float
    density_by_class: dict = field(default_factory=dict)

    @property
    def density_total(self) -> float:
        return float(sum(self.density_by_class.values(), Fraction(0)))


@dataclass(frozen=True)
class AnalysisOptions:
    """Tunables of the extract-and-fit stage."""

    threshold: float = 0.25
    jump_limit: float = 5.0
    min_points: int = 5
    max_gap: int = 2
    first_link_factor: float = 5.0
    boundary_tol: float = 5.0
    response_grid_factor: float = 3.0
    response_sigma_factor: float = 3.0
    thickness_m: float = 50e-9


def _fit_one_trace(trace: Trace) -> TraceFit | None:
    v, f, w = trace.arrays()
    try:
        return fit_hyperbola(v, f, w)
    except (DegenerateTrace, NoConvergence):
        return None


def analyze_dataset(
    ds: SpectroscopyDataset, opts: AnalysisOptions = AnalysisOptions()
) -> AnalysisResult:
    """Run extraction, per-segment fits and classification on a dataset."""
    traces = extract_traces(
        ds,
        threshold=opts.threshold,
        jump_limit=opts.jump_limit,
        min_points=opts.min_points,
        max_gap=opts.max_gap,
        first_link_factor=opts.first_link_factor,
    )
    tracks = link_tracks(traces, ds, boundary_tol=opts.boundary_tol)

    fit_of = {id(tr): _fit_one_trace(tr) for tr in traces}

    grid_step = ds.grid_step_ghz
    span = float(ds.freq_ghz[-1] - ds.freq_ghz[0])
    records = []
    for k, track in enumerate(tracks):
        records.append(
            _summarize_track(k, track, ds, fit_of, grid_step, opts)
        )

    by_class: dict[str, Fraction] = {}
    for rec in records:
        key = rec.verdict.location.value
        dens = spectral_density([rec.visible_fractions], len(ds.segments), span)
        by_class[key] = by_class.get(key, Fraction(0)) + dens
    return AnalysisResult(
        records=records,
        traces=traces,
        tracks=tracks,
        n_segments=len(ds.segments),
        span_ghz=span,
        density_by_class=by_class,
    )


def _significant(fit: TraceFit, seg_span: float, grid_step: float, opts) -> bool:
    if fit is None:
        return False
    resolvable = abs(fit.gamma) * seg_span > opts.response_grid_factor * grid_step
    significant = abs(fit.gamma) > opts.response_sigma_factor * fit.sigma[2]
    return resolvable and significant


def _summarize_track(
    k: int,
    track: list[Trace],
    ds: SpectroscopyDataset,
    fit_of: dict,
    grid_step: float,
    opts: AnalysisOptions,
) -> TlsRecord:
    per_control: dict[str, list[tuple[TraceFit, float]]] = {c: [] for c in CONTROL_KEYS}
    segments_seen = set()
    visible = [0.0] * len(ds.segments)
    for tr in track:
        segments_seen.add(tr.segment)
        seg = ds.segments[tr.segment]
        visible[tr.segment] += tr.coverage(seg.bias.size)
        fit = fit_of.get(id(tr))
        if fit is not None:
            seg_span = abs(float(seg.bias[-1] - seg.bias[0]))
            per_control[tr.control].append((fit, seg_span))
    visible = [min(f, 1.0) for f in visible]

    responds = {}
    gammas = {}
    best_cov = None
    for control, fits in per_control.items():
        sig = [f for f, s in fits if _significant(f, s, grid_step, opts)]
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
    candidates = [
        f for fits in per_control.values() for f, _s in fits if f is not None
    ]
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

    verdict = classify_location(
        responds_p=responds.get("piezo", False),
        responds_g=responds.get("global", False),
        responds_s=responds.get("sample", False),
        single_segment=len(segments_seen) == 1,
    )
    p_parallel = None
    if "sample" in gammas:
        p_parallel = float(
            gamma_s_to_dipole(gammas["sample"]["gamma"], opts.thickness_m)
        )
    return TlsRecord(
        id=k,
        verdict=verdict,
        delta0=delta0,
        delta0_sigma=delta0_sigma,
        delta0_lower_bound_only=lower_bound_only,
        gammas=gammas,
        p_parallel=p_parallel,
        visible_fractions=visible,
        n_segments_seen=len(segments_seen),
        covariance=best_cov,
    )


def sample_dipoles(result: AnalysisResult) -> np.ndarray:
    """Dipole projections [e*A] of all sample-dielectric classified defects."""
    return np.array(
        [
            r.p_parallel
            for r in result.records
            if r.verdict.location is Location.SAMPLE_DIELECTRIC
            and r.p_parallel is not None
        ]
    )

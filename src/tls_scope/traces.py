"""Resonance-trace extraction from T1 grids.

Per bias step, local T1 minima deeper than a relative threshold become
resonance candidates; candidates are linked across bias steps into
traces by nearest-frequency continuity around a one-step linear
prediction, which keeps steep traces intact and crossing traces apart.
Sub-grid frequency refinement uses a three-point parabola on
log(1/T1), whose peak is locally quadratic for a Lorentzian dip.  All
settings come from one :class:`AnalysisOptions`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hyperbola import MIN_POINTS
from .spectro import SpectroscopyDataset


@dataclass(frozen=True)
class AnalysisOptions:
    """Settings of the extract-and-fit stage, the one home of their defaults.

    ``threshold``: relative T1 dip below the per-step baseline that counts
    as a resonance.  ``jump_limit``: largest distance, in grid steps, of a
    candidate from a trace's one-step linear prediction, widened by
    ``first_link_factor`` while the trace has one point.  ``max_gap``: bias
    steps a trace may miss before it closes; ``min_points``: shorter
    traces are dropped.  ``boundary_tol``: grid steps within which traces
    chain across a segment boundary.  ``thickness_m``: film thickness [m]
    in the dipole p = |gamma_s|*d/2.
    """

    threshold: float = 0.25
    jump_limit: float = 5.0
    min_points: int = MIN_POINTS
    max_gap: int = 2
    first_link_factor: float = 5.0
    boundary_tol: float = 5.0
    thickness_m: float = 50.0 * 1e-9


@dataclass
class Trace:
    """One linked resonance trace inside a single segment."""

    segment: int
    control: str
    bias_index: list[int] = field(default_factory=list)
    bias: list[float] = field(default_factory=list)
    freq: list[float] = field(default_factory=list)
    weight: list[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.bias)

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (
            np.asarray(self.bias, dtype=float),
            np.asarray(self.freq, dtype=float),
            np.asarray(self.weight, dtype=float),
        )

    def coverage(self, n_bias: int) -> float:
        """Fraction of the segment's bias steps carrying a trace point."""
        return len(set(self.bias_index)) / n_bias


def _row_candidates(t1_row: np.ndarray, freq: np.ndarray, threshold: float):
    """(freq, weight) arrays of significant local T1 minima in one bias step."""
    baseline = np.nanmedian(t1_row)
    limit = (1.0 - threshold) * baseline
    y = np.log(1.0 / np.clip(t1_row, 1e-12, None))
    inner = t1_row[1:-1]
    is_min = (inner < t1_row[:-2]) & (inner <= t1_row[2:]) & (inner < limit)
    idx = np.nonzero(is_min)[0] + 1
    ym, y0, yp = y[idx - 1], y[idx], y[idx + 1]
    denom = ym + yp - 2.0 * y0
    with np.errstate(divide="ignore", invalid="ignore"):
        shift = np.clip((ym - yp) / (2.0 * denom), -0.5, 0.5)
    shift[denom == 0] = 0.0
    depth = baseline / t1_row[idx] - 1.0
    return freq[idx] + shift * (freq[1] - freq[0]), depth * depth


def extract_traces(
    ds: SpectroscopyDataset, opts: AnalysisOptions = AnalysisOptions()
) -> list[Trace]:
    """Extract linked resonance traces from every segment of a dataset."""
    step = ds.grid_step_ghz
    traces: list[Trace] = []
    for s, (seg, t1) in enumerate(zip(ds.segments, ds.t1_us)):
        # Open traces in the order they were opened: per-trace state as
        # arrays, and the (bias index, freq, weight) points of each.
        last_f = np.empty(0)
        slope = np.empty(0)
        last_i = np.empty(0, dtype=np.intp)
        n_pts = np.empty(0, dtype=np.intp)
        points: list[tuple[list, list, list]] = []
        for i in range(seg.bias.size):
            f_c, w_c = _row_candidates(t1[i], ds.freq_ghz, opts.threshold)
            f_list, w_list = f_c.tolist(), w_c.tolist()
            used_c = np.zeros(f_c.size, dtype=bool)
            if points and f_c.size:
                # Predict each open trace forward and greedily match the
                # globally closest (trace, candidate) pairs first; ties
                # go to the earlier trace, then the earlier candidate.
                gap = i - last_i
                pred = last_f + slope * gap
                window = opts.jump_limit * step * gap
                window = np.where(n_pts == 1, window * opts.first_link_factor, window)
                dist = np.abs(f_c[None, :] - pred[:, None])
                a_idx, c_idx = np.nonzero(dist <= window[:, None])
                order = np.lexsort((c_idx, a_idx, dist[a_idx, c_idx]))
                used_a = [False] * len(points)
                matched_a, matched_c = [], []
                for a, c in zip(a_idx[order].tolist(), c_idx[order].tolist()):
                    if used_a[a] or used_c[c]:
                        continue
                    used_a[a] = used_c[c] = True
                    matched_a.append(a)
                    matched_c.append(c)
                    pts = points[a]
                    pts[0].append(i)
                    pts[1].append(f_list[c])
                    pts[2].append(w_list[c])
                if matched_a:
                    ma = np.array(matched_a, dtype=np.intp)
                    f_new = f_c[matched_c]
                    slope[ma] = (f_new - last_f[ma]) / gap[ma]
                    last_f[ma] = f_new
                    last_i[ma] = i
                    n_pts[ma] += 1
            fresh = np.flatnonzero(~used_c)
            if fresh.size:
                last_f = np.concatenate((last_f, f_c[fresh]))
                slope = np.concatenate((slope, np.zeros(fresh.size)))
                last_i = np.concatenate((last_i, np.full(fresh.size, i)))
                n_pts = np.concatenate((n_pts, np.ones(fresh.size, dtype=np.intp)))
                points.extend(([i], [f_list[c]], [w_list[c]]) for c in fresh.tolist())
            closed = i - last_i > opts.max_gap
            if closed.any():
                for k in np.flatnonzero(closed).tolist():
                    traces.extend(_finalize(points[k], s, seg, opts.min_points))
                keep = ~closed
                last_f, slope, last_i, n_pts = (
                    last_f[keep], slope[keep], last_i[keep], n_pts[keep]
                )
                points = [p for p, k in zip(points, keep.tolist()) if k]
        for pts in points:
            traces.extend(_finalize(pts, s, seg, opts.min_points))
    return traces


def _finalize(points: tuple, segment: int, seg, min_points: int) -> list[Trace]:
    bias_index, freq, weight = points
    if len(freq) < min_points:
        return []
    return [
        Trace(
            segment=segment,
            control=seg.control,
            bias_index=bias_index,
            bias=[float(seg.bias[j]) for j in bias_index],
            freq=freq,
            weight=weight,
        )
    ]


def link_tracks(
    traces: list[Trace],
    ds: SpectroscopyDataset,
    opts: AnalysisOptions = AnalysisOptions(),
) -> list[list[Trace]]:
    """Group per-segment traces into per-defect tracks.

    Controls hold their value across segment boundaries, so a defect's
    resonance frequency is continuous from the end of one segment to the
    start of the next; traces whose boundary frequencies agree within
    ``opts.boundary_tol`` grid steps are chained: each trace continues the
    nearest one, the earlier trace winning a tie, and is continued at
    most once.  Traces that appear or vanish mid-segment start or end
    their own track.
    """
    tol = opts.boundary_tol * ds.grid_step_ghz
    by_segment: dict[int, list[Trace]] = {}
    for tr in traces:
        by_segment.setdefault(tr.segment, []).append(tr)
    tracks: list[list[Trace]] = []
    # Tracks whose last trace lives to the end of the previous segment,
    # in the order of those traces; each can be continued once.
    open_ends: list[list[Trace]] = []
    for s, seg in enumerate(ds.segments):
        here = []
        for tr in by_segment.get(s, ()):
            best = None
            if tr.bias_index[0] <= 1:
                for j, track in enumerate(open_ends):
                    d = abs(track[-1].freq[-1] - tr.freq[0])
                    if d <= tol and (best is None or d < best[0]):
                        best = (d, j)
            if best is None:
                track = []
                tracks.append(track)
            else:
                track = open_ends.pop(best[1])
            track.append(tr)
            here.append(track)
        open_ends = [t for t in here if t[-1].bias_index[-1] >= seg.bias.size - 2]
    return tracks

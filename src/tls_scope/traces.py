"""Resonance-trace extraction from T1 grids.

One numpy pass per segment finds the resonance candidates of its (bias,
freq) grid: local T1 minima deeper than a relative threshold below their
bias step's median, refined to sub-grid frequency by a three-point
parabola on log(1/T1), whose peak is locally quadratic for a Lorentzian
dip.  A tracker walks that flat (bias index, f, w) table a bias step at a
time, linking candidates into traces by nearest-frequency continuity
around a one-step linear prediction, which keeps steep traces intact and
crossing traces apart.  A trace's id is the index of its opening
candidate.  Traces leave in the order they close, those closing on one
bias step in the order they opened, and the ones still open at the
segment's end come last; traces shorter than the hyperbola fit's
``MIN_POINTS`` are dropped.  A trace keeps no voltage: its segment holds
the control and the bias of each step.  The tracking rules are the module
constants below; only the match window ``jump_limit`` is an argument, as
crossing panels need a wider one than the survey.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hyperbola import MIN_POINTS
from .spectro import SpectroscopyDataset

#: Relative T1 dip below a bias step's median that counts as a resonance.
THRESHOLD = 0.25
#: Bias steps a trace may miss before it closes.
MAX_GAP = 2
#: Widening of the match window while a trace has one point.
FIRST_LINK_FACTOR = 5.0
#: The survey's ``jump_limit``: largest distance, in grid steps per bias
#: step, of a candidate from a trace's one-step linear prediction, and of
#: two traces chained across a segment boundary.
JUMP_LIMIT = 5.0


@dataclass(frozen=True, eq=False)
class Trace:
    """One linked resonance trace inside a single segment: arrays with one
    entry per bias step it shows at.  Its control and bias voltages are
    the segment's, ``ds.segments[segment]`` and its ``bias[bias_index]``.
    ``==`` is identity, as arrays have no single truth value."""

    segment: int
    bias_index: np.ndarray
    freq: np.ndarray
    weight: np.ndarray


def _candidates(t1: np.ndarray, freq: np.ndarray):
    """(bias index, freq, weight) flat arrays, in bias order, of the
    significant local T1 minima of a segment's (bias, freq) grid."""
    baseline = np.nanmedian(t1, axis=1, keepdims=True)
    limit = (1.0 - THRESHOLD) * baseline
    clipped = np.clip(t1, 1e-12, None)
    y = np.log(1.0 / clipped)
    inner = t1[:, 1:-1]
    is_min = (inner < t1[:, :-2]) & (inner <= t1[:, 2:]) & (inner < limit)
    row, idx = np.nonzero(is_min)
    idx += 1
    ym, y0, yp = y[row, idx - 1], y[row, idx], y[row, idx + 1]
    denom = ym + yp - 2.0 * y0
    with np.errstate(divide="ignore", invalid="ignore"):
        shift = np.clip((ym - yp) / (2.0 * denom), -0.5, 0.5)
    shift[denom == 0] = 0.0
    depth = baseline[row, 0] / clipped[row, idx] - 1.0
    return row, freq[idx] + shift * (freq[1] - freq[0]), depth * depth


def extract_traces(ds: SpectroscopyDataset, jump_limit: float) -> list[Trace]:
    """Extract linked resonance traces from every segment of a dataset,
    matching within ``jump_limit`` grid steps per bias step."""
    step = ds.grid_step_ghz
    traces: list[Trace] = []
    for s, (seg, t1) in enumerate(zip(ds.segments, ds.t1_us)):
        rows, f_all, w_all = _candidates(t1, ds.freq_ghz)
        bounds = np.searchsorted(rows, np.arange(seg.bias.size + 1))
        # Per candidate, the id of its trace; per trace id, the index of
        # its last candidate and its slope.  ``ids`` holds the open traces
        # in the order they were opened.
        trace = np.full(rows.size, -1, dtype=np.intp)
        last = np.empty(rows.size, dtype=np.intp)
        slope = np.empty(rows.size)
        ids = np.empty(0, dtype=np.intp)
        done = []
        for i in range(seg.bias.size):
            lo, hi = bounds[i], bounds[i + 1]
            f_c = f_all[lo:hi]
            if ids.size and f_c.size:
                # Predict each open trace forward and greedily match the
                # globally closest (trace, candidate) pairs first; ties
                # go to the earlier trace, then the earlier candidate.
                end = last[ids]
                gap = i - rows[end]
                pred = f_all[end] + slope[ids] * gap
                window = jump_limit * step * gap
                # A trace whose last point is its first has no slope yet.
                window = np.where(end == ids, window * FIRST_LINK_FACTOR, window)
                dist = np.abs(f_c[None, :] - pred[:, None])
                a_idx, c_idx = np.nonzero(dist <= window[:, None])
                order = np.lexsort((c_idx, a_idx, dist[a_idx, c_idx]))
                used_a, used_c = [False] * ids.size, [False] * f_c.size
                matched_a, matched_c = [], []
                for a, c in zip(a_idx[order].tolist(), c_idx[order].tolist()):
                    if used_a[a] or used_c[c]:
                        continue
                    used_a[a] = used_c[c] = True
                    matched_a.append(a)
                    matched_c.append(c)
                ma, mc = ids[matched_a], lo + np.array(matched_c, dtype=np.intp)
                trace[mc] = ma
                slope[ma] = (f_all[mc] - f_all[last[ma]]) / gap[matched_a]
                last[ma] = mc
            # Unmatched candidates open traces; closed ones leave, into ``done``.
            fresh = lo + np.flatnonzero(trace[lo:hi] < 0)
            if fresh.size:
                trace[fresh] = last[fresh] = fresh
                slope[fresh] = 0.0
                ids = np.concatenate((ids, fresh))
            closed = i - rows[last[ids]] > MAX_GAP
            if closed.any():
                done.extend(ids[closed].tolist())
                ids = ids[~closed]
        done.extend(ids.tolist())
        # One stable sort by id groups each trace's points in bias order.
        order = np.argsort(trace, kind="stable")
        bias_index, freq, weight = rows[order], f_all[order], w_all[order]
        counts = np.bincount(trace, minlength=rows.size)
        ends = np.cumsum(counts)
        for k in done:
            if counts[k] >= MIN_POINTS:
                sl = slice(ends[k] - counts[k], ends[k])
                traces.append(Trace(s, bias_index[sl], freq[sl], weight[sl]))
    return traces


def link_tracks(traces: list[Trace], ds: SpectroscopyDataset) -> list[list[Trace]]:
    """Group per-segment traces into per-defect tracks.

    Controls hold their value across segment boundaries, so a defect's
    resonance frequency is continuous from the end of one segment to the
    start of the next; traces whose boundary frequencies agree within
    ``JUMP_LIMIT`` grid steps, the survey tracker's own tolerance per bias
    step, are chained: each trace continues the nearest one, the earlier
    trace winning a tie, and is continued at most once, so a track holds
    at most one trace of each segment.  Traces that appear or vanish
    mid-segment start or end their own track.
    """
    tol = JUMP_LIMIT * ds.grid_step_ghz
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

"""Trace extraction and track linking on synthetic T1 grids."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tls_scope.traces as tracing
from tls_scope.spectro import SegmentSpec, SpectroscopyDataset
from tls_scope.traces import JUMP_LIMIT, Trace, extract_traces, link_tracks

FREQ = np.round(np.arange(5.8, 6.2, 0.002), 12)
STEP = 0.002
GAMMA1_BG = 0.2  # 1/us
DIP_RATE = 1.0  # extra 1/us on resonance: T1 drops from 5 to 0.83 us
HALF_WIDTH = 0.003  # GHz


def reference_row_candidates(t1_row, freq, threshold):
    baseline = np.nanmedian(t1_row)
    limit = (1.0 - threshold) * baseline
    clipped = np.clip(t1_row, 1e-12, None)
    y = np.log(1.0 / clipped)
    inner = t1_row[1:-1]
    is_min = (inner < t1_row[:-2]) & (inner <= t1_row[2:]) & (inner < limit)
    out = []
    step = freq[1] - freq[0]
    for idx in np.nonzero(is_min)[0] + 1:
        ym, y0, yp = y[idx - 1], y[idx], y[idx + 1]
        denom = ym + yp - 2.0 * y0
        shift = 0.0 if denom == 0 else float(np.clip((ym - yp) / (2.0 * denom), -0.5, 0.5))
        depth = baseline / clipped[idx] - 1.0
        out.append((freq[idx] + shift * step, depth * depth))
    return out


def reference_extract_traces(ds, threshold=0.25, jump_limit=5.0, min_points=5,
                             max_gap=2, first_link_factor=5.0):
    """Reference: the per-candidate loop over (trace, candidate) pairs."""
    step = ds.grid_step_ghz
    traces = []
    for s, (seg, t1) in enumerate(zip(ds.segments, ds.t1_us)):
        active = []
        for i in range(seg.bias.size):
            cands = reference_row_candidates(t1[i], ds.freq_ghz, threshold)
            pairs = []
            for a_idx, a in enumerate(active):
                gap = i - a["last_i"]
                pred = a["freq"][-1] + a["slope"] * gap
                window = jump_limit * step * gap
                if len(a["freq"]) == 1:
                    window *= first_link_factor
                for c_idx, (f, _w) in enumerate(cands):
                    dist = abs(f - pred)
                    if dist <= window:
                        pairs.append((dist, a_idx, c_idx))
            pairs.sort()
            used_a, used_c = set(), set()
            for dist, a_idx, c_idx in pairs:
                if a_idx in used_a or c_idx in used_c:
                    continue
                used_a.add(a_idx)
                used_c.add(c_idx)
                a = active[a_idx]
                f, w = cands[c_idx]
                gap = i - a["last_i"]
                a["slope"] = (f - a["freq"][-1]) / gap
                a["freq"].append(f)
                a["bias_index"].append(i)
                a["weight"].append(w)
                a["last_i"] = i
            for c_idx, (f, w) in enumerate(cands):
                if c_idx not in used_c:
                    active.append({"freq": [f], "bias_index": [i], "weight": [w],
                                   "slope": 0.0, "last_i": i})
            survivors = []
            for a in active:
                if i - a["last_i"] > max_gap:
                    traces.extend(reference_finalize(a, s, min_points))
                else:
                    survivors.append(a)
            active = survivors
        for a in active:
            traces.extend(reference_finalize(a, s, min_points))
    return traces


def reference_finalize(a, segment, min_points):
    if len(a["freq"]) < min_points:
        return []
    return [Trace(segment=segment, bias_index=np.array(a["bias_index"]),
                  freq=np.array(a["freq"]), weight=np.array(a["weight"]))]


def extract_with(ds, *, threshold=0.25, jump_limit=5.0, min_points=5, max_gap=2,
                 first_link_factor=5.0):
    """``extract_traces`` with its tracking constants patched to the
    reference's settings."""
    with mock.patch.multiple(tracing, THRESHOLD=threshold, MIN_POINTS=min_points,
                             MAX_GAP=max_gap, FIRST_LINK_FACTOR=first_link_factor):
        return extract_traces(ds, jump_limit)


def trace_bytes(traces):
    """Every field of every trace, floats as their exact bytes."""
    return [
        (tr.segment, np.asarray(tr.bias_index).tolist(), np.array(tr.freq).tobytes(),
         np.array(tr.weight).tobytes())
        for tr in traces
    ]


def t1_grid(lines, n_bias, noise=0.0, rng=None, freq=FREQ):
    """T1 [us] of Lorentzian dips; ``lines`` are (n_bias,) frequency paths,
    NaN where the line is absent."""
    rate = np.full((n_bias, freq.size), GAMMA1_BG)
    for path in lines:
        for i, f0 in enumerate(path):
            if np.isfinite(f0):
                rate[i] += DIP_RATE / (1.0 + ((freq - f0) / HALF_WIDTH) ** 2)
    t1 = 1.0 / rate
    if noise:
        t1 *= np.exp(noise * rng.standard_normal(t1.shape))
    return t1


def dataset(grids, controls=None, freq=FREQ):
    controls = controls or ["sample"] * len(grids)
    segments = tuple(
        SegmentSpec(control=c, bias=np.linspace(-1e-3, 1e-3, g.shape[0]),
                    held={"v_p": 0.0, "v_g": 0.0, "v_s": 0.0})
        for c, g in zip(controls, grids)
    )
    return SpectroscopyDataset(segments=segments, freq_ghz=freq, t1_us=tuple(grids))


def line(f0, slope_steps, n_bias, present=None):
    """Straight path starting at f0, moving ``slope_steps`` grid steps per
    bias step; ``present`` masks the bias steps where it shows."""
    path = f0 + slope_steps * STEP * np.arange(n_bias)
    if present is not None:
        path = np.where(present, path, np.nan)
    return path


def crowded_grid(seed, n_bias=60, n_lines=40, noise=0.1):
    """Many lines, crossing ones and steep ones, with T1 noise."""
    rng = np.random.default_rng(seed)
    lines = [line(rng.uniform(5.82, 6.18), rng.uniform(-3.0, 3.0), n_bias)
             for _ in range(n_lines)]
    lines.append(line(5.90, 4.0, n_bias))  # crosses the next one
    lines.append(line(6.10, -4.0, n_bias))
    lines.append(line(5.85, 12.0, n_bias))  # steep: needs the first-link window
    return t1_grid(lines, n_bias, noise=noise, rng=rng)


def nan_grid():
    """``crowded_grid(3)`` with 5% of its cells NaN."""
    grid = crowded_grid(3)
    rng = np.random.default_rng(4)
    grid[rng.uniform(size=grid.shape) < 0.05] = np.nan
    return grid


def last_row_grid(n=12):
    """One line, shown on the last bias step only."""
    return t1_grid([line(6.0, 0.0, n, present=np.arange(n) == n - 1)], n)


class TestMatchesReferenceLoop:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_crowded_grid(self, seed):
        ds = dataset([crowded_grid(seed), crowded_grid(seed + 10, n_bias=45)])
        want = reference_extract_traces(ds)
        assert len(want) > 40
        assert trace_bytes(extract_traces(ds, JUMP_LIMIT)) == trace_bytes(want)

    def test_grid_with_nan_cells(self):
        ds = dataset([nan_grid()])
        want = reference_extract_traces(ds)
        assert want
        assert trace_bytes(extract_traces(ds, JUMP_LIMIT)) == trace_bytes(want)

    @pytest.mark.parametrize("kwargs", [
        dict(threshold=0.1),
        dict(jump_limit=1.5, first_link_factor=1.0),
        dict(max_gap=0),
        dict(max_gap=5, min_points=10),
    ])
    def test_options(self, kwargs):
        ds = dataset([crowded_grid(5)])
        want = reference_extract_traces(ds, **kwargs)
        got = extract_with(ds, **kwargs)
        assert trace_bytes(got) == trace_bytes(want)

    @settings(max_examples=100, deadline=None)
    @given(
        grids=st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(5, 40),
                                 st.integers(0, 20), st.floats(0.0, 0.3)),
                       min_size=1, max_size=3),
        max_gap=st.integers(0, 5),
        min_points=st.integers(5, 10),
        jump_limit=st.floats(0.5, 10.0),
        first_link_factor=st.floats(0.2, 10.0),
    )
    def test_random_grids_and_options(self, grids, **kwargs):
        ds = dataset([crowded_grid(seed, n_bias=n_bias, n_lines=n_lines, noise=noise)
                      for seed, n_bias, n_lines, noise in grids])
        got = extract_with(ds, **kwargs)
        assert trace_bytes(got) == trace_bytes(reference_extract_traces(ds, **kwargs))

    def test_a_trace_closing_on_the_last_step_leaves_before_the_open_ones(self):
        # Three lines open on step 0, in frequency order.  With max_gap 2
        # the middle one, last seen 3 steps before the end, closes on the
        # last step; the other two are still open there and come after it.
        n = 12
        paths = [line(5.90, 0.0, n),
                 line(6.00, 0.0, n, present=np.arange(n) <= n - 4),
                 line(6.10, 0.0, n, present=np.arange(n) <= n - 3)]
        ds = dataset([t1_grid(paths, n)])
        traces = extract_with(ds, max_gap=2)
        assert [tr.bias_index[-1] for tr in traces] == [n - 4, n - 1, n - 3]
        assert np.allclose([tr.freq[0] for tr in traces], [6.00, 5.90, 6.10])
        assert trace_bytes(traces) == trace_bytes(reference_extract_traces(ds, max_gap=2))


class TestCandidates:
    @pytest.mark.parametrize("grid", [
        lambda: crowded_grid(0), lambda: crowded_grid(1), lambda: crowded_grid(2),
        lambda: crowded_grid(10, n_bias=45), lambda: crowded_grid(11, n_bias=45),
        lambda: crowded_grid(12, n_bias=45), nan_grid, last_row_grid,
    ], ids=["crowded-0", "crowded-1", "crowded-2", "crowded-10", "crowded-11", "crowded-12",
            "nan-cells", "last-row"])
    def test_table_is_the_row_reference_row_by_row(self, grid):
        grid = grid()
        want = [(i, f, w) for i, row in enumerate(grid)
                for f, w in reference_row_candidates(row, FREQ, tracing.THRESHOLD)]
        assert want
        rows, freq, weight = tracing._candidates(grid, FREQ)
        assert rows.tolist() == [i for i, _, _ in want]
        assert freq.tobytes() == np.array([f for _, f, _ in want]).tobytes()
        assert weight.tobytes() == np.array([w for _, _, w in want]).tobytes()

    def test_a_last_row_candidate_opens_a_trace(self):
        grid = last_row_grid()
        last = grid.shape[0] - 1
        rows, f, _ = tracing._candidates(grid, FREQ)
        assert rows.tolist() == [last]
        assert f == pytest.approx([6.0], abs=0.25 * STEP)
        (tr,) = extract_with(dataset([grid]), min_points=1)
        assert tr.bias_index.tolist() == [last]


class TestExtraction:
    def test_clean_line_is_one_trace(self):
        n = 30
        ds = dataset([t1_grid([line(5.95, 1.3, n)], n)])
        (tr,) = extract_traces(ds, JUMP_LIMIT)
        assert (tr.segment, tr.bias_index.tolist()) == (0, list(range(n)))
        assert np.allclose(tr.freq, line(5.95, 1.3, n), atol=0.25 * STEP)

    @pytest.mark.parametrize("line_segment", [0, 1])
    def test_a_segment_without_candidates_gives_no_trace(self, line_segment):
        n = 20
        grids = [t1_grid([], n), t1_grid([], n)]
        grids[line_segment] = t1_grid([line(5.95, 1.0, n)], n)
        ds = dataset(grids)
        (tr,) = extract_traces(ds, JUMP_LIMIT)
        assert tr.segment == line_segment
        assert tr.bias_index.tolist() == list(range(n))
        assert trace_bytes([tr]) == trace_bytes(reference_extract_traces(ds))

    @pytest.mark.parametrize("missing, n_traces", [(2, 1), (3, 2)])
    def test_max_gap_closes_a_trace(self, missing, n_traces):
        n = 30
        present = np.ones(n, dtype=bool)
        present[10:10 + missing] = False
        ds = dataset([t1_grid([line(6.0, 0.5, n, present)], n)])
        traces = extract_with(ds, max_gap=2)
        assert len(traces) == n_traces
        assert sum(tr.freq.size for tr in traces) == n - missing

    @pytest.mark.parametrize("shown, min_points, n_traces", [
        (4, 5, 0), (5, 5, 1), (5, 6, 0), (6, 6, 1),
    ])
    def test_min_points_drops_short_traces(self, shown, min_points, n_traces):
        n = 20
        present = np.arange(n) < shown
        ds = dataset([t1_grid([line(6.0, 0.0, n, present)], n)])
        assert len(extract_with(ds, min_points=min_points)) == n_traces

    @pytest.mark.parametrize("low", [0.35, 0.6])
    def test_flat_parabola_keeps_the_grid_point(self, low):
        # Two equal lowest cells and a left neighbour one ulp higher: the
        # three log(1/T1) values give a zero parabola denominator.
        row = np.ones(FREQ.size)
        row[49:52] = np.nextafter(low, 1.0), low, low
        ds = dataset([np.tile(row, (8, 1))])
        (tr,) = extract_traces(ds, JUMP_LIMIT)
        assert tr.freq.tolist() == [FREQ[50]] * 8
        assert trace_bytes([tr]) == trace_bytes(reference_extract_traces(ds))

    def test_tie_goes_to_the_earlier_trace(self):
        # On a dyadic grid every candidate sits exactly on a grid point, so
        # the line at index 100 is exactly 3 steps from both open traces:
        # A (rows 0-4 at index 97, still open after a gap of 5) and B
        # (rows 5-9 at index 103, 6 steps from A).
        freq = 6.0 + np.arange(200) * 2.0**-9
        n = 16
        rows = np.arange(n)
        paths = [np.where(rows < 5, freq[97], np.nan),
                 np.where((rows >= 5) & (rows < 10), freq[103], np.nan),
                 np.where(rows >= 10, freq[100], np.nan)]
        ds = dataset([t1_grid(paths, n, freq=freq)], freq=freq)
        traces = extract_with(ds, max_gap=5)
        assert [tr.bias_index.tolist() for tr in traces] == [
            [5, 6, 7, 8, 9], [0, 1, 2, 3, 4, 10, 11, 12, 13, 14, 15]]
        assert traces[1].freq.tolist() == [freq[97]] * 5 + [freq[100]] * 6

    def test_first_link_factor_finds_the_second_point(self):
        # 10 grid steps per bias step: beyond jump_limit (5 steps) around
        # the flat first prediction, inside the widened first window.
        n = 15
        ds = dataset([t1_grid([line(5.85, 10.0, n)], n)])
        (tr,) = extract_with(ds, jump_limit=5.0, first_link_factor=5.0)
        assert tr.bias_index.tolist() == list(range(n))
        assert extract_with(ds, jump_limit=5.0, first_link_factor=1.0) == []

    def test_a_tiny_cell_gives_a_finite_weight(self):
        # log(1/T1) clips T1 at 1e-12 us, and so does the depth: a cell of
        # 1e-200 us used to give an infinite weight and numpy's overflow
        # warning.
        n = 8
        grid = t1_grid([line(6.0, 0.0, n)], n)
        dip = int(np.argmin(grid[3]))
        grid[3, dip] = 1e-200
        ds = dataset([grid])
        (tr,) = extract_traces(ds, JUMP_LIMIT)
        assert tr.bias_index.tolist() == list(range(n))
        depth = np.nanmedian(grid[3]) / 1e-12 - 1.0
        assert tr.weight[3] == depth * depth
        assert trace_bytes([tr]) == trace_bytes(reference_extract_traces(ds))


class TestLinkTracks:
    def test_chains_across_a_segment_boundary(self):
        n = 25
        first = line(5.95, 1.0, n)
        second = line(first[-1], -1.0, n)  # continues where the first ends
        late = line(6.10, 0.0, n, present=np.arange(n) >= 10)  # starts mid-segment
        ds = dataset(
            [t1_grid([first], n), t1_grid([second, late], n)],
            controls=["sample", "piezo"],
        )
        traces = extract_traces(ds, JUMP_LIMIT)
        assert [tr.segment for tr in traces] == [0, 1, 1]
        tracks = link_tracks(traces, ds)
        assert len(tracks) == 2
        chained = next(t for t in tracks if len(t) == 2)
        assert [tr.segment for tr in chained] == [0, 1]
        (alone,) = [t for t in tracks if len(t) == 1]
        assert alone[0].bias_index[0] == 10

    @pytest.mark.parametrize("jump_limit, n_tracks", [(5.0, 2), (15.0, 1)])
    def test_no_chain_beyond_jump_limit(self, jump_limit, n_tracks):
        # The boundary tolerance is the survey tracker's own JUMP_LIMIT.
        n = 25
        first = line(5.95, 1.0, n)
        second = line(first[-1] + 10 * STEP, -1.0, n)
        ds = dataset([t1_grid([first], n), t1_grid([second], n)])
        traces = extract_traces(ds, JUMP_LIMIT)
        assert len(traces) == 2
        with mock.patch.object(tracing, "JUMP_LIMIT", jump_limit):
            assert len(link_tracks(traces, ds)) == n_tracks

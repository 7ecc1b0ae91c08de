"""Recovery scorecard: what the analysis finds against what the simulator drew.

Six `generate` datasets at the CLI defaults (seeds 1-6) are built in
memory, analysed by `cli.analyze` as `fit` does, and scored by the benchmark's own
scorer, ``perfbench/truth.py``, imported as it is so that the scorer
shares no code with what it checks.  Each floor is the value at the
time it was set, rounded outward; tighten a floor in the change that
improves it, and never lower one to make a run pass.

The same seeds check that every fit of a tracked trace describes its
data and, with seed 1 of the benchmark's dense scan, that no track holds
two traces of one segment; seed 6 checks that moving every T1 cell by
one ulp moves no class, no dipole and not P0.
"""

import operator
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tls_scope import cli
from tls_scope.hyperbola import TraceFit, fit_hyperbolas

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import truth  # noqa: E402

SEEDS = range(1, 7)

#: (metric, comparison, floor) over the summed score of the six seeds.
#: Values when set: recall 68/68, precision 216/1108, fragmentation
#: 3.176, misclass_rate 0.611, P0 error 0.364, dipole error 0.271.
FLOORS = [
    ("recall", operator.ge, 1.0),
    ("precision", operator.ge, 0.194),
    ("fragmentation", operator.le, 3.177),
    ("misclass_rate", operator.le, 0.612),
    ("p0_rel_err", operator.le, 0.365),
    ("dipole_rel_err", operator.le, 0.272),
]


#: Largest rms frequency residual [GHz] of a fit that describes its trace.
FIT_RMS_LIMIT = 0.05


def score_seed(seed):
    """Score of one seed, the fits of its tracked traces, and its analysis."""
    cfg = cli.GENERATE_DEFAULTS
    ensemble, ds = cli.simulate(cfg, seed)
    result, report = cli.analyze(cli.FIT_DEFAULTS, ds)
    score = truth.score_dataset(
        [t.to_dict() for t in ensemble.tls_list],
        [(s.control, s.bias, s.held) for s in ds.segments],
        ds.freq_ghz,
        [[(t.segment, t.bias_index, t.freq) for t in track] for track in result.tracks],
        [r.to_dict() for r in result.records],
        report,
        cfg["volume_um3"],
    )
    traces = [(ds.segments[t.segment].bias[t.bias_index], t.freq, t.weight)
              for track in result.tracks for t in track]
    return score, [f for f in fit_hyperbolas(traces) if isinstance(f, TraceFit)], result


@pytest.fixture(scope="module")
def scored():
    return [score_seed(seed) for seed in SEEDS]


@pytest.fixture(scope="module")
def scorecard(scored):
    total = truth.Score()
    for score, _fits, _result in scored:
        total = total + score
    values = total.metrics()
    values["precision"] = total.matched_tracks / (
        total.matched_tracks + total.false_tracks
    )
    return total, values


@pytest.mark.parametrize("name, compare, floor", FLOORS, ids=[f[0] for f in FLOORS])
def test_scorecard_floor(scorecard, name, compare, floor):
    score, values = scorecard
    assert compare(values[name], floor), (
        f"{name} = {values[name]:.4f} misses its floor {floor}; "
        f"in band {score.in_band}, detected {score.detected}, "
        f"matched tracks {score.matched_tracks}, false_tracks {score.false_tracks}, "
        f"confusion {score.confusion}"
    )


def test_every_fit_describes_its_trace(scored):
    # A trace whose f^2 is no upward parabola with a positive minimum is
    # degenerate, not a "converged" fit thousands of GHz off its data.
    fits = [f for _score, seed_fits, _result in scored for f in seed_fits]
    assert len(fits) > 600
    far = [f.residual_rms for f in fits if f.residual_rms > FIT_RMS_LIMIT]
    assert not far, f"{len(far)} of {len(fits)} fits are > 50 MHz off: {far[:5]}"
    assert all(np.all(f.sigma > 0) for f in fits)


def assert_one_trace_per_segment(result):
    # link_tracks continues a track at most once per segment, so no
    # visible fraction can exceed 1.
    for track in result.tracks:
        segments = [tr.segment for tr in track]
        assert len(set(segments)) == len(segments), segments
    assert all(f <= 1.0 for rec in result.records for f in rec.visible_fractions)


def test_a_track_holds_one_trace_per_segment(scored):
    for _score, _fits, result in scored:
        assert_one_trace_per_segment(result)


def test_a_dense_track_holds_one_trace_per_segment():
    # The benchmark's dense workload, seed 1: 100x the default volume.
    _ensemble, ds = cli.simulate({**cli.GENERATE_DEFAULTS, "volume_um3": 0.225}, 1)
    result, _report = cli.analyze(cli.FIT_DEFAULTS, ds)
    assert len(result.tracks) > 500
    assert_one_trace_per_segment(result)


@pytest.mark.parametrize("direction", [np.inf, -np.inf], ids=["up", "down"])
def test_one_ulp_of_t1_moves_no_result(direction):
    cfg = cli.GENERATE_DEFAULTS
    _ensemble, ds = cli.simulate(cfg, 6)
    moved = replace(ds, t1_us=tuple(np.nextafter(t1, direction) for t1 in ds.t1_us))
    (before, report), (after, moved_report) = (
        cli.analyze(cli.FIT_DEFAULTS, d) for d in (ds, moved))
    assert len(after.records) == len(before.records)
    for a, b in zip(before.records, after.records):
        assert b.location == a.location
        assert (b.p_parallel is None) == (a.p_parallel is None)
        if a.p_parallel is not None:
            assert b.p_parallel == pytest.approx(a.p_parallel, rel=1e-6)
    assert moved_report["P0_per_um3_GHz"] == report["P0_per_um3_GHz"]

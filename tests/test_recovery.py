"""Recovery scorecard: what the analysis finds against what the simulator drew.

Six `generate` datasets at the CLI defaults (seeds 1-6) are built in
memory, analysed by `cli.analyze` as `fit` does, and scored by the benchmark's own
scorer, ``perfbench/truth.py``, imported as it is so that the scorer
shares no code with what it checks.  Each floor is the value at the
time it was set, rounded outward; tighten a floor in the change that
improves it, and never lower one to make a run pass.
"""

import operator
import sys
from pathlib import Path

import pytest

from tls_scope import cli

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


def score_seed(seed):
    cfg = cli.GENERATE_DEFAULTS
    ensemble, ds = cli.simulate(cfg, seed)
    result, report = cli.analyze(cli.FIT_DEFAULTS, ds)
    return truth.score_dataset(
        [t.to_dict() for t in ensemble.tls_list],
        [(s.control, s.bias, s.held) for s in ds.segments],
        ds.freq_ghz,
        [[(t.segment, t.bias_index, t.freq) for t in track] for track in result.tracks],
        [r.to_dict() for r in result.records],
        report.to_dict(),
        cfg["volume_um3"],
    )


@pytest.fixture(scope="module")
def scorecard():
    total = truth.Score()
    for seed in SEEDS:
        total = total + score_seed(seed)
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

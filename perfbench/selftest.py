"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the repository's tier-1 run; the
smoke runs start a dozen interpreters and take about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checker  # noqa: E402
import truth  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tiny", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_every_metric_with_its_unit(trace, section):
    proc = run_bench(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def tiny_dataset():
    from tls_scope.coupled import CoupledPair
    from tls_scope.spectro import coupled_pair_t1_map
    from tls_scope.stm import TlsParams

    pair = CoupledPair(TlsParams(delta0=5.957, gamma_s=161.95, p_parallel=0.335),
                       TlsParams(delta0=5.44, eps_i=2.55, gamma_s=92.25, p_parallel=0.191),
                       g_z=15.0, g_x=-25.0)
    return coupled_pair_t1_map(pair, np.linspace(-2.4e-3, 2.4e-3, 20), 0.0,
                               np.arange(5.9, 6.06, 0.002), field_rms=90.0,
                               gamma1_background=0.2, noise_sigma=0.1, seed=4)


def test_checker_flags_truncated_dataset(tmp_path):
    from tls_scope import dataio

    ds = tiny_dataset()
    path = tmp_path / "dataset.csv"
    dataio.write_dataset(ds, path)
    assert checker.check_dataset(ds, path) == []
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[: len(lines) // 2]))
    assert checker.check_dataset(ds, path)
    path.write_text("".join(lines)[:-7])
    assert checker.check_dataset(ds, path)


def test_checker_flags_corrupted_fit_report(tmp_path):
    from tls_scope import dataio

    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    for p in (good, bad):
        dataio.write_fit_report([], {"sample_dielectric": 1.5}, p, extra={"n_traces": 3})
    assert checker.check_same_bytes(good, bad) == []
    assert checker.check_schema(bad) == []
    text = bad.read_text()
    bad.write_text(text.replace("1.5", "1.6"))
    assert checker.check_same_bytes(good, bad)
    bad.write_text(text[: len(text) // 2])
    assert checker.check_same_bytes(good, bad)
    assert checker.check_schema(bad)


def test_truth_scores_a_matched_and_a_false_track():
    truth_tls = [{"delta0": 6.0, "eps_i": 0.0, "gamma_p": 0.0, "gamma_g": 0.0,
                  "gamma_s": 100.0, "p_parallel": 0.4, "location": "sample_dielectric"}]
    bias = np.linspace(-1e-3, 1e-3, 11)
    freq = np.arange(5.8, 6.7, 0.002)
    energy = np.hypot(6.0, 100.0 * bias)
    on_track = [(0, list(range(11)), list(energy + 0.001))]
    noise = [(0, list(range(5)), [6.5] * 5)]
    records = [{"class": "sample_dielectric"}, {"class": "unclassified"}]
    material = {"P0_per_um3_GHz": 400.0, "p_parallel_mean_eA": 0.5, "n_sample_tls": 1}
    sc = truth.score_dataset(truth_tls, [("sample", bias, {"v_p": 0.0, "v_g": 0.0})],
                             freq, [on_track, noise], records, material, volume_um3=0.0025)
    m = sc.metrics()
    assert (sc.in_band, sc.detected, sc.matched_tracks, sc.false_tracks) == (1, 1, 1, 1)
    assert m["recall"] == 1.0 and m["fragmentation"] == 1.0 and m["misclass_rate"] == 0.0
    # one defect, visible over the whole of the only segment
    assert sc.p0_true == pytest.approx(1.0 / (freq[-1] - freq[0]) / 0.0025)
    assert m["dipole_rel_err"] == pytest.approx(0.25)

"""Command-line contract: exit codes and byte-identical output for a seed."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from tls_scope import cli, dataio
from tls_scope.coupled import CoupledPair
from tls_scope.spectro import coupled_pair_t1_map
from tls_scope.stm import SCHEMA_VERSION, Location, TlsParams

#: A small `generate` config: 32 TLS, 8 segments of 30 bias steps, a
#: 0.4 GHz band at 4 MHz resolution (about 1.5 MB of CSV).
SMALL = {"band_ghz": [6.0, 6.4], "freq_step_ghz": 0.004, "n_bias": 30,
         "volume_um3": 0.0045}

#: sha256 of the outputs of `generate --seed 1` and `fit` on SMALL
#: (numpy 2.4, x86-64).  A change to these bytes is a change to the
#: simulator or the analysis and belongs in CHANGES.md with the new hashes.
EXPECTED_SHA256 = {
    "dataset.csv":
        "39722f3c7c1a4c3919c45a4104e16c71969f2b40bccecdde8901c5dc3c1d82f1",
    "dataset.csv.meta.json":
        "8321940a0a97b15a37211a9b2f3306bcff49b889f59f0954629cbed1474fd828",
    "ground_truth.json":
        "1e1c007fe3f3f61ccaa3e945f562fa0e63757493f8f44309044aa17ccd22fa84",
    "fit_report.json":
        "fa6834c708b6a0467fd59811360cc40d1510bc59068a06f4f0e3f7d978201f6b",
    "material_report.json":
        "7031b38f32bba58365c71f98b7c326d418a41e30b01e4098e6b9e1f549343f0d",
}


#: sha256 of `coupled` on the `coupled_run` panels, and of `plotdata
#: crossing` on its panel 0 (numpy 2.4, x86-64).  Recorded before the
#: coupled fit moved onto one `lm_batch`; the same rule as above holds.
COUPLED_SHA256 = {
    "coupled_fit.json":
        "20be0f296e1e35ec59db69255c1069dc6a31b58e9f7518fd593b7923a05a2268",
    "crossing_panel_0.csv":
        "d7b1f3716b6a57560a8da24962bc07926dcd1d928aaced8d4147489de4b7e958",
    "crossing_panel_1.csv":
        "8c8de4a321047c259bb4374281bd0142c78b89cac8176e3bf4ed668396f1d703",
    "crossing_panel_2.csv":
        "972d4c015cc13e646c259549b0423a71965787f90f13b7ede8523ccd758ab28d",
    "crossing.csv":
        "d7b1f3716b6a57560a8da24962bc07926dcd1d928aaced8d4147489de4b7e958",
}


def run(*argv):
    return cli.main([str(a) for a in argv])


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return path


def generate_and_fit(out, config):
    gen = write_json(out / "generate.json", config)
    fit = write_json(out / "fit.json", {"volume_um3": config["volume_um3"]})
    assert run("generate", "--seed", 1, "--config", gen, "--out", out) == cli.EXIT_OK
    assert run("fit", out / "dataset.csv", "--config", fit, "--out", out) == cli.EXIT_OK


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("small")
    generate_and_fit(out, SMALL)
    return out


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


#: A defect of the benchmark's crossing pair, and the panel grid it is
#: scanned on (V_s sweep at V_p = 0).
TLS = TlsParams(delta0=5.957, gamma_p=0.022, gamma_s=161.95, p_parallel=0.335,
                location=Location.SAMPLE_DIELECTRIC)
PANEL_V_S = np.linspace(-2.4e-3, 2.4e-3, 80)
PANEL_FREQ = np.arange(5.90, 6.06, 0.001)

#: The benchmark's interacting pair: g_z = 15 MHz, g_x = -25 MHz and
#: gamma_p = 0.01 GHz/V for the second defect, which the fit must find.
TLS2 = TlsParams(delta0=5.440, eps_i=2.55, gamma_s=92.25, p_parallel=0.191,
                 location=Location.SAMPLE_DIELECTRIC)
PAIR = CoupledPair(TLS, replace(TLS2, gamma_p=0.01), g_z=15.0, g_x=-25.0)


def coupled_inputs(directory, pair, field_rms, noise_sigma, seed, v_p_values=(0.0,)):
    """A `coupled` config for simulated panels of ``pair``, one per V_p
    (panel k gets noise seed ``seed + k``); the fit is told tls1 and tls2
    of the pair."""
    panels = []
    for k, v_p in enumerate(v_p_values):
        ds = coupled_pair_t1_map(pair, PANEL_V_S, v_p, PANEL_FREQ, field_rms=field_rms,
                                 gamma1_background=1 / 4.3, noise_sigma=noise_sigma,
                                 seed=seed + k)
        panels.append(directory / f"panel_{k}.csv")
        dataio.write_dataset(ds, panels[-1])
    return write_json(directory / "coupled.json", {
        "panels": [str(panel) for panel in panels],
        "tls1": pair.tls1.to_dict(),
        "tls2": pair.tls2.to_dict(),
    })


@pytest.fixture(scope="module")
def coupled_run(tmp_path_factory):
    """(directory, exit code) of `coupled` on three panels of PAIR."""
    out = tmp_path_factory.mktemp("coupled")
    cfg = coupled_inputs(out, PAIR, field_rms=90.0, noise_sigma=0.1, seed=1,
                         v_p_values=(-4.0, 0.0, 4.0))
    return out, run("coupled", "--config", cfg, "--out", out)


def copy_dataset(src, dst):
    dst.mkdir()
    for name in ("dataset.csv", "dataset.csv.meta.json"):
        shutil.copy(src / name, dst / name)
    return dst / "dataset.csv"


class TestExitCodes:
    def test_generate_and_fit_succeed(self, small_run):
        for name in EXPECTED_SHA256:
            assert (small_run / name).is_file()

    def test_design_succeeds(self, tmp_path):
        assert run("design", "--out", tmp_path) == cli.EXIT_OK
        report = json.loads((tmp_path / "design_report.json").read_text())
        assert report["schema_version"] == 1

    def test_unknown_config_key(self, tmp_path):
        cfg = write_json(tmp_path / "bad.json", {"no_such_key": 1})
        assert run("generate", "--config", cfg, "--out", tmp_path) == cli.EXIT_CONFIG

    def test_wrong_config_type(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "bad.json", {"n_bias": "x"})
        assert run("generate", "--config", cfg, "--out", tmp_path) == cli.EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("tls1, panels, needle", [
        ({"bogus": 1}, ["panel.csv"], "bogus"),
        ({}, [5], "panels"),
    ])
    def test_malformed_coupled_config(self, tmp_path, capsys, tls1, panels, needle):
        tls = {"schema_version": 1, "delta0": 5.9}
        cfg = write_json(tmp_path / "coupled.json", {
            "panels": panels, "tls1": {**tls, **tls1}, "tls2": tls,
        })
        assert run("coupled", "--config", cfg, "--out", tmp_path) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error:" in err and needle in err

    @pytest.mark.parametrize("override", [
        {"band_ghz": [6.7, 5.8]},  # InvalidBand
        {"v_s_source_amplitude": 1.0},  # BiasLimitExceeded: 4.9 mV cold-end
    ])
    def test_config_raised_as_package_error(self, tmp_path, capsys, override):
        cfg = write_json(tmp_path / "bad.json", {**SMALL, **override})
        assert run("generate", "--config", cfg, "--out", tmp_path) == cli.EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("override, needle", [
        ({"segment_order": ["bogus"]}, "unknown controls ['bogus']"),
        ({"freq_step_ghz": 0.0}, "freq_step_ghz must be positive"),
    ], ids=["unknown-control", "zero-freq-step"])
    def test_generate_refuses_bad_sweep(self, tmp_path, capsys, override, needle):
        cfg = write_json(tmp_path / "bad.json", {**SMALL, **override})
        assert run("generate", "--config", cfg, "--out", tmp_path) == cli.EXIT_CONFIG
        assert f"config error: {needle}" in capsys.readouterr().err

    @pytest.mark.parametrize("override, needle", [
        ({"n_bias": 0}, "n_bias must be at least 2"),
        ({"n_bias": 1}, "n_bias must be at least 2"),
        ({"noise_sigma": -1.0}, "noise_sigma must be non-negative"),
    ], ids=["n_bias-0", "n_bias-1", "negative-noise"])
    def test_generate_refuses_bad_value(self, tmp_path, capsys, override, needle):
        cfg = write_json(tmp_path / "bad.json", {**SMALL, **override})
        assert run("generate", "--config", cfg, "--out", tmp_path) == cli.EXIT_CONFIG
        assert f"config error: {needle}" in capsys.readouterr().err
        assert not (tmp_path / "dataset.csv").exists()

    @pytest.mark.parametrize("min_points", [0, 4])
    def test_fit_refuses_too_few_min_points(self, small_run, tmp_path, capsys, min_points):
        cfg = write_json(tmp_path / "fit.json", {"min_points": min_points})
        argv = ("fit", small_run / "dataset.csv", "--config", cfg, "--out", tmp_path)
        assert run(*argv) == cli.EXIT_CONFIG
        assert "config error: min_points must be at least 5" in capsys.readouterr().err
        assert not (tmp_path / "fit_report.json").exists()

    def test_threads_option_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("generate", "--threads", 2, "--out", tmp_path)
        assert exc.value.code == cli.EXIT_CONFIG
        assert "--threads" in capsys.readouterr().err

    def test_corrupt_sidecar_is_a_file_error(self, small_run, tmp_path, capsys):
        csv = copy_dataset(small_run, tmp_path / "data")
        (tmp_path / "data" / "dataset.csv.meta.json").write_text("{not json")
        assert run("fit", csv, "--out", tmp_path) == cli.EXIT_IO
        assert "dataset.csv.meta.json" in capsys.readouterr().err

    def test_corrupt_fit_report_is_a_file_error(self, tmp_path):
        report = tmp_path / "fit_report.json"
        report.write_text("[1, 2")
        argv = ("plotdata", "dipole-histogram", report, "--out", tmp_path)
        assert run(*argv) == cli.EXIT_IO

    @pytest.mark.parametrize("payload", [
        {"schema_version": SCHEMA_VERSION},
        {"schema_version": SCHEMA_VERSION, "tls": 3},
        {"schema_version": SCHEMA_VERSION, "tls": [{"p_parallel_eA": "x"}]},
        {"schema_version": SCHEMA_VERSION, "tls": [{"p_parallel_eA": -0.1}]},
        {"schema_version": SCHEMA_VERSION, "tls": [{"p_parallel_eA": float("nan")}]},
    ], ids=["no-tls", "tls-not-a-list", "dipole-not-a-number", "dipole-negative",
            "dipole-nan"])
    def test_malformed_fit_report_is_a_file_error(self, tmp_path, capsys, payload):
        report = write_json(tmp_path / "fit_report.json", payload)
        argv = ("plotdata", "dipole-histogram", report, "--out", tmp_path)
        assert run(*argv) == cli.EXIT_IO
        assert "file error: fit_report.json: " in capsys.readouterr().err

    def test_negative_t1_row_is_a_file_error(self, small_run, tmp_path, capsys):
        csv = copy_dataset(small_run, tmp_path / "data")
        lines = csv.read_text().splitlines()
        fields = lines[1].split(",")
        fields[-1] = "-1.0"
        lines[1] = ",".join(fields)
        csv.write_text("\n".join(lines) + "\n")
        assert run("fit", csv, "--out", tmp_path) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert "dataset.csv" in err and "positive" in err

    @pytest.mark.parametrize("damage, needle", [
        ("cut", "no final newline; the file is cut short"),
        ("swap", "row 3: frequency out of order"),
        ("bias", "row 4: bias_V changes"),
        ("nan", "row 4: bias_V is not finite"),
    ])
    def test_damaged_csv_is_a_file_error(self, small_run, tmp_path, capsys, damage, needle):
        csv = copy_dataset(small_run, tmp_path / "data")
        lines = csv.read_text().split("\n")
        if damage == "cut":
            lines[-2] = lines[-2][:-3]
            del lines[-1]
        elif damage == "swap":
            lines[2], lines[3] = lines[3], lines[2]
        else:
            fields = lines[3].split(",")
            fields[2] = "nan" if damage == "nan" else repr(float(fields[2]) + 0.5)
            lines[3] = ",".join(fields)
        csv.write_text("\n".join(lines))
        assert run("fit", csv, "--out", tmp_path) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("file error: ") and needle in err

    def test_undecodable_csv_is_a_file_error(self, small_run, tmp_path):
        csv = copy_dataset(small_run, tmp_path / "data")
        raw = csv.read_bytes()
        row = raw.index(b"\n") + 1
        csv.write_bytes(raw[:row] + b"\xff" + raw[row + 1:])
        assert run("fit", csv, "--out", tmp_path) == cli.EXIT_IO

    def test_empty_dataset(self, tmp_path):
        out = tmp_path / "empty"
        cfg = write_json(tmp_path / "empty.json", {**SMALL, "p0_per_um3_ghz": 0.0})
        assert run("generate", "--config", cfg, "--out", out) == cli.EXIT_OK
        csv = out / "dataset.csv"
        assert run("fit", csv, "--out", out) == cli.EXIT_EMPTY
        assert run("fit", csv, "--allow-empty", "--out", out) == cli.EXIT_OK

    def test_bad_fit_config_beats_the_empty_check(self, tmp_path, capsys):
        # The material report is built with the analysis, so a config it
        # refuses exits 2 before the dataset is found empty.
        cfg = write_json(tmp_path / "empty.json", {**SMALL, "p0_per_um3_ghz": 0.0})
        assert run("generate", "--config", cfg, "--out", tmp_path) == cli.EXIT_OK
        bad = write_json(tmp_path / "bad.json", {"volume_um3": 0.0})
        argv = ("fit", tmp_path / "dataset.csv", "--config", bad, "--out", tmp_path)
        assert run(*argv) == cli.EXIT_CONFIG
        assert "config error: volume must be positive" in capsys.readouterr().err


    def test_coupled_panel_without_resonance(self, tmp_path, capsys):
        # No field at the defects: the panel is flat, with no trace to fit.
        pair = CoupledPair(TLS, TLS, g_z=0.0, g_x=0.0)
        cfg = coupled_inputs(tmp_path, pair, field_rms=0.0, noise_sigma=0.0, seed=0)
        assert run("coupled", "--config", cfg, "--out", tmp_path) == cli.EXIT_EMPTY
        assert "no resonance traces" in capsys.readouterr().err

    def test_coupled_fit_with_tied_sign_branches(self, tmp_path, capsys):
        # Two identical uncoupled defects show one line; the model puts it
        # on either branch, with g_z near +|g_x|/2 or -|g_x|/2, and with
        # this noise draw both fit equally well.
        pair = CoupledPair(TLS, TLS, g_z=0.0, g_x=0.0)
        cfg = coupled_inputs(tmp_path, pair, field_rms=90.0, noise_sigma=0.1, seed=0)
        assert run("coupled", "--config", cfg, "--out", tmp_path) == cli.EXIT_COUPLED
        assert "two sign branches fit equally well" in capsys.readouterr().err
        assert not (tmp_path / "coupled_fit.json").exists()

    @pytest.mark.parametrize("command", ["coupled", "plotdata crossing"])
    def test_panel_without_held_v_p_is_a_file_error(self, coupled_run, tmp_path, capsys,
                                                    command):
        out, _code = coupled_run
        panel = tmp_path / "panel_0.csv"
        shutil.copy(out / "panel_0.csv", panel)
        meta = json.loads((out / "panel_0.csv.meta.json").read_text())
        meta["segments"][0]["held"] = {}
        write_json(tmp_path / "panel_0.csv.meta.json", meta)
        pair = out / "coupled.json"
        if command == "coupled":
            cfg = write_json(tmp_path / "coupled.json",
                             {**json.loads(pair.read_text()), "panels": [str(panel)]})
            argv = ("coupled", "--config", cfg, "--out", tmp_path)
        else:
            argv = ("plotdata", "crossing", panel, "--coupled-fit", out / "coupled_fit.json",
                    "--pair", pair, "--out", tmp_path)
        assert run(*argv) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("file error: ") and "held 'v_p'" in err


class TestCoupled:
    def test_recovers_the_pair(self, coupled_run):
        out, code = coupled_run
        assert code == cli.EXIT_OK
        fit = json.loads((out / "coupled_fit.json").read_text())
        assert fit["schema_version"] == 1
        assert fit["g_z_MHz"] == pytest.approx(15.0, rel=0.02)
        assert fit["g_x_MHz"] == pytest.approx(-25.0, rel=0.02)
        assert fit["gamma_p2_GHz_per_V"] == pytest.approx(0.01, rel=0.02)
        assert len(fit["sigma"]) == 3 and all(s > 0 for s in fit["sigma"])
        crossings = sorted(p.name for p in out.glob("crossing_panel_*.csv"))
        assert crossings == [f"crossing_panel_{k}.csv" for k in range(3)]


class TestPlotdata:
    def test_t1_map_has_one_row_per_cell(self, small_run, tmp_path):
        csv = small_run / "dataset.csv"
        assert run("plotdata", "t1-map", csv, "--out", tmp_path) == cli.EXIT_OK
        rows = (tmp_path / "t1_map.csv").read_text().splitlines()
        ds = dataio.read_dataset(csv)
        assert rows[0] == "bias_V,freq_GHz,t1_us"
        assert len(rows) - 1 == sum(grid.size for grid in ds.t1_us)

    def test_dipole_histogram_counts_every_dipole(self, small_run, tmp_path):
        report = small_run / "fit_report.json"
        argv = ("plotdata", "dipole-histogram", report, "--out", tmp_path)
        assert run(*argv) == cli.EXIT_OK
        rows = (tmp_path / "dipole_histogram.csv").read_text().splitlines()[1:]
        records = json.loads(report.read_text())["tls"]
        with_dipole = [r for r in records if r["p_parallel_eA"] is not None]
        assert with_dipole
        assert sum(int(row.split(",")[2]) for row in rows) == len(with_dipole)

    def test_crossing_equals_the_coupled_output(self, coupled_run, tmp_path):
        out, code = coupled_run
        assert code == cli.EXIT_OK
        for k in range(3):
            argv = ("plotdata", "crossing", out / f"panel_{k}.csv",
                    "--coupled-fit", out / "coupled_fit.json",
                    "--pair", out / "coupled.json", "--out", tmp_path / str(k))
            assert run(*argv) == cli.EXIT_OK
            got = (tmp_path / str(k) / "crossing.csv").read_bytes()
            assert got == (out / f"crossing_panel_{k}.csv").read_bytes()

    @pytest.mark.parametrize("case, expected, needle", [
        ("no pair", cli.EXIT_CONFIG, "config error: crossing plotdata needs"),
        ("no g_z", cli.EXIT_IO, "file error: coupled_fit.json: 'g_z_MHz'"),
        ("invalid JSON", cli.EXIT_IO, "file error: coupled_fit.json: not valid JSON"),
    ], ids=["no-pair", "no-g_z", "invalid-json"])
    def test_crossing_input_errors(self, coupled_run, tmp_path, capsys, case, expected,
                                   needle):
        out, _code = coupled_run
        fit = tmp_path / "coupled_fit.json"
        payload = json.loads((out / "coupled_fit.json").read_text())
        if case == "no g_z":
            del payload["g_z_MHz"]
        fit.write_text("{not json" if case == "invalid JSON" else json.dumps(payload))
        argv = ["plotdata", "crossing", out / "panel_0.csv", "--coupled-fit", fit,
                "--out", tmp_path]
        if case != "no pair":
            argv += ["--pair", out / "coupled.json"]
        assert run(*argv) == expected
        assert needle in capsys.readouterr().err


class TestDeterminism:
    def test_bytes_match_recorded_hashes(self, small_run):
        got = {name: sha256(small_run / name) for name in EXPECTED_SHA256}
        assert got == EXPECTED_SHA256

    def test_coupled_bytes_match_recorded_hashes(self, coupled_run, tmp_path):
        out, code = coupled_run
        assert code == cli.EXIT_OK
        assert run("plotdata", "crossing", out / "panel_0.csv",
                   "--coupled-fit", out / "coupled_fit.json",
                   "--pair", out / "coupled.json", "--out", tmp_path) == cli.EXIT_OK
        got = {name: sha256((tmp_path if name == "crossing.csv" else out) / name)
               for name in COUPLED_SHA256}
        assert got == COUPLED_SHA256

    def test_two_runs_give_identical_bytes(self, small_run, tmp_path):
        generate_and_fit(tmp_path, SMALL)
        for name in EXPECTED_SHA256:
            assert (tmp_path / name).read_bytes() == (small_run / name).read_bytes()


def test_cli_import_leaves_out_scipy_stats_and_constants():
    code = (
        "import sys, tls_scope.cli; "
        "print(sorted(m for m in ('scipy.stats', 'scipy.constants') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout.strip() == "[]"


def test_default_fit_loads_no_scipy(tmp_path):
    """Neither `import tls_scope.cli` nor a default `fit`, each in a fresh
    interpreter, imports any part of scipy."""
    assert run("generate", "--seed", 1, "--out", tmp_path) == cli.EXIT_OK
    argv = ["fit", str(tmp_path / "dataset.csv"), "--out", str(tmp_path)]
    code = (
        "import sys, tls_scope.cli as cli\n"
        "def scipy(): return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "imported = scipy()\n"
        f"print(cli.main({argv!r}), imported, scipy(), file=sys.stderr)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stderr.strip().splitlines()[-1] == f"{cli.EXIT_OK} [] []"

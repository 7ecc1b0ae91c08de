"""Command-line contract: exit codes and byte-identical output for a seed."""

import hashlib
import json
import shutil

import pytest

from tls_scope import cli

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
        "2845256f274d8760390001aad08b7d4941cf5d8021eab7ff251e8f3bfe52bb80",
    "material_report.json":
        "7031b38f32bba58365c71f98b7c326d418a41e30b01e4098e6b9e1f549343f0d",
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


class TestDeterminism:
    def test_bytes_match_recorded_hashes(self, small_run):
        got = {name: sha256(small_run / name) for name in EXPECTED_SHA256}
        assert got == EXPECTED_SHA256

    def test_two_runs_give_identical_bytes(self, small_run, tmp_path):
        generate_and_fit(tmp_path, SMALL)
        for name in EXPECTED_SHA256:
            assert (tmp_path / name).read_bytes() == (small_run / name).read_bytes()

"""Command-line contract: exit codes and byte-identical output for a seed."""

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
#: Last re-recorded for the standard-library dipole draw, the sidecar's
#: ``n_freq`` and the batched hyperbola start solve; ``dataset.csv`` alone
#: re-recorded for the one-line-per-bias-step layout,
#: ``material_report.json`` alone when its four detection-cut keys went,
#: ``fit_report.json`` alone when each record's
#: ``delta0_lower_bound_only`` key went, and ``dataset.csv``,
#: ``fit_report.json`` and ``material_report.json`` when the T1 map began
#: to add its TLS one at a time in ensemble order instead of numpy's
#: pairwise order per 16 TLS (last bits of the T1 grid, so of the fits);
#: ``ground_truth.json`` alone when each record's unread ``gamma1_tls``
#: key went.
EXPECTED_SHA256 = {
    "dataset.csv":
        "22aef9129b9fbc8736f3df4864391695d742980951a79e11de86e39dcfa34e5a",
    "dataset.csv.meta.json":
        "c1f19a43f3c01fbb56d8409a0cc1eee09c16fe230236263cb22743b335f0bb93",
    "ground_truth.json":
        "cbc7742bad895027cdae30a2b862b8daa4b760987770f336b5081057b823fdbc",
    "fit_report.json":
        "be3660806809f02b879d060d0be4512e17b7de5f8fd52f8f45aa0c441ae9644f",
    "material_report.json":
        "1f7aa0f9a9daab9036b367f44a17c95a71c7cc0c558371b469b4352ac53bee18",
}


#: A crowded `generate` config: about 1.4k TLS (many term-buffer chunks), 24
#: bias steps (two bias blocks per segment) and global segments whose
#: rows all repeat, and its output sha256 for `--seed 1` (numpy 2.4,
#: x86-64), recorded before the T1-map pool became one per map;
#: ``dataset.csv`` re-recorded for the one-line-per-bias-step layout, and
#: again when the T1 map began to add its TLS in ensemble order;
#: ``ground_truth.json`` when each record's unread ``gamma1_tls`` key went.
CROWDED = {"volume_um3": 0.225, "band_ghz": [6.0, 6.1], "n_bias": 24}
CROWDED_SHA256 = {
    "dataset.csv":
        "d361a16afd914d7a5d6f2bdfb7830ffbcc0037bdc50c22203ec90a4e6321bfa8",
    "dataset.csv.meta.json":
        "c45f2cfa7759a3d4b834abc7b7d0c19bc0d85ed6466699d7ff5a1b3092636d66",
    "ground_truth.json":
        "fbb79675ae0e5e29fddd47ad71e85bc52de4049df335b013927208957b6161e4",
}


#: sha256 of `coupled` on the `coupled_run` panels (numpy 2.4, x86-64).
#: Recorded before the coupled fit moved onto one `lm_batch`; the same
#: rule as above holds.
COUPLED_SHA256 = {
    "coupled_fit.json":
        "20be0f296e1e35ec59db69255c1069dc6a31b58e9f7518fd593b7923a05a2268",
    "crossing_panel_0.csv":
        "d7b1f3716b6a57560a8da24962bc07926dcd1d928aaced8d4147489de4b7e958",
    "crossing_panel_1.csv":
        "8c8de4a321047c259bb4374281bd0142c78b89cac8176e3bf4ed668396f1d703",
    "crossing_panel_2.csv":
        "972d4c015cc13e646c259549b0423a71965787f90f13b7ede8523ccd758ab28d",
}


#: stdout of `design` with the default config, and the sha256 of the
#: design_report.json it writes (numpy 2.4, x86-64).
DESIGN_STDOUT = """\
V_rms [uV]                   4.532
d (detectability rule) [nm]  296.1
d (configured) [nm]          50.0
C_s [fF]                     0.1328
participation p_s            1.328e-03
Gamma1 [1/us]                0.3153
T1 budget [us]               3.171
dielectric-limited           no
"""
DESIGN_SHA256 = "edd055957f61cd4d491a2237b30ad343f90d93c1dfefa49f7815eabbb462baa8"

#: stdout of `fit` on the SMALL dataset of `generate --seed 1`.
FIT_STDOUT = """\
defects tracked                   34
sample-dielectric defects         4
mean dipole p_par [eA]            0.5777
std dipole p_par [eA]             0.06326
sample spectral density [1/GHz]   1.062
volume density P0 [1/(um^3 GHz)]  236.1
loss tangent tan_d0               3.611e-04
density sample_dielectric         1.062 /GHz
density unclassified              3.198 /GHz
"""


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
        ({"delta0": -1}, ["panel.csv"], "'tls1': delta0 must be > 0, got -1"),
        ({"location": "bogus"}, ["panel.csv"], "'tls1': 'bogus' is not a valid Location"),
        ({"p_parallel": -1}, ["panel.csv"], "'tls1': p_parallel is a magnitude"),
        # These used to end in a numpy traceback, or (a bool) be taken as 1.0.
        ({"gamma_s": "x"}, ["panel.csv"], "'tls1': gamma_s must be a number, got 'x'"),
        ({"gamma_s": [1.0, 2.0]}, ["panel.csv"], "'tls1': gamma_s must be a number, got [1.0, 2.0]"),
        ({"gamma_s": None}, ["panel.csv"], "'tls1': gamma_s must be a number, got None"),
        ({"gamma_s": {"a": 1}}, ["panel.csv"], "'tls1': gamma_s must be a number, got {'a': 1}"),
        ({"eps_i": "1"}, ["panel.csv"], "'tls1': eps_i must be a number, got '1'"),
        ({"delta0": True}, ["panel.csv"], "'tls1': delta0 must be a number, got True"),
        # A record copied from a ground_truth.json that still has the key.
        ({"gamma1_tls": 0.0}, ["panel.csv"], "unexpected keyword argument 'gamma1_tls'"),
        ({"gamma2_tls": 0}, ["panel.csv"], "'tls1': gamma2_tls must be finite and > 0, got 0"),
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
        {"band_ghz": [6.7, 5.8]},  # generate_ensemble: an empty band
        {"v_s_source_amplitude": 1.0},  # default_sweep_plan: 4.9 mV cold-end
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
        assert run("generate", "--config", cfg, "--out", tmp_path / "out") == cli.EXIT_CONFIG
        assert f"config error: {needle}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("override, needle", [
        ({"n_bias": 0}, "n_bias must be at least 2"),
        ({"n_bias": 1}, "n_bias must be at least 2"),
        ({"noise_sigma": -1.0}, "noise_sigma must be non-negative"),
        ({"division_factor": 0.0}, "division_factor must be > 0"),
        ({"v_s_source_amplitude": 0.6},
         "source 0.6 V divides to 2.927 mV cold-end, above the 2.500 mV limit"),
        # Used to print the divided amplitude with all of its 300 digits.
        ({"division_factor": 1e-300},
         "source 0.5 V divides to 5e+302 mV cold-end, above the 2.500 mV limit"),
        # Infinity used to flatten every sample segment (exit 0), and NaN
        # ended in "a trace is more than half missing".  The config loader
        # refuses them now, by the key as written.
        ({"division_factor": float("inf")}, "config key 'division_factor' must be finite, got inf"),
        ({"v_s_source_amplitude": float("nan")},
         "config key 'v_s_source_amplitude' must be finite, got nan"),
        ({"v_g_range": [float("nan"), -30.0]},
         "config key 'v_g_range' must be finite, got [nan, -30.0]"),
        ({"v_p_range": [90.0, float("inf")]},
         "config key 'v_p_range' must be finite, got [90.0, inf]"),
        # These used to reach exit 2 only through a catch-all of every
        # ValueError, with numpy's or Python's message.
        ({"band_ghz": [6.0, 6.4, 7.0]}, "config key 'band_ghz' has the wrong type or length: "
                                        "[6.0, 6.4, 7.0] (default [5.8, 6.7])"),
        ({"band_ghz": [6.0]}, "config key 'band_ghz' has the wrong type or length: [6.0]"),
        ({"v_g_range": [1.0]}, "config key 'v_g_range' has the wrong type or length: [1.0]"),
        ({"segment_order": []}, "the segment order is empty"),
        # These used to name the SensorDesign field: d, c_tot, area,
        # omega10 and t1_qubit.
        ({"thickness_nm": 0}, "thickness_nm must be strictly positive, got 0, which is d = 0.0"),
        ({"c_tot_fF": 0}, "c_tot_fF must be strictly positive, got 0, which is c_tot = 0.0"),
        ({"area_um2": 0}, "area_um2 must be strictly positive, got 0, which is area = 0.0"),
        ({"f10_ghz": 0}, "f10_ghz must be strictly positive, got 0, which is omega10 = 0.0"),
        ({"t1_qubit_us": 0},
         "t1_qubit_us must be strictly positive, got 0, which is t1_qubit = 0"),
        # 1/T1 overflows to inf: this used to exit 2 with "T1 values must be
        # positive or NaN", which names no key, and then with "must be
        # finite and > 0, got 1e-320", which contradicts itself.
        ({"t1_qubit_us": 1e-320}, "t1_qubit_us must be large enough that 1/t1_qubit is "
                                  "finite, got 1e-320, which is t1_qubit = 1e-320"),
        ({"eps_r": 0}, "eps_r must be strictly positive, got 0"),
        ({"band_ghz": [6.0, 6.001]}, "frequency axis needs at least 2 points, got 1"),
        # The ensemble draws about 8 candidates for this band.  The 2001-point
        # trapezoid that gave its in-band share before squared each edge to
        # 0 and refused the band as "drawn from inf candidates".
        ({"band_ghz": [1e-300, 2e-300]}, "frequency axis needs at least 2 points, got 1"),
        # The first used to exit 0 after numpy's "overflow encountered in
        # square" in the T1 map's detunings.
        ({"v_p_range": [1e300, -30.0]},
         "v_p_range ends must lie within +-10000 V, got (1e+300, -30.0)"),
        ({"v_g_range": [90.0, -1e5]},
         "v_g_range ends must lie within +-10000 V, got (90.0, -100000.0)"),
    ], ids=["n_bias-0", "n_bias-1", "negative-noise", "zero-division", "over-limit",
            "tiny-division", "infinite-division", "nan-amplitude", "nan-global-range",
            "infinite-piezo-range", "long-band", "short-band", "short-global-range", "empty-order", "zero-thickness",
            "zero-capacitance", "zero-area", "zero-frequency", "zero-t1", "tiny-t1",
            "zero-eps", "one-point-band", "tiny-band", "huge-piezo-range", "huge-global-range"])
    def test_generate_refuses_bad_value(self, tmp_path, capsys, override, needle):
        # A refused run used to leave an empty output directory.
        cfg = write_json(tmp_path / "bad.json", {**SMALL, **override})
        assert run("generate", "--config", cfg, "--out", tmp_path / "out") == cli.EXIT_CONFIG
        assert f"config error: {needle}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("override, needle", [
        ({"p0_per_um3_ghz": float("nan")}, "config key 'p0_per_um3_ghz' must be finite, got nan"),
        ({"p0_per_um3_ghz": -5},
         "p0_per_um3_ghz must be finite and >= 0, got -5, which is p0_target = -5"),
        ({"gamma_p_max_ghz_per_v": float("nan")},
         "config key 'gamma_p_max_ghz_per_v' must be finite, got nan"),
        ({"gamma_p_max_ghz_per_v": float("inf")},
         "config key 'gamma_p_max_ghz_per_v' must be finite, got inf"),
        ({"volume_um3": float("nan")}, "config key 'volume_um3' must be finite, got nan"),
        ({"volume_um3": -1.0}, "volume_um3 must be finite and >= 0, got -1.0"),
        ({"volume_um3": float("inf")}, "config key 'volume_um3' must be finite, got inf"),
        # Used to end in numpy's "lam value too large" from the Poisson draw.
        ({"p0_per_um3_ghz": 1e30}, "p0_target * volume_um3 * bandwidth asks for 1.8e+27 "
                                   "defects in band, drawn from 1.77e+28 candidates, "
                                   "more than 100000"),
        # Used to end in numpy's "Maximum allowed size exceeded" traceback.
        ({"freq_step_ghz": 1e-300},
         "freq_step_ghz 1e-300 gives a T1 map of 9.6e+301 cells (segments x n_bias x "
         "frequencies), more than 10000000"),
        # These two used to exit 2 only after numpy RuntimeWarnings, with
        # "T1 values must be finite or NaN" and "a trace is more than half
        # missing".
        ({"noise_sigma": 1e30}, "noise_sigma must be non-negative and at most 50.0, got 1e+30"),
        ({"thickness_nm": 1e-300}, "total capacitance must exceed the sample capacitance"),
        # The first used to end in an OverflowError traceback from the
        # strain-rate draw, the second in numpy's "overflow encountered in
        # square" (exit 0), and the dipoles exited 2 only after numpy
        # RuntimeWarnings, with "T1 values must be positive or NaN" or "a
        # trace is more than half missing".
        ({"gamma_p_max_ghz_per_v": 1e308}, "gamma_p_max_ghz_per_v must be at most 1000.0, "
                                           "got 1e+308, which is gamma_p_max = 1e+308"),
        ({"gamma_p_max_ghz_per_v": 1e200}, "gamma_p_max_ghz_per_v must be at most 1000.0"),
        ({"dipole_mean_ea": 1e200}, "dipole_mean_ea must be > 0 and at most 100.0, got "
                                    "1e+200, which is dipole_mean = 1e+200"),
        ({"dipole_mean_ea": 1e308}, "dipole_mean_ea must be > 0 and at most 100.0"),
        ({"dipole_std_ea": 1e308}, "dipole_std_ea must be > 0 and at most 100.0, got "
                                   "1e+308, which is dipole_std = 1e+308"),
    ], ids=["p0-nan", "p0-negative", "gamma_p-nan", "gamma_p-inf", "volume-nan",
            "volume-negative", "volume-inf", "p0-huge", "freq-step-tiny",
            "noise-huge", "thickness-tiny", "gamma_p-max-float", "gamma_p-huge",
            "dipole-mean-huge", "dipole-mean-max-float", "dipole-std-max-float"])
    def test_generate_refuses_bad_ensemble_value(self, tmp_path, capsys, override, needle):
        # NaN and a negative P0 or volume used to draw an empty ensemble
        # (exit 0), a non-finite gamma_p_max ended in an OverflowError
        # traceback, and an infinite volume exited 2 only through numpy's
        # Poisson draw.  The non-finite values are refused by the config
        # loader, the negative ones by EnsembleConfig.
        cfg = write_json(tmp_path / "bad.json", {**SMALL, **override})
        assert run("generate", "--config", cfg, "--out", tmp_path / "out") == cli.EXIT_CONFIG
        assert f"config error: {needle}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, override, needle", [
        # The tracking rules are constants: a key that sets one, even to
        # the value in use, is refused.
        ("fit", {"threshold": 0.3}, "unknown config keys: ['threshold']"),
        ("fit", {"threshold": 0.25}, "unknown config keys: ['threshold']"),
        ("fit", {"jump_limit": 5.0}, "unknown config keys: ['jump_limit']"),
        ("fit", {"max_gap": 3}, "unknown config keys: ['max_gap']"),
        ("fit", {"first_link_factor": 5.0}, "unknown config keys: ['first_link_factor']"),
        ("fit", {"min_points": 4}, "unknown config keys: ['min_points']"),
        ("fit", {"min_points": 6, "max_gap": 1},
         "unknown config keys: ['max_gap', 'min_points']"),
        # Traces chain across a segment boundary within traces.JUMP_LIMIT.
        ("fit", {"boundary_tol": 5}, "unknown config keys: ['boundary_tol']"),
        ("fit", {"thickness_nm": 0},
         "thickness_nm must be > 0, got 0, which is thickness_m = 0.0"),
        # The analytic detection cut and its three keys are gone.
        ("fit", {"field_rms_v_per_m": 20.0}, "unknown config keys: ['field_rms_v_per_m']"),
        ("fit", {"t1_us": 1.0}, "unknown config keys: ['t1_us']"),
        ("fit", {"dipole_std_prior_ea": 0.3}, "unknown config keys: ['dipole_std_prior_ea']"),
        # These used to write Infinity into material_report.json, or end in
        # a ZeroDivisionError or OverflowError traceback.
        ("fit", {"volume_um3": 1e-320},
         "P0, tan_delta0 overflow with volume_um3 1e-320, eps_r 10.0 and thickness_nm 50.0"),
        ("fit", {"eps_r": 1e-320},
         "tan_delta0 overflow with volume_um3 0.00225, eps_r 1e-320 and thickness_nm 50.0"),
        ("fit", {"thickness_nm": 1e300}, "dipole std, tan_delta0 overflow with "
                                         "volume_um3 0.00225, eps_r 10.0 and thickness_nm 1e+300"),
        ("coupled", {"threshold": 0.25}, "unknown config keys: ['threshold']"),
        ("coupled", {"jump_limit": 8.0}, "unknown config keys: ['jump_limit']"),
        ("design", {"c_tot_fF": 0.01}, "total capacitance must exceed the sample capacitance"),
        # These used to write Infinity into design_report.json.
        ("design", {"f10_ghz": 1e300},
         "f10_ghz must be finite, got 1e+300, which is omega10 = inf"),
        ("design", {"thickness_nm": 0},
         "thickness_nm must be strictly positive, got 0, which is d = 0.0"),
        ("design", {"t1_qubit_us": 0},
         "t1_qubit_us must be strictly positive, got 0, which is t1_qubit = 0"),
        ("design", {"tan_delta0": 1e308},
         "design outputs ['Gamma1_per_us'] overflow for this config"),
        ("design", {"p_min_ea": 1e308}, "design outputs ['d_rule_nm'] overflow for this config"),
        # The T1 budget is at most T1, so it can no longer overflow; a T1
        # whose rate does is refused by its key, as generate refuses it.
        ("design", {"t1_qubit_us": 1e-320}, "t1_qubit_us must be large enough that "
                                            "1/t1_qubit is finite, got 1e-320"),
        # design and generate name the sensor by the same keys; the film
        # and T1 keys of design's own and its second background rate are gone.
        ("design", {"d_nm": 50.0}, "unknown config keys: ['d_nm']"),
        ("design", {"t1_us": 1.0}, "unknown config keys: ['t1_us']"),
        ("design", {"gamma_background_per_us": 0.1},
         "unknown config keys: ['gamma_background_per_us']"),
        ("design", {"p_min_ea": 0}, "p_min_ea must be > 0, got 0"),
        # Used to read "design parameter tan_delta0 must be positive",
        # though 0 is accepted.
        ("design", {"tan_delta0": -1e-3}, "tan_delta0 must be >= 0, got -0.001"),
    ], ids=["fit-removed-threshold", "fit-threshold-in-use", "fit-removed-jump",
            "fit-removed-gap", "fit-removed-first-link", "fit-removed-min-points",
            "fit-two-removed-keys", "fit-removed-boundary",
            "fit-zero-thickness", "fit-removed-field", "fit-removed-t1", "fit-removed-prior",
            "fit-tiny-volume", "fit-tiny-eps", "fit-huge-thickness",
            "coupled-removed-threshold", "coupled-removed-jump", "design-loaded-qubit",
            "design-huge-frequency", "design-zero-thickness", "design-zero-t1",
            "design-huge-loss", "design-huge-dipole", "design-tiny-t1",
            "design-removed-thickness", "design-removed-t1", "design-removed-background",
            "design-zero-dipole", "design-negative-loss"])
    @pytest.mark.filterwarnings("ignore:sample capacitor holds")
    def test_refuses_bad_setting(self, small_run, coupled_run, tmp_path, capsys, command,
                                 override, needle):
        base = {}
        if command == "coupled":
            base = json.loads((coupled_run[0] / "coupled.json").read_text())
        cfg = write_json(tmp_path / "bad.json", {**base, **override})
        argv = [command, "--config", cfg, "--out", tmp_path / "out"]
        if command == "fit":
            argv.insert(1, small_run / "dataset.csv")
        assert run(*argv) == cli.EXIT_CONFIG
        assert f"config error: {needle}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_panel_must_be_a_sample_sweep(self, small_run, coupled_run, tmp_path, capsys):
        out, _code = coupled_run
        cfg = write_json(tmp_path / "coupled.json", {
            **json.loads((out / "coupled.json").read_text()),
            "panels": [str(small_run / "dataset.csv")]})
        assert run("coupled", "--config", cfg, "--out", tmp_path) == cli.EXIT_CONFIG
        assert ("config error: crossing panels are single-segment V_s sweeps"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("argv, needle", [
        (["generate", "--seed", "-1"], "--seed: must be a non-negative integer, got '-1'"),
        (["design", "--seed", "7"], "unrecognized arguments: --seed 7"),
        (["plotdata"], "invalid choice: 'plotdata'"),
    ], ids=["negative-seed", "design-seed", "plotdata-is-gone"])
    def test_each_command_takes_only_its_flags(self, tmp_path, capsys, argv, needle):
        # design used to take and ignore --seed (exit 0), and a negative
        # seed ended in numpy's message through exit 2.  plotdata is no
        # longer a command.
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--out", tmp_path / "out")
        assert exc.value.code == cli.EXIT_CONFIG
        assert needle in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["generate", "fit", "coupled", "design"])
    def test_every_command_reads_its_config(self, small_run, tmp_path, capsys, command):
        # Every command takes --config; a missing file is refused by each.
        argv = [command, "--config", tmp_path / "missing.json", "--out", tmp_path / "out"]
        if command == "fit":
            argv.insert(1, small_run / "dataset.csv")
        assert run(*argv) == cli.EXIT_CONFIG
        assert "config error: config not found: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, needle", [
        ("{not json", "config error: config is not valid JSON: "),
        ("[1, 2]", "config error: config must be a JSON object\n"),
    ], ids=["not-json", "a-list"])
    @pytest.mark.parametrize("command", ["generate", "fit", "coupled", "design"])
    def test_every_command_refuses_a_config_that_is_no_json_object(
            self, small_run, tmp_path, capsys, command, text, needle):
        cfg = tmp_path / "bad.json"
        cfg.write_text(text)
        argv = [command, "--config", cfg, "--out", tmp_path / "out"]
        if command == "fit":
            argv.insert(1, small_run / "dataset.csv")
        assert run(*argv) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith(needle)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("damage, needle", [
        ("no-sidecar", "file error: missing sidecar dataset.csv.meta.json\n"),
        ("list-sidecar", "file error: dataset.csv.meta.json: expected a JSON object\n"),
        # The one route into main's OSError branch: the sidecar is read
        # first, then opening the CSV fails.
        ("no-csv", "I/O error: [Errno 2] No such file or directory: "),
    ])
    def test_fit_refuses_a_dataset_without_its_pair(self, small_run, tmp_path, capsys, damage,
                                                   needle):
        csv = copy_dataset(small_run, tmp_path / "data")
        sidecar = csv.with_name("dataset.csv.meta.json")
        if damage == "no-sidecar":
            sidecar.unlink()
        elif damage == "list-sidecar":
            sidecar.write_text("[1, 2]")
        else:
            csv.unlink()
        assert run("fit", csv, "--out", tmp_path / "out") == cli.EXIT_IO
        assert capsys.readouterr().err.startswith(needle)
        assert not (tmp_path / "out").exists()

    def test_fit_refuses_a_frequency_axis_that_is_not_uniform(self, small_run, tmp_path,
                                                              capsys):
        csv = copy_dataset(small_run, tmp_path / "data")
        header, rest = csv.read_text().split("\n", 1)
        columns = header.split(",")
        columns[4] = repr(float(columns[4]) + 1e-3)  # the second frequency
        csv.write_text(",".join(columns) + "\n" + rest)
        assert run("fit", csv, "--out", tmp_path / "out") == cli.EXIT_IO
        assert capsys.readouterr().err == (
            "file error: dataset.csv: frequency axis must be uniform\n")
        assert not (tmp_path / "out").exists()

    def test_design_and_generate_describe_one_sensor(self):
        assert (cli._sensor_design(cli.DESIGN_DEFAULTS)
                == cli._sensor_design(cli.GENERATE_DEFAULTS))
        shared = set(cli.DESIGN_DEFAULTS) & set(cli.GENERATE_DEFAULTS)
        assert set(cli.DESIGN_DEFAULTS) - shared == {"p_min_ea", "tan_delta0"}
        assert all(cli.DESIGN_DEFAULTS[k] == cli.GENERATE_DEFAULTS[k] for k in shared)

    def test_design_without_dielectric_loss_keeps_the_qubit_t1(self, tmp_path, capsys):
        # tan_delta0 = 0 is accepted: the budget is the qubit's own T1.
        cfg = write_json(tmp_path / "design.json", {"tan_delta0": 0, "t1_qubit_us": 2.5})
        assert run("design", "--config", cfg) == cli.EXIT_OK
        assert "T1 budget [us]               2.500\n" in capsys.readouterr().out

    @pytest.mark.parametrize("slack, expected", [(0, cli.EXIT_OK), (-1, cli.EXIT_CONFIG)],
                             ids=["at-limit", "one-cell-over"])
    def test_map_limit_counts_the_drawn_cells(self, tmp_path, monkeypatch, capsys, slack,
                                              expected):
        # The limit counts the cells np.arange's frequencies give (TINY's
        # 6.0-6.1 GHz band is 24.99999999999991 steps of 4 MHz, 26
        # points): a map of exactly MAX_MAP_CELLS cells is drawn, one
        # cell more is refused.
        _, ds = cli.simulate({**cli.GENERATE_DEFAULTS, **TINY}, 0)
        cells = sum(grid.size for grid in ds.t1_us)
        monkeypatch.setattr(cli, "MAX_MAP_CELLS", cells + slack)
        cfg = write_json(tmp_path / "tiny.json", TINY)
        assert run("generate", "--config", cfg, "--out", tmp_path / "out") == expected
        err = capsys.readouterr().err
        if expected == cli.EXIT_OK:
            assert (tmp_path / "out" / "dataset.csv").is_file()
        else:
            assert f"gives a T1 map of {cells:.3g} cells" in err
            assert err.endswith(f"more than {cells - 1}\n")
            assert not (tmp_path / "out").exists()

    def test_library_bug_is_no_config_error(self, small_run, tmp_path, monkeypatch):
        def bug(*args):
            raise ValueError("bug")

        monkeypatch.setattr(cli, "analyze_dataset", bug)
        with pytest.raises(ValueError, match="^bug$"):
            run("fit", small_run / "dataset.csv", "--out", tmp_path)

    @pytest.mark.parametrize("volume", [float("nan"), float("inf"), -1.0, 0.0])
    def test_fit_refuses_bad_volume(self, small_run, tmp_path, capsys, volume):
        # A NaN volume used to exit 0 with a bare NaN, which is no JSON,
        # in material_report.json.  The config loader refuses a non-finite
        # one, volume_density a non-positive one.
        cfg = write_json(tmp_path / "fit.json", {"volume_um3": volume})
        argv = ("fit", small_run / "dataset.csv", "--config", cfg, "--out", tmp_path / "out")
        assert run(*argv) == cli.EXIT_CONFIG
        needle = (f"volume must be positive and finite, got {volume}" if np.isfinite(volume)
                  else f"config key 'volume_um3' must be finite, got {volume}")
        assert f"config error: {needle}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, text, needle", [
        ("generate", '{"band_ghz": [6.0, 1e999]}', "'band_ghz' must be finite, got [6.0, inf]"),
        ("fit", '{"thickness_nm": NaN}', "'thickness_nm' must be finite, got nan"),
        ("fit", '{"eps_r": NaN, "thickness_nm": NaN}', "'eps_r' must be finite, got nan"),
        ("coupled", '{"tls1": {"delta0": 5.9, "gamma_s": [1.0, -Infinity]}}',
         "'tls1' must be finite, got {'delta0': 5.9, 'gamma_s': [1.0, -inf]}"),
        ("design", '{"tan_delta0": NaN}', "'tan_delta0' must be finite, got nan"),
        ("design", '{"tan_delta0": 1e999}', "'tan_delta0' must be finite, got inf"),
    ], ids=["generate-overflow-in-list", "fit-nan-thickness", "fit-nan-film", "coupled-nested",
            "design-nan", "design-overflow"])
    def test_non_finite_config_number(self, small_run, tmp_path, capsys, command, text,
                                      needle):
        # design and fit used to exit 0 with NaN or Infinity, which is no
        # JSON, in their reports.
        cfg = tmp_path / "bad.json"
        cfg.write_text(text)
        argv = [command, "--config", cfg, "--out", tmp_path / "out"]
        if command == "fit":
            argv.insert(1, small_run / "dataset.csv")
        assert run(*argv) == cli.EXIT_CONFIG
        assert f"config error: config key {needle}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_schema_version_is_checked(self, tmp_path, capsys):
        # A version 99 config used to be taken as it was (exit 0).
        cfg = write_json(tmp_path / "design.json", {"schema_version": 99})
        assert run("design", "--config", cfg, "--out", tmp_path / "out") == cli.EXIT_IO
        assert "file error: config: unsupported schema_version 99" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        cfg = write_json(tmp_path / "design.json", {"schema_version": SCHEMA_VERSION})
        assert run("design", "--config", cfg, "--out", tmp_path / "out") == cli.EXIT_OK

    def test_class_filter_keeps_one_class(self, small_run, tmp_path):
        sample = Location.SAMPLE_DIELECTRIC.value
        argv = ("fit", small_run / "dataset.csv", "--class-filter", sample, "--out", tmp_path)
        assert run(*argv) == cli.EXIT_OK
        report = json.loads((tmp_path / "fit_report.json").read_text())
        every = json.loads((small_run / "fit_report.json").read_text())["tls"]
        assert report["class_filter"] == sample
        assert report["tls"] == [r for r in every if r["class"] == sample] != []

    def test_class_filter_takes_only_a_location(self, small_run, tmp_path, capsys):
        # A misspelled class used to exit 0 with a report of no defects.
        argv = ("fit", small_run / "dataset.csv", "--class-filter", "sample_dielectrik",
                "--out", tmp_path)
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == cli.EXIT_CONFIG
        assert "invalid choice: 'sample_dielectrik'" in capsys.readouterr().err
        assert not (tmp_path / "fit_report.json").exists()

    def test_constant_bias_dataset_is_no_config_error(self, small_run, tmp_path):
        # Every trace has a single bias value, so its start design is rank
        # deficient: each is a DegenerateTrace, where the per-trace
        # np.polyfit start raised "SVD did not converge" (exit 2).
        csv = copy_dataset(small_run, tmp_path / "data")
        lines = csv.read_text().split("\n")
        for k in range(1, len(lines) - 1):
            fields = lines[k].split(",")
            fields[2] = "0.001"
            lines[k] = ",".join(fields)
        csv.write_text("\n".join(lines))
        assert run("fit", csv, "--out", tmp_path) == cli.EXIT_OK
        report = json.loads((tmp_path / "fit_report.json").read_text())
        assert report["n_traces"] > 0
        assert all(r["p_parallel_eA"] is None for r in report["tls"])

    def test_tiny_frequency_span_is_analysed(self, small_run, tmp_path):
        # A uniform dyadic axis 6.0 + k * 2^-30 GHz spans ~9e-8 GHz, which
        # the spectral density rounded to the fraction 0: fit ended in
        # "ValueError: span must be positive" (exit 1).  Tracking counts
        # grid steps, so it finds the traces of the original axis.
        csv = copy_dataset(small_run, tmp_path / "data")
        lines = csv.read_text().split("\n")
        head = lines[0].split(",")
        head[3:] = [repr(6.0 + k * 2.0**-30) for k in range(len(head) - 3)]
        lines[0] = ",".join(head)
        csv.write_text("\n".join(lines))
        assert run("fit", csv, "--out", tmp_path / "out") == cli.EXIT_OK
        report = json.loads((tmp_path / "out" / "fit_report.json").read_text())
        before = json.loads((small_run / "fit_report.json").read_text())
        assert report["n_traces"] == before["n_traces"] > 0
        densities = report["spectral_density_per_GHz"].values()
        assert densities and all(0 < d < math.inf for d in densities)

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
        ("swap", "dataset.csv: frequency axis must be strictly increasing"),
        ("cell", "row 4: "),
        ("nan", "row 4: bias_V is not finite"),
    ])
    def test_damaged_csv_is_a_file_error(self, small_run, tmp_path, capsys, damage, needle):
        csv = copy_dataset(small_run, tmp_path / "data")
        lines = csv.read_text().split("\n")
        if damage == "cut":
            lines[-2] = lines[-2][:-3]
            del lines[-1]
        elif damage == "cell":
            lines[3] += ",1.0"
        else:
            row = 0 if damage == "swap" else 3
            fields = lines[row].split(",")
            if damage == "swap":
                fields[3], fields[4] = fields[4], fields[3]
            else:
                fields[2] = "nan"
            lines[row] = ",".join(fields)
        csv.write_text("\n".join(lines))
        assert run("fit", csv, "--out", tmp_path) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("file error: ") and needle in err

    def test_per_cell_layout_is_a_file_error(self, small_run, tmp_path, capsys):
        # A dataset of the layout before one line per bias step.
        csv = copy_dataset(small_run, tmp_path / "data")
        csv.write_text("segment,control,bias_V,freq_GHz,t1_us\n0,global,90.0,6.0,3.5\n")
        assert run("fit", csv, "--out", tmp_path) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("file error: ") and "Traceback" not in err
        assert "one-line-per-cell layout" in err and "run generate again" in err

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

    @pytest.mark.parametrize("eps_r", [-10.0, 0.0])
    def test_fit_refuses_non_positive_eps_r_without_a_loss_tangent(self, tmp_path, capsys,
                                                                   eps_r):
        # No defect, so no loss tangent: eps_r used to go into the report as is.
        cfg = write_json(tmp_path / "empty.json", {**SMALL, "p0_per_um3_ghz": 0.0})
        assert run("generate", "--config", cfg, "--out", tmp_path) == cli.EXIT_OK
        bad = write_json(tmp_path / "bad.json", {"eps_r": eps_r})
        argv = ("fit", tmp_path / "dataset.csv", "--allow-empty", "--config", bad,
                "--out", tmp_path)
        assert run(*argv) == cli.EXIT_CONFIG
        assert f"config error: eps_r must be > 0, got {eps_r}" in capsys.readouterr().err
        assert not (tmp_path / "material_report.json").exists()


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

    @pytest.mark.parametrize("seed", [2, 3])
    def test_coupled_fit_without_covariance(self, tmp_path, capsys, seed):
        # The same uncoupled pair on one V_p = 0 panel: gamma_p2 does not
        # move any line, so J^T W J is singular and the fit has no
        # covariance.  These seeds used to exit 0 with sigma(gamma_p2) = 0.
        pair = CoupledPair(TLS, TLS, g_z=0.0, g_x=0.0)
        cfg = coupled_inputs(tmp_path, pair, field_rms=90.0, noise_sigma=0.1, seed=seed)
        assert run("coupled", "--config", cfg, "--out", tmp_path) == cli.EXIT_COUPLED
        assert "singular at the solution" in capsys.readouterr().err
        assert not (tmp_path / "coupled_fit.json").exists()

    def test_coupled_fit_whose_start_overflows(self, coupled_run, tmp_path, capsys):
        # chi2 overflows at both sign starts.  They used to count as
        # converged with chi2 = inf: exit 5 for a singular J^T W J, after
        # numpy's overflow and inf - inf warnings.
        cfg = write_json(tmp_path / "coupled.json",
                         {**json.loads((coupled_run[0] / "coupled.json").read_text()),
                          "g_z0_mhz": 1e300})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("coupled", "--config", cfg, "--out", tmp_path / "out") == cli.EXIT_COUPLED
        err = capsys.readouterr().err
        assert err == "coupled fit failed: no sign branch of the coupled fit converged\n"
        assert not (tmp_path / "out").exists()

    def test_coupled_tls_records_need_no_version(self, coupled_run, tmp_path, capsys):
        # A hand-written record without a schema_version used to exit 3;
        # one of an unknown version still does.
        cfg = json.loads((coupled_run[0] / "coupled.json").read_text())
        for key in ("tls1", "tls2"):
            del cfg[key]["schema_version"]
        path = write_json(tmp_path / "coupled.json", cfg)
        assert run("coupled", "--config", path, "--out", tmp_path / "out") == cli.EXIT_OK
        assert (tmp_path / "out" / "coupled_fit.json").is_file()
        cfg["tls2"]["schema_version"] = 99
        path = write_json(tmp_path / "coupled.json", cfg)
        assert run("coupled", "--config", path, "--out", tmp_path / "bad") == cli.EXIT_IO
        assert "file error: TlsParams: unsupported schema_version 99" in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()

    def test_panel_with_non_finite_held_v_p_is_a_file_error(self, coupled_run, tmp_path,
                                                            capsys):
        # The reader took a NaN as a number, and the fit at V_p = NaN
        # exited 5 for a singular J^T W J.
        out, _code = coupled_run
        panel = tmp_path / "panel_0.csv"
        shutil.copy(out / "panel_0.csv", panel)
        meta = json.loads((out / "panel_0.csv.meta.json").read_text())
        meta["segments"][0]["held"]["v_p"] = math.nan
        write_json(tmp_path / "panel_0.csv.meta.json", meta)
        cfg = write_json(tmp_path / "coupled.json",
                         {**json.loads((out / "coupled.json").read_text()),
                          "panels": [str(panel)]})
        assert run("coupled", "--config", cfg, "--out", tmp_path / "out") == cli.EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("file error: panel_0.csv.meta.json: holds a number that is not "
                              "finite")
        assert not (tmp_path / "out").exists()

    def test_panel_without_held_v_p_is_a_file_error(self, coupled_run, tmp_path, capsys):
        out, _code = coupled_run
        panel = tmp_path / "panel_0.csv"
        shutil.copy(out / "panel_0.csv", panel)
        meta = json.loads((out / "panel_0.csv.meta.json").read_text())
        meta["segments"][0]["held"] = {}
        write_json(tmp_path / "panel_0.csv.meta.json", meta)
        cfg = write_json(tmp_path / "coupled.json",
                         {**json.loads((out / "coupled.json").read_text()),
                          "panels": [str(panel)]})
        assert run("coupled", "--config", cfg, "--out", tmp_path) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("file error: ") and "held 'v_p'" in err


#: The tiny grid of the config properties: 6-12 TLS in 0.1 GHz, 8 bias
#: steps per segment.  A `generate` or `fit` on it takes about 25 ms.
TINY = {"band_ghz": [6.0, 6.1], "freq_step_ghz": 0.004, "n_bias": 8, "volume_um3": 0.0225}

EXIT_CODES = {cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_IO, cli.EXIT_EMPTY, cli.EXIT_COUPLED}


def variants(value):
    """What a config key may be drawn as: its good ``value``, 0, minus
    ``value``, 1e30 for a number, a list one element short or long, []
    and a string."""
    drawn = [value, 0, [], "x"]
    if isinstance(value, (int, float)):
        drawn += [-value, 1e30]
    elif isinstance(value, list):
        drawn += [value[:-1], value + value[-1:]]
        if all(isinstance(v, (int, float)) for v in value):
            drawn.append([-v for v in value])
    elif isinstance(value, dict):
        drawn.append({k: -v if isinstance(v, (int, float)) else v for k, v in value.items()})
    return drawn


def overrides(config):
    """Up to two keys of ``config``, each drawn from its :func:`variants`."""
    keys = st.lists(st.sampled_from(sorted(config)), max_size=2, unique=True)
    return keys.flatmap(lambda ks: st.fixed_dictionaries(
        {k: st.sampled_from(variants(config[k])) for k in ks}))


@pytest.fixture(scope="module")
def tiny_inputs(tmp_path_factory):
    """(directory, full config of each command) on the TINY grid; the
    directory holds a TINY dataset and two small crossing panels."""
    out = tmp_path_factory.mktemp("tiny")
    gen = write_json(out / "tiny.json", TINY)
    assert run("generate", "--seed", 1, "--config", gen, "--out", out) == cli.EXIT_OK
    panels = []
    for k, v_p in enumerate((-4.0, 4.0)):
        ds = coupled_pair_t1_map(PAIR, np.linspace(-2.4e-3, 2.4e-3, 30), v_p,
                                 np.arange(5.90, 6.06, 0.002), field_rms=90.0,
                                 gamma1_background=1 / 4.3, noise_sigma=0.1, seed=1 + k)
        panels.append(str(out / f"panel_{k}.csv"))
        dataio.write_dataset(ds, panels[-1])
    return out, {
        "generate": {**cli.GENERATE_DEFAULTS, **TINY},
        "fit": {**cli.FIT_DEFAULTS, "volume_um3": TINY["volume_um3"]},
        "coupled": {**cli.COUPLED_DEFAULTS, "panels": panels,
                    "tls1": PAIR.tls1.to_dict(), "tls2": PAIR.tls2.to_dict()},
        "design": dict(cli.DESIGN_DEFAULTS),
    }


class TestAnyConfig:
    @pytest.mark.parametrize("command", ["generate", "fit", "coupled", "design"])
    @pytest.mark.filterwarnings("ignore:sample capacitor holds")
    def test_exits_with_a_documented_code(self, tiny_inputs, command):
        # Only a refused setting exits 2; any other exception is a bug and
        # must come out as itself, so this fails on it.
        out, configs = tiny_inputs

        @settings(max_examples=40, deadline=None, derandomize=True, database=None)
        @given(overrides(configs[command]))
        def check(override):
            cfg = write_json(out / f"{command}.json", {**configs[command], **override})
            argv = [command, "--config", cfg, "--out", out / command]
            if command == "fit":
                argv.insert(1, out / "dataset.csv")
            try:
                code = run(*argv)
            except SystemExit as exc:
                code = exc.code
                assert code == cli.EXIT_CONFIG
            assert code in EXIT_CODES

        check()


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

    def test_tables_equal_the_cell_by_cell_writer(self, coupled_run, tmp_path, monkeypatch):
        # The crossing tables hold empty (NaN) fields where a branch has
        # no data point at a bias step, so empty fields are written too.
        out, code = coupled_run
        assert code == cli.EXIT_OK
        cfg = out / "coupled.json"
        monkeypatch.setattr(dataio, "write_table_csv", cell_by_cell_table_csv)
        assert run("coupled", "--config", cfg, "--out", tmp_path) == cli.EXIT_OK
        for k in range(3):
            new = (out / f"crossing_panel_{k}.csv").read_bytes()
            assert new == (tmp_path / f"crossing_panel_{k}.csv").read_bytes()
            assert b",," in new


    def test_crossing_tables_have_one_line_per_bias_step(self, coupled_run):
        out, code = coupled_run
        assert code == cli.EXIT_OK
        for k in range(3):
            lines = (out / f"crossing_panel_{k}.csv").read_text().splitlines()
            bias = dataio.read_dataset(out / f"panel_{k}.csv").segments[0].bias
            assert lines[0] == "bias_V,transition1_GHz,transition2_GHz,model1_GHz,model2_GHz"
            assert [float(line.split(",")[0]) for line in lines[1:]] == bias.tolist()

    def test_a_repeated_bias_step_keeps_its_points(self, coupled_run, tmp_path):
        # Panel 1 with each bias step taken twice.  The crossing table used
        # to find a point's step again from its V_s, which put every point
        # on the first of two equal steps and left the second one empty.
        out, code = coupled_run
        assert code == cli.EXIT_OK
        ds = dataio.read_dataset(out / "panel_1.csv")
        (seg,) = ds.segments
        twice = replace(ds, segments=(replace(seg, bias=np.repeat(seg.bias, 2)),),
                        t1_us=(np.repeat(ds.t1_us[0], 2, axis=0),))
        dataio.write_dataset(twice, tmp_path / "panel.csv")
        cfg = json.loads((out / "coupled.json").read_text())
        cfg["panels"][1] = str(tmp_path / "panel.csv")
        cfg = write_json(tmp_path / "coupled.json", cfg)
        assert run("coupled", "--config", cfg, "--out", tmp_path) == cli.EXIT_OK
        table = np.genfromtxt(tmp_path / "crossing_panel_1.csv", delimiter=",", skip_header=1)
        assert table.shape == (2 * seg.bias.size, 5)
        filled = np.isfinite(table[:, 1:3])
        # Both copies of a step hold the same candidates, so they fill the
        # same branches (80 and 60 of 80 steps, on either copy).
        assert filled[0::2].sum() > seg.bias.size
        assert (filled[1::2] == filled[0::2]).all()


def cell_by_cell_table_csv(path, header, columns):
    """``dataio.write_table_csv`` as it was, formatting each cell with ``_cell``."""
    cols = [np.asarray(c) for c in columns]
    lines = [header]
    for i in range(cols[0].size):
        lines.append(",".join(_cell(c[i]) for c in cols))
    path.write_text("\n".join(lines) + "\n")


def _cell(x) -> str:
    if isinstance(x, (str, np.str_)):
        return str(x)
    xf = float(x)
    if not np.isfinite(xf):
        return ""
    if xf == int(xf) and abs(xf) < 1e15 and isinstance(x, (int, np.integer)):
        return str(int(xf))
    return repr(xf)


class TestDeterminism:
    def test_bytes_match_recorded_hashes(self, small_run):
        got = {name: sha256(small_run / name) for name in EXPECTED_SHA256}
        assert got == EXPECTED_SHA256

    def test_coupled_bytes_match_recorded_hashes(self, coupled_run):
        out, code = coupled_run
        assert code == cli.EXIT_OK
        got = {name: sha256(out / name) for name in COUPLED_SHA256}
        assert got == COUPLED_SHA256

    def test_crowded_generate_matches_recorded_hashes(self, tmp_path):
        cfg = write_json(tmp_path / "crowded.json", CROWDED)
        assert run("generate", "--seed", 1, "--config", cfg, "--out", tmp_path) == cli.EXIT_OK
        got = {name: sha256(tmp_path / name) for name in CROWDED_SHA256}
        assert got == CROWDED_SHA256

    def test_design_output_matches_the_record(self, tmp_path, capsys):
        assert run("design", "--out", tmp_path) == cli.EXIT_OK
        assert capsys.readouterr().out == DESIGN_STDOUT
        assert sha256(tmp_path / "design_report.json") == DESIGN_SHA256

    def test_fit_stdout_matches_the_record(self, small_run, tmp_path, capsys):
        fit = write_json(tmp_path / "fit.json", {"volume_um3": SMALL["volume_um3"]})
        argv = ("fit", small_run / "dataset.csv", "--config", fit, "--out", tmp_path)
        assert run(*argv) == cli.EXIT_OK
        assert capsys.readouterr().out == FIT_STDOUT

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


def test_generate_loads_no_scipy(tmp_path):
    """A `generate` in a fresh interpreter imports no part of scipy."""
    cfg = write_json(tmp_path / "small.json", SMALL)
    argv = ["generate", "--seed", "1", "--config", str(cfg), "--out", str(tmp_path)]
    code = (
        "import sys, tls_scope.cli as cli\n"
        f"code = cli.main({argv!r})\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'),"
        " file=sys.stderr)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stderr.strip().splitlines()[-1] == f"{cli.EXIT_OK} []"


#: Makes ``import scipy`` (or any submodule) fail, as on an install
#: without scipy.
BLOCK_SCIPY = """
import sys
import warnings

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None

sys.meta_path.insert(0, NoScipy())
"""


def test_every_command_runs_without_scipy(coupled_run, tmp_path):
    """With ``import scipy`` blocked in a fresh interpreter, generate,
    fit, design and coupled all exit 0."""
    out, code = coupled_run
    assert code == cli.EXIT_OK
    small = write_json(tmp_path / "small.json", SMALL)
    fit = write_json(tmp_path / "fit.json", {"volume_um3": SMALL["volume_um3"]})
    commands = [
        ["generate", "--seed", "1", "--config", small, "--out", tmp_path / "g"],
        ["fit", tmp_path / "g" / "dataset.csv", "--config", fit, "--out", tmp_path / "g"],
        ["design", "--out", tmp_path / "d"],
        ["coupled", "--config", out / "coupled.json", "--out", tmp_path / "c"],
    ]
    code = BLOCK_SCIPY + (
        "import tls_scope.cli as cli\n"
        f"for argv in {[[str(a) for a in argv] for argv in commands]!r}:\n"
        "    print(argv[0], cli.main(argv), file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    codes = [line for line in proc.stderr.splitlines() if line.split(" ")[0] in cli.COMMANDS]
    assert codes == [f"{argv[0]} {cli.EXIT_OK}" for argv in commands], proc.stderr

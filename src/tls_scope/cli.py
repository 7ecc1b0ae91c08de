"""Command-line pipeline: generate, fit, coupled, design.

Exit codes: 0 success, 2 a refused setting or flag (``ConfigError``), 3
I/O or file-format error, 4 no traces found (without --allow-empty), 5
coupled-fit failure; any other exception is a bug, shown as a traceback.
All outputs are deterministic for a fixed seed; no timestamps are
written.

Each config default is written once.  The library takes every
simulation value from its caller, ``generate`` from ``GENERATE_DEFAULTS``
through :func:`ensemble_config` and :func:`sweep_plan`; ``fit`` and
``design`` take the film and sensor values from that table.  ``fit``
takes only the film keys; its tracking rules are constants of
:mod:`~tls_scope.traces`.  :func:`simulate` and :func:`analyze` are the
in-memory forms of ``generate`` and ``fit``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import dataio, metrics
from .ensemble import EnsembleConfig, generate_ensemble
from .errors import (
    AmbiguousSigns,
    ConfigError,
    NoConvergence,
    NoTracesFound,
    OutOfRange,
    SchemaError,
    TlsScopeError,
)
from .pairfit import fit_coupled_pair, nearer_branch, panel_points_from_dataset
from .pipeline import analyze_dataset
from .spectro import SegmentSpec, default_sweep_plan, t1_map
from .stm import (
    Location,
    SensorDesign,
    TlsParams,
    check_schema_version,
    design_thickness,
    sample_capacitance,
    vacuum_voltage,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_EMPTY = 4
EXIT_COUPLED = 5


def _load_config(path, defaults: dict) -> dict:
    cfg = dict(defaults)
    if path is None:
        return cfg
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config not found: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    if "schema_version" in raw:
        check_schema_version(raw["schema_version"], "config")
    unknown = set(raw) - set(defaults) - {"schema_version"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key, value in raw.items():
        if not dataio.all_finite(value):
            raise ConfigError(f"config key {key!r} must be finite, got {value!r}")
        if key in defaults and not _same_kind(value, defaults[key]):
            raise ConfigError(
                f"config key {key!r} has the wrong type or length: {value!r} "
                f"(default {defaults[key]!r})"
            )
    cfg.update(raw)
    return cfg


def _same_kind(value, default) -> bool:
    """Whether a config value has the JSON type of its default.

    A float default takes any number and an int default an integer;
    list elements must match the default's first element, and a list of
    numbers its length too.
    """
    if isinstance(default, float):
        return dataio.is_number(value)
    if isinstance(default, int):
        return isinstance(value, int) and not isinstance(value, bool)
    if isinstance(default, list):
        return isinstance(value, list) and (not default or (
            all(_same_kind(v, default[0]) for v in value)
            and (len(value) == len(default) or isinstance(default[0], str))
        ))
    return isinstance(value, type(default))


def _tls_from_config(cfg: dict, key: str) -> TlsParams:
    """The TlsParams under ``cfg[key]``; a bad key or value is a config error.
    Every field but ``location`` must be a JSON number (a bool is none)."""
    try:
        spec = dict(cfg[key])
        for f in fields(TlsParams):
            if f.name != "location" and f.name in spec and not dataio.is_number(spec[f.name]):
                raise TypeError(f"{f.name} must be a number, got {spec[f.name]!r}")
        return TlsParams.from_dict(spec)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad or missing {key!r}: {exc}") from None


def _outdir(args) -> Path:
    """The output directory, made now: call it once the work that can
    refuse is done, so a refused run leaves no directory behind."""
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


@contextmanager
def _keys_as_written(cfg: dict, keys: dict):
    """Restate an :class:`OutOfRange` of a library field by the config key
    in ``keys`` that it came from, with the value as written and the value
    in the field's own unit; a field not in ``keys`` keeps its name."""
    try:
        yield
    except OutOfRange as exc:
        if exc.name not in keys:
            raise
        key = keys[exc.name]
        raise OutOfRange(key, exc.rule, f"{cfg[key]}, which is {exc.name} = {exc.value}") from None


GENERATE_DEFAULTS = {
    "band_ghz": [5.8, 6.7],
    "freq_step_ghz": 0.002,
    "p0_per_um3_ghz": 1800.0,
    "volume_um3": 2.25e-3,
    "thickness_nm": 50.0,
    "dipole_mean_ea": 0.4,
    "dipole_std_ea": 0.2,
    "gamma_p_max_ghz_per_v": 0.04,
    "n_bias": 80,
    "segment_order": [
        "global", "sample", "piezo", "sample",
        "global", "sample", "piezo", "sample",
    ],
    "v_g_range": [90.0, -30.0],
    "v_p_range": [90.0, -30.0],
    "v_s_source_amplitude": 0.5,
    "division_factor": 205.0,
    "noise_sigma": 0.10,
    "c_tot_fF": 100.0,
    "f10_ghz": 6.2,
    "t1_qubit_us": 4.3,
    "eps_r": 10.0,
    "area_um2": 0.075,
}


def _sensor_design(cfg: dict, d_key: str, t1_key: str) -> SensorDesign:
    """SI sensor of a ``generate`` or ``design`` config; its only unit
    conversion.  ``d_key`` and ``t1_key`` name the config's thickness [nm]
    and qubit T1 [us], and a refused value is named by its key."""
    keys = {"d": d_key, "area": "area_um2", "c_tot": "c_tot_fF", "omega10": "f10_ghz",
            "t1_qubit": t1_key}
    with _keys_as_written(cfg, keys):
        return SensorDesign(
            d=cfg[d_key] * 1e-9,
            area=cfg["area_um2"] * 1e-12,
            eps_r=cfg["eps_r"],
            c_tot=cfg["c_tot_fF"] * 1e-15,
            omega10=2 * math.pi * cfg["f10_ghz"] * 1e9,
            t1_qubit=cfg[t1_key],
        )


def ensemble_config(cfg: dict) -> EnsembleConfig:
    """What ``generate`` draws its ensemble from for a full config; a
    refused value is named by its key."""
    keys = {"p0_target": "p0_per_um3_ghz", "thickness_m": "thickness_nm",
            "dipole_mean": "dipole_mean_ea", "dipole_std": "dipole_std_ea",
            "gamma_p_max": "gamma_p_max_ghz_per_v"}
    with _keys_as_written(cfg, keys):
        return EnsembleConfig(
            band=tuple(cfg["band_ghz"]), p0_target=cfg["p0_per_um3_ghz"],
            volume_um3=cfg["volume_um3"], thickness_m=cfg["thickness_nm"] * 1e-9,
            dipole_mean=cfg["dipole_mean_ea"], dipole_std=cfg["dipole_std_ea"],
            gamma_p_max=cfg["gamma_p_max_ghz_per_v"])


def sweep_plan(cfg: dict) -> list[SegmentSpec]:
    """The segment plan of ``generate`` for a full config."""
    return default_sweep_plan(
        n_bias=cfg["n_bias"], order=tuple(cfg["segment_order"]),
        v_g_range=tuple(cfg["v_g_range"]), v_p_range=tuple(cfg["v_p_range"]),
        v_s_source_amplitude=cfg["v_s_source_amplitude"],
        division_factor=cfg["division_factor"])


#: Largest T1 map, segments x bias steps x frequencies, that ``generate``
#: draws: about 35x the default map of 288,640 cells.  The map is held as
#: float64 grids and written at about 65 bytes a cell, so this is ~80 MB
#: of grids and ~650 MB of CSV.
MAX_MAP_CELLS = 10_000_000


def simulate(cfg: dict, seed: int):
    """(ensemble, dataset) that ``generate`` writes for a full config."""
    step = cfg["freq_step_ghz"]
    if not step > 0:
        raise ConfigError("freq_step_ghz must be positive")
    band = tuple(cfg["band_ghz"])
    stop = band[1] + step / 2
    # np.arange's own point count, ceil((stop - start) / step); inf if huge.
    cells = len(cfg["segment_order"]) * cfg["n_bias"] * np.ceil((stop - band[0]) / step)
    if cells > MAX_MAP_CELLS:
        raise ConfigError(f"freq_step_ghz {step} gives a T1 map of {cells:.3g} cells "
                          f"(segments x n_bias x frequencies), more than {MAX_MAP_CELLS}")
    design = _sensor_design(cfg, "thickness_nm", "t1_qubit_us")
    ensemble = generate_ensemble(ensemble_config(cfg), seed=seed)
    with _keys_as_written(cfg, {"gamma1_background": "t1_qubit_us"}):
        ds = t1_map(ensemble, design, sweep_plan(cfg), np.arange(band[0], stop, step),
                    gamma1_background=1.0 / cfg["t1_qubit_us"], noise_sigma=cfg["noise_sigma"],
                    seed=seed, meta_extra={"config": cfg})
    return ensemble, ds


def cmd_generate(args) -> int:
    cfg = _load_config(args.config, GENERATE_DEFAULTS)
    ensemble, ds = simulate(cfg, args.seed)
    out = _outdir(args)
    dataio.write_dataset(ds, out / "dataset.csv")
    dataio.write_ground_truth(ensemble.tls_list, out / "ground_truth.json")
    print(
        f"wrote {out / 'dataset.csv'} "
        f"({len(ds.segments)} segments, {len(ensemble.tls_list)} TLS generated)"
    )
    return EXIT_OK


FIT_DEFAULTS = {key: GENERATE_DEFAULTS[key] for key in ("thickness_nm", "volume_um3", "eps_r")}


def analyze(cfg: dict, ds):
    """(analysis result, material report) that ``fit`` writes for a full config."""
    with _keys_as_written(cfg, {"thickness_m": "thickness_nm"}):
        result = analyze_dataset(ds, cfg["thickness_nm"] * 1e-9)
    report = metrics.material_report(
        result,
        volume_um3=cfg["volume_um3"],
        eps_r=cfg["eps_r"],
        thickness_nm=cfg["thickness_nm"],
    )
    return result, report


def _print_table(rows) -> None:
    """Print (label, value, template) rows with the labels padded to one
    width; a None value reads n/a and a bool yes or no."""
    width = max(len(row[0]) for row in rows)
    for label, value, template in rows:
        if isinstance(value, bool):
            value, template = ("no", "yes")[value], "{}"
        print(f"{label:<{width}}  {'n/a' if value is None else template.format(value)}")


#: (label, ``material_report.json`` key, template) of the table ``fit`` prints.
MATERIAL_TABLE = (
    ("defects tracked", "n_tls_total", "{}"),
    ("sample-dielectric defects", "n_sample_tls", "{}"),
    ("mean dipole p_par [eA]", "p_parallel_mean_eA", "{:.4g}"),
    ("std dipole p_par [eA]", "p_parallel_std_eA", "{:.4g}"),
    ("sample spectral density [1/GHz]", "sample_density_per_GHz", "{:.4g}"),
    ("volume density P0 [1/(um^3 GHz)]", "P0_per_um3_GHz", "{:.4g}"),
    ("loss tangent tan_d0", "tan_delta0", "{:.3e}"),
)


def cmd_fit(args) -> int:
    cfg = _load_config(args.config, FIT_DEFAULTS)
    ds = dataio.read_dataset(args.dataset)
    result, report = analyze(cfg, ds)
    if not result.tracks and not args.allow_empty:
        print("no resonance traces found (use --allow-empty to accept)", file=sys.stderr)
        return EXIT_EMPTY
    out = _outdir(args)

    records = result.records
    if args.class_filter:
        records = [r for r in records if r.location.value == args.class_filter]
    dataio.write_fit_report(records, result.density_by_class, out / "fit_report.json", {
        "n_traces": sum(map(len, result.tracks)),  # each trace is in one track
        "n_tracks": len(result.tracks),
        "class_filter": args.class_filter,
    })
    dataio.write_json(out / "material_report.json", report)
    _print_table([
        *((label, report[key], template) for label, key, template in MATERIAL_TABLE),
        *((f"density {k}", v, "{:.4g} /GHz")
          for k, v in sorted(report["spectral_density_per_GHz"].items())),
    ])
    return EXIT_OK


COUPLED_DEFAULTS = {
    "panels": [],
    "tls1": {},
    "tls2": {},
    "g_z0_mhz": 10.0,
    "g_x0_mhz": -10.0,
    "gamma_p2_0": 0.0,
}


def cmd_coupled(args) -> int:
    cfg = _load_config(args.config, COUPLED_DEFAULTS)
    if not (cfg["panels"] and cfg["tls1"] and cfg["tls2"]):
        raise ConfigError("coupled needs 'panels', 'tls1' and 'tls2' in the config")
    if not all(isinstance(p, str) for p in cfg["panels"]):
        raise ConfigError("'panels' must be a list of dataset paths")
    tls1 = _tls_from_config(cfg, "tls1")
    tls2 = _tls_from_config(cfg, "tls2")
    datasets = [dataio.read_dataset(p) for p in cfg["panels"]]
    panels = [panel_points_from_dataset(ds) for ds in datasets]
    try:
        fit = fit_coupled_pair(
            panels,
            tls1,
            tls2,
            g_z0=cfg["g_z0_mhz"],
            g_x0=cfg["g_x0_mhz"],
            gamma_p2_0=cfg["gamma_p2_0"],
        )
    except (NoConvergence, AmbiguousSigns) as exc:
        print(f"coupled fit failed: {exc}", file=sys.stderr)
        return EXIT_COUPLED
    out = _outdir(args)
    dataio.write_coupled_fit(fit, out / "coupled_fit.json")
    for k, (ds, panel) in enumerate(zip(datasets, panels)):
        _write_crossing(out / f"crossing_panel_{k}.csv", ds, panel, fit, tls1, tls2)
    print(
        f"g_z = {fit.g_z:.3f} MHz, g_x = {fit.g_x:.3f} MHz, "
        f"gamma_p2 = {fit.gamma_p2:.5f} GHz/V"
    )
    return EXIT_OK


def _write_crossing(path, ds, panel, fit, tls1, tls2) -> None:
    """Crossing CSV of one panel: model branches and, per bias step, the nearest
    data point on each branch (NaN if none), a point at its tracker's bias step."""
    bias = ds.segments[0].bias
    lo, hi = fit.model_transitions(tls1, tls2, panel.v_p, bias)
    step, f = panel.bias_index, panel.freq
    upper = nearer_branch(f, lo[step], hi[step], False, True)
    dist = np.abs(f - np.where(upper, hi[step], lo[step]))
    # Per (step, branch) the nearest point wins; a stable sort keeps the
    # earlier of two equally near points first.
    order = np.lexsort((dist, upper, step))
    _, first = np.unique(2 * step[order] + upper[order], return_index=True)
    win = order[first]
    data = np.full((2, bias.size), np.nan)
    data[upper[win].astype(int), step[win]] = f[win]
    dataio.write_table_csv(
        path,
        "bias_V,transition1_GHz,transition2_GHz,model1_GHz,model2_GHz",
        (bias, *data, lo, hi),
    )


DESIGN_DEFAULTS = {
    "f10_ghz": GENERATE_DEFAULTS["f10_ghz"],
    "c_tot_fF": GENERATE_DEFAULTS["c_tot_fF"],
    "p_min_ea": 0.1,
    "t1_us": 1.0,
    "d_nm": GENERATE_DEFAULTS["thickness_nm"],
    "area_um2": GENERATE_DEFAULTS["area_um2"],
    "eps_r": GENERATE_DEFAULTS["eps_r"],
    "tan_delta0": 1.6e-3,
    "gamma_background_per_us": 0.1,
}


def cmd_design(args) -> int:
    cfg = _load_config(args.config, DESIGN_DEFAULTS)
    # The sensor keys are checked by SensorDesign.
    for key in ("p_min_ea", "tan_delta0", "gamma_background_per_us"):
        if cfg[key] <= 0 and (key != "tan_delta0" or cfg[key] < 0):
            raise ConfigError(f"design parameter {key} must be positive")
    design = _sensor_design(cfg, "d_nm", "t1_us")
    v_rms = vacuum_voltage(design)
    d_rule = design_thickness(cfg["p_min_ea"], cfg["t1_us"] * 1e-6, v_rms)
    c_s = sample_capacitance(design)
    p_s = metrics.participation_ratio(design)
    gamma1 = metrics.relaxation_budget(
        design, cfg["tan_delta0"], cfg["gamma_background_per_us"]
    )
    gamma_diel = gamma1 - cfg["gamma_background_per_us"]
    # (label, design_report.json key, value, template)
    rows = [
        ("V_rms [uV]", "V_rms_uV", v_rms * 1e6, "{:.3f}"),
        ("d (detectability rule) [nm]", "d_rule_nm", d_rule * 1e9, "{:.1f}"),
        ("d (configured) [nm]", "d_chosen_nm", cfg["d_nm"], "{:.1f}"),
        ("C_s [fF]", "C_s_fF", c_s * 1e15, "{:.4f}"),
        ("participation p_s", "p_s", p_s, "{:.3e}"),
        ("Gamma1 [1/us]", "Gamma1_per_us", gamma1, "{:.4f}"),
        ("T1 budget [us]", "T1_budget_us", 1.0 / gamma1, "{:.3f}"),
        ("dielectric-limited", "dielectric_limited",
         bool(gamma_diel > cfg["gamma_background_per_us"]), None),
    ]
    overflow = [key for _label, key, value, _template in rows if not math.isfinite(value)]
    if overflow:
        raise ConfigError(f"design outputs {overflow} overflow for this config")
    _print_table([(label, value, template) for label, _key, value, template in rows])
    if args.out:
        dataio.write_json(_outdir(args) / "design_report.json",
                          {key: value for _label, key, value, _template in rows})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tls-scope",
        description="TLS swap-spectroscopy simulation and analysis pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesize a swap-spectroscopy dataset")
    p.add_argument("--seed", type=_seed, default=0, help="random seed, >= 0")

    p = sub.add_parser("fit", help="extract, fit and classify TLS in a dataset")
    p.add_argument("dataset", help="dataset CSV path")
    p.add_argument("--class-filter", choices=[loc.value for loc in Location],
                   help="restrict report to one location class")
    p.add_argument("--allow-empty", action="store_true")

    sub.add_parser("coupled", help="fit an avoided-crossing pair")
    sub.add_parser("design", help="evaluate sensor design rules")

    for p in sub.choices.values():
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory")
    return parser


def _seed(text: str) -> int:
    """A ``--seed`` value: a non-negative integer, else argparse exits 2."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


COMMANDS = {
    "generate": cmd_generate,
    "fit": cmd_fit,
    "coupled": cmd_coupled,
    "design": cmd_design,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SchemaError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NoTracesFound as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except TlsScopeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

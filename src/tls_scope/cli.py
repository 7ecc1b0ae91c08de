"""Command-line pipeline: generate, fit, coupled, design, plotdata.

Exit codes: 0 success, 2 configuration error, 3 I/O or file-format
error, 4 no traces found (without --allow-empty), 5 coupled-fit failure.
All outputs are deterministic for a fixed seed; no timestamps are
written.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import dataio, metrics
from .ensemble import ControlChain, EnsembleConfig, generate_ensemble
from .errors import AmbiguousSigns, NoConvergence, SchemaError, TlsScopeError
from .pairfit import fit_coupled_pair, panel_points_from_dataset
from .pipeline import AnalysisOptions, analyze_dataset
from .spectro import default_sweep_plan, t1_map
from .stm import (
    SCHEMA_VERSION,
    SensorDesign,
    TlsParams,
    design_thickness,
    sample_capacitance,
    vacuum_voltage,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_EMPTY = 4
EXIT_COUPLED = 5


class ConfigError(Exception):
    pass


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
    unknown = set(raw) - set(defaults) - {"schema_version"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    cfg.update(raw)
    return cfg


def _outdir(args) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


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


def cmd_generate(args) -> int:
    cfg = _load_config(args.config, GENERATE_DEFAULTS)
    out = _outdir(args)
    band = tuple(cfg["band_ghz"])
    ens_cfg = EnsembleConfig(
        band=band,
        p0_target=cfg["p0_per_um3_ghz"],
        volume_um3=cfg["volume_um3"],
        thickness_m=cfg["thickness_nm"] * 1e-9,
        dipole_mean=cfg["dipole_mean_ea"],
        dipole_std=cfg["dipole_std_ea"],
        gamma_p_max=cfg["gamma_p_max_ghz_per_v"],
    )
    chain = ControlChain(division_factor=cfg["division_factor"])
    design = SensorDesign(
        d=cfg["thickness_nm"] * 1e-9,
        area=cfg["area_um2"] * 1e-12,
        eps_r=cfg["eps_r"],
        c_tot=cfg["c_tot_fF"] * 1e-15,
        omega10=2 * math.pi * cfg["f10_ghz"] * 1e9,
        t1_qubit=cfg["t1_qubit_us"],
    )
    ensemble = generate_ensemble(ens_cfg, seed=args.seed)
    plan = default_sweep_plan(
        n_bias=cfg["n_bias"],
        order=tuple(cfg["segment_order"]),
        v_g_range=tuple(cfg["v_g_range"]),
        v_p_range=tuple(cfg["v_p_range"]),
        v_s_source_amplitude=cfg["v_s_source_amplitude"],
        chain=chain,
    )
    freq = np.arange(band[0], band[1] + cfg["freq_step_ghz"] / 2, cfg["freq_step_ghz"])
    ds = t1_map(
        ensemble,
        design,
        plan,
        freq,
        gamma1_background=1.0 / cfg["t1_qubit_us"],
        noise_sigma=cfg["noise_sigma"],
        seed=args.seed,
        chain=chain,
        meta_extra={"config": cfg},
    )
    dataio.write_dataset(ds, out / "dataset.csv")
    dataio.write_ground_truth(ensemble.tls_list, out / "ground_truth.json")
    print(
        f"wrote {out / 'dataset.csv'} "
        f"({len(ds.segments)} segments, {len(ensemble.tls_list)} TLS generated)"
    )
    return EXIT_OK


FIT_DEFAULTS = {
    "threshold": 0.25,
    "jump_limit": 5.0,
    "min_points": 5,
    "max_gap": 2,
    "first_link_factor": 5.0,
    "boundary_tol": 5.0,
    "thickness_nm": 50.0,
    "volume_um3": 2.25e-3,
    "eps_r": 10.0,
    "field_rms_v_per_m": None,
    "t1_us": None,
    "dipole_std_prior_ea": None,
}


def cmd_fit(args) -> int:
    cfg = _load_config(args.config, FIT_DEFAULTS)
    out = _outdir(args)
    ds = dataio.read_dataset(args.dataset)
    opts = AnalysisOptions(
        threshold=cfg["threshold"],
        jump_limit=cfg["jump_limit"],
        min_points=cfg["min_points"],
        max_gap=cfg["max_gap"],
        first_link_factor=cfg["first_link_factor"],
        boundary_tol=cfg["boundary_tol"],
        thickness_m=cfg["thickness_nm"] * 1e-9,
    )
    result = analyze_dataset(ds, opts)
    if not result.traces and not args.allow_empty:
        print("no resonance traces found (use --allow-empty to accept)", file=sys.stderr)
        return EXIT_EMPTY

    records = result.records
    if args.class_filter:
        records = [r for r in records if r.verdict.location.value == args.class_filter]
    dataio.write_fit_report(
        records,
        result.density_by_class,
        out / "fit_report.json",
        extra={
            "n_traces": len(result.traces),
            "n_tracks": len(result.tracks),
            "class_filter": args.class_filter,
        },
    )
    report = metrics.material_report(
        result,
        volume_um3=cfg["volume_um3"],
        eps_r=cfg["eps_r"],
        thickness_nm=cfg["thickness_nm"],
        field_rms=cfg["field_rms_v_per_m"],
        t1_us=cfg["t1_us"],
        dipole_sigma_truncated_normal=cfg["dipole_std_prior_ea"],
    )
    (out / "material_report.json").write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    )
    print(report.text_table())
    return EXIT_OK


COUPLED_DEFAULTS = {
    "panels": [],
    "tls1": None,
    "tls2": None,
    "g_z0_mhz": 10.0,
    "g_x0_mhz": -10.0,
    "gamma_p2_0": 0.0,
    "threshold": 0.25,
    "jump_limit": 8.0,
}


def cmd_coupled(args) -> int:
    cfg = _load_config(args.config, COUPLED_DEFAULTS)
    out = _outdir(args)
    if not cfg["panels"] or cfg["tls1"] is None or cfg["tls2"] is None:
        raise ConfigError("coupled needs 'panels', 'tls1' and 'tls2' in the config")
    tls1 = TlsParams.from_dict(cfg["tls1"])
    tls2 = TlsParams.from_dict(cfg["tls2"])
    datasets = [dataio.read_dataset(p) for p in cfg["panels"]]
    panels = [
        panel_points_from_dataset(
            ds, threshold=cfg["threshold"], jump_limit=cfg["jump_limit"]
        )
        for ds in datasets
    ]
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
    payload = {
        "schema_version": SCHEMA_VERSION,
        "g_z_MHz": fit.g_z,
        "g_x_MHz": fit.g_x,
        "gamma_p2_GHz_per_V": fit.gamma_p2,
        "sigma": fit.sigma.tolist(),
        "covariance": fit.covariance.tolist(),
        "chi2": fit.chi2,
        "n_points": fit.n_points,
        "gx_sign_from_convention": fit.gx_sign_from_convention,
    }
    (out / "coupled_fit.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    for k, (ds, panel) in enumerate(zip(datasets, panels)):
        _write_crossing(out / f"crossing_panel_{k}.csv", ds, panel, fit, tls1, tls2)
    print(
        f"g_z = {fit.g_z:.3f} MHz, g_x = {fit.g_x:.3f} MHz, "
        f"gamma_p2 = {fit.gamma_p2:.5f} GHz/V"
    )
    return EXIT_OK


def _write_crossing(path, ds, panel, fit, tls1, tls2) -> None:
    """Crossing CSV of one panel: model branches and, per bias step, the
    nearest data point on each branch (NaN if none)."""
    bias = ds.segments[0].bias
    lo, hi = fit.model_transitions(tls1, tls2, panel.v_p, bias)
    d_lo = np.full(bias.size, np.nan)
    d_hi = np.full(bias.size, np.nan)
    for v, f in zip(panel.v_s, panel.freq):
        i = int(np.argmin(np.abs(bias - v)))
        if abs(f - lo[i]) <= abs(f - hi[i]):
            if np.isnan(d_lo[i]) or abs(f - lo[i]) < abs(d_lo[i] - lo[i]):
                d_lo[i] = f
        else:
            if np.isnan(d_hi[i]) or abs(f - hi[i]) < abs(d_hi[i] - hi[i]):
                d_hi[i] = f
    dataio.write_table_csv(
        path,
        "bias_V,transition1_GHz,transition2_GHz,model1_GHz,model2_GHz",
        (bias, d_lo, d_hi, lo, hi),
    )


DESIGN_DEFAULTS = {
    "f10_ghz": 6.2,
    "c_tot_fF": 100.0,
    "p_min_ea": 0.1,
    "t1_us": 1.0,
    "d_nm": 50.0,
    "area_um2": 0.075,
    "eps_r": 10.0,
    "tan_delta0": 1.6e-3,
    "gamma_background_per_us": 0.1,
}


def cmd_design(args) -> int:
    cfg = _load_config(args.config, DESIGN_DEFAULTS)
    out = Path(args.out) if args.out else None
    for key in DESIGN_DEFAULTS:
        if not isinstance(cfg[key], (int, float)) or cfg[key] <= 0:
            if key != "tan_delta0" or cfg[key] < 0:
                raise ConfigError(f"design parameter {key} must be positive")
    design = SensorDesign(
        d=cfg["d_nm"] * 1e-9,
        area=cfg["area_um2"] * 1e-12,
        eps_r=cfg["eps_r"],
        c_tot=cfg["c_tot_fF"] * 1e-15,
        omega10=2 * math.pi * cfg["f10_ghz"] * 1e9,
        t1_qubit=cfg["t1_us"],
    )
    v_rms = vacuum_voltage(design)
    d_rule = design_thickness(cfg["p_min_ea"], cfg["t1_us"] * 1e-6, v_rms)
    c_s = sample_capacitance(design)
    p_s = metrics.participation_ratio(design)
    gamma1 = metrics.relaxation_budget(
        design, cfg["tan_delta0"], cfg["gamma_background_per_us"]
    )
    gamma_diel = gamma1 - cfg["gamma_background_per_us"]
    report = {
        "schema_version": SCHEMA_VERSION,
        "V_rms_uV": v_rms * 1e6,
        "d_rule_nm": d_rule * 1e9,
        "d_chosen_nm": cfg["d_nm"],
        "C_s_fF": c_s * 1e15,
        "p_s": p_s,
        "Gamma1_per_us": gamma1,
        "T1_budget_us": 1.0 / gamma1,
        "dielectric_limited": bool(gamma_diel > cfg["gamma_background_per_us"]),
    }
    rows = [
        ("V_rms [uV]", f"{report['V_rms_uV']:.3f}"),
        ("d (detectability rule) [nm]", f"{report['d_rule_nm']:.1f}"),
        ("d (configured) [nm]", f"{report['d_chosen_nm']:.1f}"),
        ("C_s [fF]", f"{report['C_s_fF']:.4f}"),
        ("participation p_s", f"{report['p_s']:.3e}"),
        ("Gamma1 [1/us]", f"{report['Gamma1_per_us']:.4f}"),
        ("T1 budget [us]", f"{report['T1_budget_us']:.3f}"),
        ("dielectric-limited", "yes" if report["dielectric_limited"] else "no"),
    ]
    width = max(len(r[0]) for r in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {value}")
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / "design_report.json").write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
    return EXIT_OK


def cmd_plotdata(args) -> int:
    out = _outdir(args)
    if args.kind == "t1-map":
        ds = dataio.read_dataset(args.input)
        bias, freq, t1 = [], [], []
        for seg, grid in zip(ds.segments, ds.t1_us):
            b = np.repeat(seg.bias, ds.freq_ghz.size)
            f = np.tile(ds.freq_ghz, seg.bias.size)
            bias.append(b)
            freq.append(f)
            t1.append(grid.ravel())
        dataio.write_table_csv(
            out / "t1_map.csv",
            "bias_V,freq_GHz,t1_us",
            (np.concatenate(bias), np.concatenate(freq), np.concatenate(t1)),
        )
        print(f"wrote {out / 't1_map.csv'}")
    elif args.kind == "dipole-histogram":
        payload = dataio.read_fit_report(args.input)
        dipoles = [
            rec["p_parallel_eA"]
            for rec in payload["tls"]
            if rec.get("p_parallel_eA") is not None
        ]
        edges = np.arange(0.0, (max(dipoles) if dipoles else 1.0) + 0.1, 0.1)
        counts, edges = np.histogram(dipoles, bins=edges)
        dataio.write_table_csv(
            out / "dipole_histogram.csv",
            "p_lo_eA,p_hi_eA,count",
            (edges[:-1], edges[1:], counts),
        )
        print(f"wrote {out / 'dipole_histogram.csv'}")
    elif args.kind == "crossing":
        ds = dataio.read_dataset(args.input)
        if len(ds.segments) != 1:
            raise ConfigError("crossing plotdata expects a single-panel dataset")
        if args.coupled_fit is None:
            raise ConfigError("crossing plotdata needs --coupled-fit and --pair")
        payload = json.loads(Path(args.coupled_fit).read_text())
        pair_cfg = json.loads(Path(args.pair).read_text())
        tls1 = TlsParams.from_dict(pair_cfg["tls1"])
        tls2 = TlsParams.from_dict(pair_cfg["tls2"])
        from .pairfit import PairFitResult

        fit = PairFitResult(
            g_z=payload["g_z_MHz"],
            g_x=payload["g_x_MHz"],
            gamma_p2=payload["gamma_p2_GHz_per_V"],
            covariance=np.array(payload["covariance"]),
            chi2=payload["chi2"],
            n_points=payload["n_points"],
        )
        panel = panel_points_from_dataset(ds)
        _write_crossing(out / "crossing.csv", ds, panel, fit, tls1, tls2)
        print(f"wrote {out / 'crossing.csv'}")
    else:
        raise ConfigError(f"unknown plotdata kind {args.kind!r}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tls-scope",
        description="TLS swap-spectroscopy simulation and analysis pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, default=0, help="random seed")
        p.add_argument("--out", help="output directory")

    p = sub.add_parser("generate", help="synthesize a swap-spectroscopy dataset")
    common(p)

    p = sub.add_parser("fit", help="extract, fit and classify TLS in a dataset")
    common(p)
    p.add_argument("dataset", help="dataset CSV path")
    p.add_argument("--class-filter", help="restrict report to one location class")
    p.add_argument("--allow-empty", action="store_true")

    p = sub.add_parser("coupled", help="fit an avoided-crossing pair")
    common(p)

    p = sub.add_parser("design", help="evaluate sensor design rules")
    common(p)

    p = sub.add_parser("plotdata", help="export tidy CSV for plotting")
    common(p)
    p.add_argument("kind", choices=["t1-map", "crossing", "dipole-histogram"])
    p.add_argument("input", help="dataset CSV or fit-report JSON")
    p.add_argument("--coupled-fit", help="coupled_fit.json (crossing kind)")
    p.add_argument("--pair", help="pair spec JSON with tls1/tls2 (crossing kind)")

    return parser


COMMANDS = {
    "generate": cmd_generate,
    "fit": cmd_fit,
    "coupled": cmd_coupled,
    "design": cmd_design,
    "plotdata": cmd_plotdata,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SchemaError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except TlsScopeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

"""Workload table and the seeded generator of workload inputs.

Every workload runs the paper's whole loop once per cycle: ``generate``
and ``fit`` on a simulated swap-spectroscopy dataset, ``coupled`` on
strain-stacked avoided-crossing panels, and ``crossing_geometry`` on a
localized-basis pair.  The workloads differ in which stage gets the big
input; see README.md for the measured shares behind each choice.

All inputs of a run follow from ``(seed, workload)``.  They are written
as files into the run's directory before the first cycle; the program
receives only those files and the integer seed for ``generate``.  Each
cycle has its own ``generate`` seed, so the quality metrics pool
several datasets; the crossing panels and geometry pairs are the same
in every cycle, since making them takes longer than timing them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Interaction parameters the crossing panels are simulated with.
TRUE_G_Z_MHZ = 15.0
TRUE_G_X_MHZ = -25.0
TRUE_GAMMA_P2 = 0.01

#: Wide-scan parameters of the crossing pair (an avoided crossing near
#: 6 GHz inside the cold-end sample-bias window).
PAIR_TLS1 = dict(delta0=5.957, eps_i=0.0, gamma_p=0.022, gamma_s=161.95, p_parallel=0.335)
PAIR_TLS2 = dict(delta0=5.440, eps_i=2.55, gamma_p=0.0, gamma_s=92.25, p_parallel=0.191)

PANEL_V_S_MAX = 2.4e-3
PANEL_N_BIAS = 80
PANEL_FREQ_GHZ = (5.90, 6.06, 0.001)
PANEL_NOISE = 0.10
PANEL_FIELD_RMS = 90.0
PANEL_GAMMA1_BG = 1.0 / 4.3

GEOMETRY_V_S_MAX = 1.0e-3


@dataclass(frozen=True)
class Workload:
    """Sizes of one workload.

    ``generate_config`` is the ``generate`` config file content (empty:
    CLI defaults, no file passed).  ``coupled_runs`` is how often
    ``coupled`` runs per cycle, to collect enough samples of a short
    command.  A run of ``--seconds`` seconds makes
    ``max(1, seconds // cycle_s)`` cycles, ``cycle_s`` being about one
    cycle's length on the reference machine, so the number of samples
    depends on ``--seconds`` only and not on how fast the program is.
    The first ``scored_cycles`` cycles also run traced, and the quality
    metrics pool exactly those.
    """

    name: str
    generate_config: dict = field(default_factory=dict)
    n_panels: int = 2
    sweep_points: int = 61
    geometry_pairs: int = 12
    coupled_runs: int = 1
    cycle_s: float = 10.0
    scored_cycles: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="default",
            n_panels=12,
            sweep_points=241,
            geometry_pairs=3,
            coupled_runs=2,
            cycle_s=9.0,
            scored_cycles=4,
        ),
        Workload(
            name="dense",
            generate_config={"volume_um3": 0.225},
            cycle_s=20.0,
        ),
        # Smallest input that still reaches every layer; for the self-test only.
        Workload(
            name="tiny",
            generate_config={
                "n_bias": 24,
                "segment_order": ["global", "sample", "piezo", "sample"],
            },
            sweep_points=21,
            geometry_pairs=1,
        ),
    )
}


@dataclass
class CycleInputs:
    """Files and known truth for one cycle."""

    generate_seed: int
    generate_config: Path | None
    fit_config: Path | None
    coupled_config: Path
    geometry_configs: list[Path]
    volume_um3: float


def make_inputs(workload: Workload, seed: int, cycles: int,
                directory: Path) -> list[CycleInputs]:
    """Write every input file of a run of ``cycles`` cycles into ``directory``.

    The ``generate`` seed of cycle ``k`` does not depend on ``cycles``.
    """
    from tls_scope import dataio
    from tls_scope.coupled import CoupledPair
    from tls_scope.spectro import coupled_pair_t1_map
    from tls_scope.stm import Location, TlsParams

    directory.mkdir(parents=True, exist_ok=True)
    ss = np.random.SeedSequence([seed, *workload.name.encode()])
    gen_ss, panel_ss, geo_ss = ss.spawn(3)

    generate_config = None
    if workload.generate_config:
        generate_config = directory / "generate.json"
        generate_config.write_text(json.dumps(workload.generate_config, indent=2) + "\n")
    # fit must know the volume the ensemble was drawn in to report P0.
    fit_config = None
    volume = 2.25e-3
    if "volume_um3" in workload.generate_config:
        volume = float(workload.generate_config["volume_um3"])
        fit_config = directory / "fit.json"
        fit_config.write_text(json.dumps({"volume_um3": volume}, indent=2) + "\n")

    sample = Location.SAMPLE_DIELECTRIC
    tls1 = TlsParams(**PAIR_TLS1, location=sample)
    tls2 = TlsParams(**{**PAIR_TLS2, "gamma_p": TRUE_GAMMA_P2}, location=sample)
    pair = CoupledPair(tls1, tls2, g_z=TRUE_G_Z_MHZ, g_x=TRUE_G_X_MHZ)
    rng = np.random.default_rng(panel_ss)
    centres = np.linspace(-4.0, 4.0, workload.n_panels)
    v_p_values = centres + rng.uniform(-0.25, 0.25, workload.n_panels)
    freq = np.arange(PANEL_FREQ_GHZ[0], PANEL_FREQ_GHZ[1], PANEL_FREQ_GHZ[2])
    v_s = np.linspace(-PANEL_V_S_MAX, PANEL_V_S_MAX, PANEL_N_BIAS)
    panel_paths = []
    for k, v_p in enumerate(v_p_values):
        ds = coupled_pair_t1_map(
            pair, v_s, float(v_p), freq,
            field_rms=PANEL_FIELD_RMS,
            gamma1_background=PANEL_GAMMA1_BG,
            noise_sigma=PANEL_NOISE,
            seed=int(rng.integers(2**31)),
        )
        path = directory / f"panel_{k}.csv"
        dataio.write_dataset(ds, path)
        panel_paths.append(str(path))
    # The fit is told the wide-scan parameters only; gamma_p of tls2 is
    # what it has to find.
    wide_tls2 = TlsParams(**PAIR_TLS2, location=sample)
    coupled_config = directory / "coupled.json"
    coupled_config.write_text(json.dumps({
        "panels": panel_paths,
        "tls1": tls1.to_dict(),
        "tls2": wide_tls2.to_dict(),
        "g_z0_mhz": 10.0,
        "g_x0_mhz": -10.0,
        "gamma_p2_0": 0.0,
    }, indent=2, sort_keys=True) + "\n")

    geo_rng = np.random.default_rng(geo_ss)
    geometry_configs = []
    for k in range(workload.geometry_pairs):
        # TLS1 sits at its symmetry point at V_s = 0 and TLS2 is placed on
        # resonance with it there, so the crossing lies inside the sweep.
        delta2 = float(geo_rng.uniform(4.5, 5.2))
        path = directory / f"geometry_{k}.json"
        path.write_text(json.dumps({
            "tls1": {"delta0": 5.5, "eps_i": 0.0, "gamma_s": 250.0},
            "tls2": {"delta0": delta2, "eps_i": math.sqrt(5.5**2 - delta2**2),
                     "gamma_s": -40.0},
            "g_localized_mhz": float(geo_rng.uniform(10.0, 40.0)),
            "sweep_v_s": [-GEOMETRY_V_S_MAX, GEOMETRY_V_S_MAX, workload.sweep_points],
        }, indent=2, sort_keys=True) + "\n")
        geometry_configs.append(path)

    return [
        CycleInputs(
            generate_seed=int(generate_seed),
            generate_config=generate_config,
            fit_config=fit_config,
            coupled_config=coupled_config,
            geometry_configs=geometry_configs,
            volume_um3=volume,
        )
        for generate_seed in gen_ss.generate_state(cycles)
    ]


def load_geometry(path: Path):
    """(CoupledPair, sweep) from a geometry file written by make_inputs."""
    from tls_scope.coupled import CoupledPair
    from tls_scope.stm import BiasPoint, TlsParams

    spec = json.loads(Path(path).read_text())
    pair = CoupledPair(
        TlsParams(**spec["tls1"]),
        TlsParams(**spec["tls2"]),
        g_localized=spec["g_localized_mhz"],
    )
    lo, hi, n = spec["sweep_v_s"]
    return pair, [BiasPoint(v_s=float(v)) for v in np.linspace(lo, hi, int(n))]

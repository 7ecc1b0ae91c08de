"""Synthetic swap-spectroscopy datasets.

A dataset mimics the measured observable: qubit T1 estimates on a
(bias step x qubit frequency) grid, segment by segment, where each
resonant TLS carves a Lorentzian T1 dip

    Gamma1(f) = Gamma1_bg + sum_TLS 2 g^2 Gamma2 / (dw^2 + Gamma2^2),

with g the (angular) qubit-TLS coupling, Gamma2 the TLS dephasing rate
and dw the angular detuning from the TLS transition.  Measurement noise
is multiplicative log-normal on T1 (positive, right-skewed, like actual
T1 estimators); every segment draws its noise from its own child stream
of the dataset seed, so the bytes depend only on the seed and the inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import MHZ_PER_GHZ
from .coupled import CoupledPair, transitions_truncated
from .ensemble import ControlChain, Ensemble, apply_control_chain
from .stm import (
    SCHEMA_VERSION,
    SensorDesign,
    TlsTable,
    capacitor_field_rms,
    coupling_mhz,
    energies,
)

CONTROLS = ("piezo", "global", "sample")
_CONTROL_ATTR = {"piezo": "v_p", "global": "v_g", "sample": "v_s"}


@dataclass(frozen=True)
class SegmentSpec:
    """One sweep segment: which control moves, over which values.

    ``held`` carries the constant values of the two other controls
    during this segment (controls hold their last value while another
    one is swept, so TLS frequencies are continuous across segment
    boundaries).
    """

    control: str
    bias: np.ndarray
    held: dict
    direction: str

    def __post_init__(self):
        if self.control not in CONTROLS:
            raise ValueError(f"unknown control {self.control!r}")
        if self.direction not in ("up", "down"):
            raise ValueError("direction must be 'up' or 'down'")

    def bias_vectors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(v_p, v_g, v_s) arrays over the segment's bias steps."""
        n = self.bias.size
        out = {}
        for name, attr in _CONTROL_ATTR.items():
            if name == self.control:
                out[attr] = np.asarray(self.bias, dtype=float)
            else:
                out[attr] = np.full(n, float(self.held[attr]))
        return out["v_p"], out["v_g"], out["v_s"]


@dataclass(frozen=True)
class SpectroscopyDataset:
    """Gridded T1 estimates per (segment, bias step, qubit frequency)."""

    segments: tuple[SegmentSpec, ...]
    freq_ghz: np.ndarray
    t1_us: tuple[np.ndarray, ...]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        validate_freq_axis(self.freq_ghz)
        if len(self.t1_us) != len(self.segments):
            raise ValueError("one T1 grid per segment required")
        for seg, t1 in zip(self.segments, self.t1_us):
            if t1.shape != (seg.bias.size, self.freq_ghz.size):
                raise ValueError("T1 grid shape mismatch")
            finite = np.isfinite(t1)
            if np.any(t1[finite] <= 0):
                raise ValueError("T1 values must be positive or NaN")
            missing = 1.0 - finite.mean(axis=1)
            if np.any(missing >= 0.5):
                raise ValueError("a trace is more than half missing")

    @property
    def grid_step_ghz(self) -> float:
        return float(self.freq_ghz[1] - self.freq_ghz[0])


def validate_freq_axis(freq: np.ndarray) -> None:
    if freq.ndim != 1 or freq.size < 2:
        raise ValueError("frequency axis needs at least 2 points")
    steps = np.diff(freq)
    if np.any(steps <= 0):
        raise ValueError("frequency axis must be strictly increasing")
    if np.ptp(steps) > 1e-9 * steps.mean():
        raise ValueError("frequency axis must be uniform")


def default_sweep_plan(
    n_bias: int = 80,
    order: tuple[str, ...] = (
        "global", "sample", "piezo", "sample",
        "global", "sample", "piezo", "sample",
    ),
    v_g_range: tuple[float, float] = (90.0, -30.0),
    v_p_range: tuple[float, float] = (90.0, -30.0),
    v_s_source_amplitude: float = 0.5,
    chain: ControlChain | None = None,
) -> list[SegmentSpec]:
    """Paper-style segment plan: monotone gate/strain ramps, V_s sawtooth.

    The global and piezo ranges are split evenly over their segments and
    ramped monotonically; the sample bias alternates up/down between the
    cold-end limits derived from the source amplitude through the control
    chain.  All controls hold their last value while others sweep.
    """
    chain = chain or ControlChain()
    amp = apply_control_chain(v_s_source_amplitude, chain)
    counts = {c: order.count(c) for c in CONTROLS}
    edges = {}
    for control, (start, stop) in (("global", v_g_range), ("piezo", v_p_range)):
        k = max(counts.get(control, 0), 1)
        edges[control] = np.linspace(start, stop, k + 1)
    held = {"v_p": v_p_range[0], "v_g": v_g_range[0], "v_s": 0.0}
    seen = {c: 0 for c in CONTROLS}
    plan: list[SegmentSpec] = []
    for control in order:
        attr = _CONTROL_ATTR[control]
        if control == "sample":
            start = held["v_s"]
            stop = amp if seen["sample"] % 2 == 0 else -amp
            seen["sample"] += 1
        else:
            i = seen[control]
            start, stop = edges[control][i], edges[control][i + 1]
            seen[control] += 1
        bias = np.linspace(start, stop, n_bias)
        other_held = {k: v for k, v in held.items() if k != attr}
        plan.append(
            SegmentSpec(
                control=control,
                bias=bias,
                held=dict(other_held),
                direction="up" if stop >= start else "down",
            )
        )
        held[attr] = stop
    return plan


def _lorentzian_rate(
    freq_ghz: np.ndarray,
    f_tls_ghz: np.ndarray,
    g_mhz: np.ndarray,
    gamma2_per_us: np.ndarray,
) -> np.ndarray:
    """Summed TLS relaxation-rate increment [1/us] on a (bias, freq) grid.

    ``f_tls_ghz`` and ``g_mhz`` are (n_bias, n_tls); the result is
    (n_bias, n_freq).  TLS are processed in chunks to bound memory.
    """
    n_b = f_tls_ghz.shape[0]
    out = np.zeros((n_b, freq_ghz.size))
    g_ang = 2.0 * math.pi * g_mhz  # rad/us
    for start in range(0, f_tls_ghz.shape[1], 16):
        sl = slice(start, start + 16)
        dw = 2.0 * math.pi * MHZ_PER_GHZ * (
            freq_ghz[None, :, None] - f_tls_ghz[:, None, sl]
        )  # rad/us
        g2 = gamma2_per_us[None, None, sl]
        out += np.sum(
            2.0 * g_ang[:, None, sl] ** 2 * g2 / (dw**2 + g2**2), axis=2
        )
    return out


def t1_map(
    ensemble: Ensemble,
    design: SensorDesign,
    plan: list[SegmentSpec],
    freq_ghz: np.ndarray,
    gamma1_background: float,
    noise_sigma: float = 0.10,
    seed: int = 0,
    field_rms: float | None = None,
    chain: ControlChain | None = None,
    meta_extra: dict | None = None,
) -> SpectroscopyDataset:
    """Simulate the swap-spectroscopy T1 grid of an ensemble.

    Parameters
    ----------
    ensemble : Ensemble
        TLS population (sample-capacitor defects).
    design : SensorDesign
        Sets the rms qubit field in the capacitor unless ``field_rms``
        overrides it.
    plan : list of SegmentSpec
        Sweep segments, e.g. from :func:`default_sweep_plan`.
    freq_ghz : ndarray
        Qubit frequency axis [GHz], strictly increasing, uniform.
    gamma1_background : float
        Qubit relaxation rate away from any TLS [1/us].
    noise_sigma : float
        Log-normal noise scale on T1; 0 disables noise entirely.
    seed : int
        Root seed; each segment uses its own child stream.
    """
    freq_ghz = np.asarray(freq_ghz, dtype=float)
    validate_freq_axis(freq_ghz)
    if not plan:
        raise ValueError("sweep plan is empty")
    chain = chain or ControlChain()
    field = capacitor_field_rms(design) if field_rms is None else field_rms

    table = TlsTable.of(ensemble.tls_list)

    children = np.random.SeedSequence(seed).spawn(len(plan))
    grids = []
    for seg, child in zip(plan, children):
        v_p, v_g, v_s = seg.bias_vectors()
        if np.any(np.abs(v_s) > chain.v_s_limit * (1 + 1e-12)):
            raise ValueError("segment exceeds the cold-end sample-bias limit")
        _, e_tls = energies(table, v_p[:, None], v_g[:, None], v_s[:, None])
        g_mhz = coupling_mhz(table.p_parallel, table.delta0 / e_tls, field)
        rate = gamma1_background + _lorentzian_rate(
            freq_ghz, e_tls, g_mhz, table.gamma2_tls
        )
        t1 = 1.0 / rate
        if noise_sigma > 0:
            z = np.random.default_rng(child).standard_normal(t1.shape)
            t1 = t1 * np.exp(noise_sigma * z)
        grids.append(t1)

    meta = {
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "noise_sigma": noise_sigma,
        "gamma1_background_per_us": gamma1_background,
        "field_rms_v_per_m": field,
        "design": design.to_dict(),
    }
    if meta_extra:
        meta.update(meta_extra)
    return SpectroscopyDataset(
        segments=tuple(plan), freq_ghz=freq_ghz, t1_us=tuple(grids), meta=meta
    )


def coupled_pair_t1_map(
    pair: CoupledPair,
    v_s_values: np.ndarray,
    v_p: float,
    freq_ghz: np.ndarray,
    field_rms: float,
    gamma1_background: float,
    noise_sigma: float = 0.0,
    seed: int = 0,
) -> SpectroscopyDataset:
    """One avoided-crossing panel: V_s sweep at fixed strain.

    The two single-excitation transitions of the (truncated-model) pair
    appear as T1 dips; each branch couples to the qubit through the
    hybridized combination of the two bare dipole couplings.
    """
    freq_ghz = np.asarray(freq_ghz, dtype=float)
    validate_freq_axis(freq_ghz)
    if pair.g_z is None:
        raise ValueError("coupled panels use the (g_z, g_x) parameterization")
    v_s = np.asarray(v_s_values, dtype=float)
    seg = SegmentSpec(
        control="sample",
        bias=v_s,
        held={"v_p": v_p, "v_g": 0.0},
        direction="up" if v_s[-1] >= v_s[0] else "down",
    )
    v_p_arr, v_g_arr, v_s_arr = seg.bias_vectors()
    _, e1 = energies(pair.tls1, v_p_arr, v_g_arr, v_s_arr)
    _, e2 = energies(pair.tls2, v_p_arr, v_g_arr, v_s_arr)
    t_lo, t_hi = transitions_truncated(e1, e2, pair.g_z, pair.g_x)

    # Hybridization of the single-excitation block mixes the two bare
    # couplings; u, v are the |e g> / |g e> amplitudes of the upper branch.
    delta = e1 - e2
    gx = pair.g_x / MHZ_PER_GHZ
    phi = np.arctan2(gx, delta)
    u = np.cos(phi / 2.0)
    v = np.sin(phi / 2.0)
    g1 = coupling_mhz(pair.tls1.p_parallel, pair.tls1.delta0 / e1, field_rms)
    g2 = coupling_mhz(pair.tls2.p_parallel, pair.tls2.delta0 / e2, field_rms)
    g_hi = np.abs(u * g1 + v * g2)
    g_lo = np.abs(-v * g1 + u * g2)

    gamma2 = np.array([pair.tls1.gamma2_tls, pair.tls2.gamma2_tls])
    f_tls = np.column_stack((t_lo, t_hi))
    g_mhz = np.column_stack((g_lo, g_hi))
    rate = gamma1_background + _lorentzian_rate(
        freq_ghz, f_tls, g_mhz, np.array([gamma2.mean(), gamma2.mean()])
    )
    t1 = 1.0 / rate
    if noise_sigma > 0:
        z = np.random.default_rng(np.random.SeedSequence(seed)).standard_normal(t1.shape)
        t1 = t1 * np.exp(noise_sigma * z)
    meta = {
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "noise_sigma": noise_sigma,
        "gamma1_background_per_us": gamma1_background,
        "field_rms_v_per_m": field_rms,
        "v_p": v_p,
    }
    return SpectroscopyDataset(
        segments=(seg,), freq_ghz=freq_ghz, t1_us=(t1,), meta=meta
    )

"""Synthetic swap-spectroscopy datasets.

A dataset mimics the measured observable: qubit T1 estimates on a
(bias step x qubit frequency) grid, segment by segment, where each
resonant TLS carves a Lorentzian T1 dip

    Gamma1(f) = Gamma1_bg + sum_TLS 2 g^2 Gamma2 / (dw^2 + Gamma2^2),

with g the (angular) qubit-TLS coupling, Gamma2 the TLS dephasing rate
and dw the angular detuning from the TLS transition.  Measurement noise
is multiplicative log-normal on T1 (positive, right-skewed, like actual
T1 estimators); every segment draws its noise from its own seed stream,
so the bytes depend only on the seed and the inputs.

Defect maps (:func:`t1_map`) and avoided-crossing panels
(:func:`coupled_pair_t1_map`) share one segment loop, :func:`_simulate`,
and differ only in the lines each bias step carries.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .constants import MHZ_PER_GHZ
from .coupled import CoupledPair, transitions_truncated
from .ensemble import Ensemble
from .errors import ConfigError, OutOfRange
from .stm import (
    V_S_LIMIT,
    SensorDesign,
    TlsTable,
    capacitor_field_rms,
    coupling_mhz,
    energies,
)

CONTROLS = ("piezo", "global", "sample")
_CONTROL_ATTR = {"piezo": "v_p", "global": "v_g", "sample": "v_s"}
#: Largest |end| [V] of the global and piezo ranges: with |gamma_p| <=
#: ensemble.MAX_GAMMA_P the T1 map's squared detunings stay near 4e21
#: (rad/us)^2, far below float64 overflow (a 1e300 V range overflowed).
MAX_RANGE_V = 1e4


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

    def __post_init__(self):
        if self.control not in CONTROLS:
            raise ConfigError(f"unknown control {self.control!r}")
        if self.bias.size == 0:
            raise ConfigError("a segment needs at least one bias step")

    @property
    def direction(self) -> str:
        """``"up"`` unless the sweep ends below where it starts."""
        return "down" if self.bias[-1] < self.bias[0] else "up"

    def bias_vectors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(v_p, v_g, v_s) arrays over the segment's bias steps."""
        return tuple(
            np.asarray(self.bias, dtype=float) if name == self.control
            else np.full(self.bias.size, float(self.held[attr]))
            for name, attr in _CONTROL_ATTR.items()
        )


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
        for s, (seg, t1) in enumerate(zip(self.segments, self.t1_us)):
            if t1.shape != (seg.bias.size, self.freq_ghz.size):
                raise ValueError("T1 grid shape mismatch")
            if np.any(np.isinf(t1)):
                raise ConfigError("T1 values must be finite or NaN")
            finite = np.isfinite(t1)
            if np.any(t1[finite] <= 0):
                raise ConfigError("T1 values must be positive or NaN")
            half_missing = np.flatnonzero(1.0 - finite.mean(axis=1) >= 0.5)
            if half_missing.size:
                raise ConfigError(f"segment {s}, bias step {half_missing[0]}: half or more "
                                  "of its T1 values are missing")

    @property
    def grid_step_ghz(self) -> float:
        return float(self.freq_ghz[1] - self.freq_ghz[0])


def validate_freq_axis(freq: np.ndarray) -> None:
    if freq.ndim != 1 or freq.size < 2:
        raise ConfigError(f"frequency axis needs at least 2 points, got {freq.size}")
    if not np.all(np.isfinite(freq)):
        raise ConfigError("frequency axis must be finite")
    steps = np.diff(freq)
    if np.any(steps <= 0):
        raise ConfigError("frequency axis must be strictly increasing")
    if np.ptp(steps) > 1e-9 * steps.mean():
        raise ConfigError("frequency axis must be uniform")


def default_sweep_plan(n_bias: int, order: tuple[str, ...], v_g_range: tuple[float, float],
                       v_p_range: tuple[float, float], v_s_source_amplitude: float,
                       division_factor: float) -> list[SegmentSpec]:
    """Paper-style segment plan: monotone gate/strain ramps, V_s sawtooth.

    The global and piezo ranges are split evenly over their segments and
    ramped monotonically; the sample bias alternates up/down between the
    cold-end limits +-``v_s_source_amplitude / division_factor``, the
    source voltage divided by the attenuation chain to the sample.  All
    controls hold their last value while others sweep.

    Raises
    ------
    ConfigError
        On an empty order or an unknown control, fewer than 2 bias
        steps, a non-finite amplitude, a range end beyond
        :data:`MAX_RANGE_V`, a division factor that is not positive and
        finite, or a divided amplitude above the cold-end safety limit.
    """
    if not order:
        raise ConfigError("the segment order is empty")
    unknown = sorted(set(order) - set(CONTROLS))
    if unknown:
        raise ConfigError(f"unknown controls {unknown} in the segment order")
    if n_bias < 2:
        raise ConfigError(f"n_bias must be at least 2, got {n_bias}")
    for key, value in (("v_g_range", v_g_range), ("v_p_range", v_p_range)):
        if not np.all(np.abs(value) <= MAX_RANGE_V):
            raise ConfigError(f"{key} ends must lie within +-{MAX_RANGE_V:g} V, got {value}")
    if not math.isfinite(v_s_source_amplitude):
        raise ConfigError(f"v_s_source_amplitude must be finite, got {v_s_source_amplitude}")
    if not 0 < division_factor < math.inf:
        raise ConfigError(f"division_factor must be > 0 and finite, got {division_factor}")
    amp = v_s_source_amplitude / division_factor
    if abs(amp) > V_S_LIMIT:
        raise ConfigError(
            f"source {v_s_source_amplitude:.4g} V divides to {amp * 1e3:.4g} mV "
            f"cold-end, above the {V_S_LIMIT * 1e3:.3f} mV limit"
        )
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
        else:
            i = seen[control]
            start, stop = edges[control][i], edges[control][i + 1]
        seen[control] += 1
        plan.append(
            SegmentSpec(
                control=control,
                bias=np.linspace(start, stop, n_bias),
                held={k: v for k, v in held.items() if k != attr},
            )
        )
        held[attr] = stop
    return plan


#: TLS whose terms a block computes per pass, the length of its term
#: buffer: of 16, 32 and 64, 16 timed fastest on the 100x-volume map.
_TLS_CHUNK = 16
#: Bias steps of a segment per task of the map's thread pool.  Each task
#: holds its block's lines and a (16, 16, 451) float64 term buffer of
#: about 1 MB, small enough to stay in a per-core L2 cache.
_BIAS_BLOCK = 16
#: Largest log-normal noise sigma.  numpy's normal draw is bounded,
#: |z| <= 13.7 (its tail sample takes the log of a 53-bit uniform), so
#: exp(sigma * z) stays below exp(686), under the float64 overflow at
#: exp(709.8).
MAX_NOISE_SIGMA = 50.0


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _lorentzian_rate(freq_ghz: np.ndarray, f_tls_ghz: np.ndarray, g_mhz: np.ndarray,
                     gamma2_per_us: np.ndarray) -> np.ndarray:
    """Summed TLS relaxation-rate increment [1/us] on a (bias, freq) grid.

    ``f_tls_ghz`` and ``g_mhz`` are (n_bias, n_tls); the map passes one
    block of at most :data:`_BIAS_BLOCK` bias steps at a time.

    Each map cell adds its TLS terms one at a time, in ensemble order, to
    a running sum that starts at 0.  The terms of :data:`_TLS_CHUNK` TLS
    at a time are computed TLS-major into one (TLS, bias, freq) buffer
    with in-place ufuncs; the first takes the running sum and
    ``np.add.reduce`` over the TLS axis adds the rest slab by slab.  So a
    row's bits depend neither on :data:`_TLS_CHUNK` nor on the other rows
    computed with it.

    The detunings of a chunk are one matrix product of the (pairs x 2)
    rows [f_tls, 1] with [1; -f], written into the buffer without
    reading it.  Both products are exact, so each cell is f_tls - f
    rounded once: the negative of f - f_tls, whose sign the square
    removes.  One product pass replaces the short inner loop that a
    broadcast subtraction runs per (TLS, bias) pair.  The ufuncs release
    the GIL, so the map's blocks run in parallel threads.
    """
    n_b, n_tls = f_tls_ghz.shape
    n_f = freq_ghz.size
    out = np.zeros((n_b, n_f))
    omega_per_ghz = 2.0 * math.pi * MHZ_PER_GHZ  # rad/us per GHz
    # 2 g^2 Gamma2 per (TLS, bias), with g in rad/us
    numer = (2.0 * (2.0 * math.pi * g_mhz) ** 2 * gamma2_per_us).T
    gamma2_sq = (gamma2_per_us**2)[:, None, None]
    f_tls = f_tls_ghz.T
    minus_freq = np.stack((np.ones(n_f), -freq_ghz))
    pairs = np.ones((_TLS_CHUNK, n_b, 2))
    buf = np.empty((_TLS_CHUNK, n_b, n_f))
    for t0 in range(0, n_tls, _TLS_CHUNK):
        t = slice(t0, t0 + _TLS_CHUNK)
        k = min(_TLS_CHUNK, n_tls - t0)
        pairs[:k, :, 0] = f_tls[t]
        terms = buf[:k]
        np.matmul(pairs[:k].reshape(-1, 2), minus_freq, out=terms.reshape(-1, n_f))
        terms *= omega_per_ghz  # detuning -dw, rad/us
        np.square(terms, out=terms)
        terms += gamma2_sq[t]
        np.divide(numer[t, :, None], terms, out=terms)
        terms[0] += out
        np.add.reduce(terms, axis=0, out=out)
    return out


def _simulate(plan, freq, lines, gamma1_background, noise_sigma, seeds, meta):
    """The dataset of T1 grids over the segments of ``plan``.

    ``lines(v_p, v_g, v_s)`` gives over the bias steps it is passed the
    (bias, line) frequencies [GHz] and couplings [MHz] of the lines, and
    their Gamma2 [1/us], one per line.  T1 = 1/(Gamma1_bg + rate); with
    ``noise_sigma`` > 0 each segment draws its log-normal noise from its
    own ``SeedSequence`` of ``seeds``.  ``meta`` is added to the common
    sidecar keys and wins over them.

    The map is one pass of a thread pool, of one worker per usable CPU
    and at most one per task, over the (segment, bias block) tasks of
    the plan.  A task computes the lines of its :data:`_BIAS_BLOCK` bias
    steps and the rate rows of its block; a row whose line frequencies
    and couplings equal those of the row before it in the block has the
    same rate row, so only the first of each run of equal rows is
    computed.  No more than one block of lines per worker is held.

    Raises
    ------
    OutOfRange
        On a ``gamma1_background`` that is not finite and > 0.
    """
    from concurrent.futures import ThreadPoolExecutor

    freq = np.asarray(freq, dtype=float)
    validate_freq_axis(freq)
    if not 0 <= noise_sigma <= MAX_NOISE_SIGMA:
        raise ConfigError(f"noise_sigma must be non-negative and at most {MAX_NOISE_SIGMA}, "
                          f"got {noise_sigma}")
    if not 0 < gamma1_background < math.inf:
        raise OutOfRange("gamma1_background", "must be finite and > 0", gamma1_background)

    def block(task):
        seg, b0 = task
        f_tls, g_mhz, gamma2 = lines(*(v[b0:b0 + _BIAS_BLOCK] for v in seg.bias_vectors()))
        new = np.ones(f_tls.shape[0], dtype=bool)
        new[1:] = np.any((f_tls[1:] != f_tls[:-1]) | (g_mhz[1:] != g_mhz[:-1]), axis=1)
        rate = _lorentzian_rate(freq, f_tls[new], g_mhz[new], gamma2)
        return rate[np.cumsum(new) - 1]  # the computed row of each bias step

    starts = [range(0, seg.bias.size, _BIAS_BLOCK) for seg in plan]
    tasks = [(seg, b0) for seg, b0s in zip(plan, starts) for b0 in b0s]
    grids = []
    with ThreadPoolExecutor(min(_usable_cpus(), len(tasks))) as pool:
        rates = pool.map(block, tasks)
        for b0s, seed_seq in zip(starts, seeds):
            t1 = 1.0 / (gamma1_background + np.concatenate([next(rates) for _ in b0s]))
            if noise_sigma > 0:
                z = np.random.default_rng(seed_seq).standard_normal(t1.shape)
                t1 = t1 * np.exp(noise_sigma * z)
            grids.append(t1)
    meta = {"noise_sigma": noise_sigma, "gamma1_background_per_us": gamma1_background,
            **meta}
    return SpectroscopyDataset(segments=tuple(plan), freq_ghz=freq, t1_us=tuple(grids),
                               meta=meta)


def t1_map(
    ensemble: Ensemble,
    design: SensorDesign,
    plan: list[SegmentSpec],
    freq_ghz: np.ndarray,
    gamma1_background: float,
    noise_sigma: float,
    seed: int,
    meta_extra: dict,
) -> SpectroscopyDataset:
    """Simulate the swap-spectroscopy T1 grid of an ensemble.

    Parameters
    ----------
    ensemble : Ensemble
        TLS population (sample-capacitor defects).
    design : SensorDesign
        Sets the rms qubit field in the capacitor.
    plan : list of SegmentSpec
        Sweep segments, e.g. from :func:`default_sweep_plan`.
    freq_ghz : ndarray
        Qubit frequency axis [GHz], strictly increasing, uniform.
    gamma1_background : float
        Qubit relaxation rate away from any TLS [1/us].
    noise_sigma : float
        Log-normal noise scale on T1, >= 0; 0 disables noise entirely.
    seed : int
        Root seed; each segment uses its own child stream.
    """
    if not plan:
        raise ConfigError("sweep plan is empty")
    field = capacitor_field_rms(design)
    table = TlsTable.of(ensemble.tls_list)

    def lines(v_p, v_g, v_s):
        if np.any(np.abs(v_s) > V_S_LIMIT * (1 + 1e-12)):
            raise ConfigError("segment exceeds the cold-end sample-bias limit")
        _, e_tls = energies(table, v_p[:, None], v_g[:, None], v_s[:, None])
        g_mhz = coupling_mhz(table.p_parallel, table.delta0 / e_tls, field)
        return e_tls, g_mhz, table.gamma2_tls

    meta = {"seed": seed, "field_rms_v_per_m": field, "design": design.to_dict(),
            **meta_extra}
    return _simulate(plan, freq_ghz, lines, gamma1_background, noise_sigma,
                     np.random.SeedSequence(seed).spawn(len(plan)), meta)


def coupled_pair_t1_map(pair: CoupledPair, v_s_values: np.ndarray, v_p: float,
                        freq_ghz: np.ndarray, field_rms: float, gamma1_background: float,
                        noise_sigma: float, seed: int) -> SpectroscopyDataset:
    """One avoided-crossing panel: V_s sweep at fixed strain.

    The two single-excitation transitions of the (truncated-model) pair
    appear as T1 dips; each branch couples to the qubit through the
    hybridized combination of the two bare dipole couplings.
    """
    if pair.g_z is None:
        raise ValueError("coupled panels use the (g_z, g_x) parameterization")
    seg = SegmentSpec(control="sample", bias=np.asarray(v_s_values, dtype=float),
                      held={"v_p": v_p, "v_g": 0.0})
    gamma2 = np.mean([pair.tls1.gamma2_tls, pair.tls2.gamma2_tls])

    def lines(v_p_arr, v_g_arr, v_s_arr):
        _, e1 = energies(pair.tls1, v_p_arr, v_g_arr, v_s_arr)
        _, e2 = energies(pair.tls2, v_p_arr, v_g_arr, v_s_arr)
        t_lo, t_hi = transitions_truncated(e1, e2, pair.g_z, pair.g_x)
        # Hybridization of the single-excitation block mixes the two bare
        # couplings; u, v are the |e g> / |g e> amplitudes of the upper branch.
        phi = np.arctan2(pair.g_x / MHZ_PER_GHZ, e1 - e2)
        u, v = np.cos(phi / 2.0), np.sin(phi / 2.0)
        g1 = coupling_mhz(pair.tls1.p_parallel, pair.tls1.delta0 / e1, field_rms)
        g2 = coupling_mhz(pair.tls2.p_parallel, pair.tls2.delta0 / e2, field_rms)
        g_mhz = np.column_stack((np.abs(-v * g1 + u * g2), np.abs(u * g1 + v * g2)))
        return np.column_stack((t_lo, t_hi)), g_mhz, np.full(2, gamma2)

    meta = {"seed": seed, "field_rms_v_per_m": field_rms, "v_p": v_p}
    return _simulate([seg], freq_ghz, lines, gamma1_background, noise_sigma,
                     [np.random.SeedSequence(seed)], meta)

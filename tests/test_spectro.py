import concurrent.futures
import itertools
import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from tls_scope import cli, spectro
from tls_scope.constants import MHZ_PER_GHZ
from tls_scope.errors import ConfigError
from tls_scope.ensemble import Ensemble, generate_ensemble
from tls_scope.spectro import (
    _BIAS_BLOCK,
    SegmentSpec,
    _lorentzian_rate,
    coupled_pair_t1_map,
    t1_map,
)
from tls_scope.coupled import CoupledPair
from tls_scope.stm import (
    Location,
    SensorDesign,
    TlsParams,
    TlsTable,
    capacitor_field_rms,
    coupling_mhz,
    energies,
    vacuum_voltage,
)

DESIGN = SensorDesign(
    d=50e-9, area=0.25e-6 * 0.30e-6, eps_r=10.0, c_tot=100e-15,
    omega10=2 * math.pi * 6.2e9, t1_qubit=4.3,
)
FREQ = np.arange(5.8, 6.7, 0.002)


def sweep_plan(**overrides):
    """The sweep plan of `generate` at its defaults but for ``overrides``."""
    return cli.sweep_plan({**cli.GENERATE_DEFAULTS, **overrides})


def field_design(field):
    """DESIGN with the thickness that gives an rms field of ``field`` [V/m]."""
    return replace(DESIGN, d=vacuum_voltage(DESIGN) / field)


def empty_ensemble():
    return Ensemble(tls_list=())


def one_tls_ensemble(tls):
    return Ensemble(tls_list=(tls,))


def sample_segment(n=60):
    return [
        SegmentSpec(
            control="sample",
            bias=np.linspace(-2.4e-3, 2.4e-3, n),
            held={"v_p": 0.0, "v_g": 0.0},
        )
    ]


class TestSweepPlan:
    @pytest.mark.parametrize("n_bias", [0, 1])
    def test_fewer_than_two_bias_steps_refused(self, n_bias):
        with pytest.raises(ValueError, match="n_bias must be at least 2"):
            sweep_plan(n_bias=n_bias)

    def test_default_structure(self):
        plan = sweep_plan()
        assert len(plan) == 8
        assert [s.control for s in plan] == [
            "global", "sample", "piezo", "sample",
            "global", "sample", "piezo", "sample",
        ]

    def test_sample_alternates_direction(self):
        plan = sweep_plan()
        sample = [s for s in plan if s.control == "sample"]
        assert [s.direction for s in sample] == ["up", "down", "up", "down"]
        amp = 0.5 / 205.0
        assert sample[0].bias[-1] == pytest.approx(amp)
        assert sample[1].bias[-1] == pytest.approx(-amp)

    def test_monotone_ramps_cover_ranges(self):
        plan = sweep_plan(v_g_range=(90.0, -30.0))
        glob = [s for s in plan if s.control == "global"]
        assert glob[0].bias[0] == 90.0
        assert glob[-1].bias[-1] == -30.0
        for s in glob:
            assert np.all(np.diff(s.bias) < 0)

    def test_held_values_continuous(self):
        plan = sweep_plan()
        state = {"v_p": 90.0, "v_g": 90.0, "v_s": 0.0}
        attr = {"piezo": "v_p", "global": "v_g", "sample": "v_s"}
        for seg in plan:
            a = attr[seg.control]
            for k, v in seg.held.items():
                assert v == pytest.approx(state[k])
            assert seg.bias[0] == pytest.approx(state[a])
            state[a] = seg.bias[-1]

    def test_cold_end_amplitude_from_chain(self):
        plan = sweep_plan(v_s_source_amplitude=0.41)
        sample = [s for s in plan if s.control == "sample"][0]
        assert sample.bias.max() == pytest.approx(0.41 / 205.0)


class TestControlChain:
    """The sample bias is the source voltage over the chain's division factor."""

    def test_paper_division(self):
        plan = sweep_plan(v_s_source_amplitude=0.5, division_factor=205.0)
        sample = [s for s in plan if s.control == "sample"]
        assert sample[0].bias[-1] * 1e3 == pytest.approx(2.439, rel=1e-3)

    def test_zero(self):
        plan = sweep_plan(v_s_source_amplitude=0.0, division_factor=205.0)
        assert all(np.all(s.bias == 0.0) for s in plan if s.control == "sample")

    def test_limit_exceeded(self):
        with pytest.raises(ConfigError, match="above the 2.500 mV limit"):
            sweep_plan(v_s_source_amplitude=0.6, division_factor=205.0)

    @pytest.mark.parametrize("factor", [0.0, -205.0, float("nan"), float("inf")])
    def test_positive_division_factor(self, factor):
        with pytest.raises(ValueError, match="division_factor must be > 0"):
            sweep_plan(division_factor=factor)


class TestT1Map:
    def test_flat_reference_qubit(self):
        ds = t1_map(empty_ensemble(), DESIGN, sample_segment(), FREQ,
                    gamma1_background=1 / 4.3, noise_sigma=0.0, seed=0, meta_extra={})
        assert np.allclose(ds.t1_us[0], 4.3, rtol=1e-12)

    def test_on_resonance_increment_closed_form(self):
        # g = 1 MHz, Gamma2 = 2*(2pi) 1/us: on-resonance extra rate is
        # 2*(2pi*1)^2/(2*2pi) = 2pi 1/us, computed by hand.
        tls = TlsParams(delta0=6.25, gamma2_tls=2 * (2 * math.pi))
        ens = one_tls_ensemble(tls)
        freq = np.array([6.25 + k * 0.002 for k in range(-200, 201)])
        seg = [SegmentSpec(control="sample", bias=np.array([0.0, 1e-6, 2e-6]),
                           held={"v_p": 0.0, "v_g": 0.0})]
        # field chosen so that g is exactly 1 MHz at the symmetry point
        from tls_scope.constants import CM_PER_EA, H_PLANCK
        field = 1e6 * H_PLANCK / (0.3 * CM_PER_EA)
        ens = one_tls_ensemble(
            TlsParams(delta0=6.25, p_parallel=0.3, gamma2_tls=2 * (2 * math.pi))
        )
        g10 = 0.1
        ds = t1_map(ens, field_design(field), seg, freq, gamma1_background=g10,
                    noise_sigma=0.0, seed=0, meta_extra={})
        idx = np.argmin(np.abs(freq - 6.25))
        on_res = ds.t1_us[0][0, idx]
        expected = 1.0 / (g10 + 2 * math.pi)
        assert on_res == pytest.approx(expected, rel=1e-9)

    def test_far_detuned_lorentzian_tail(self):
        tls = TlsParams(delta0=60.0, p_parallel=0.4)  # 50+ GHz away
        ds = t1_map(one_tls_ensemble(tls), DESIGN, sample_segment(), FREQ,
                    gamma1_background=1 / 4.3, noise_sigma=0.0, seed=0, meta_extra={})
        assert np.allclose(ds.t1_us[0], 4.3, rtol=1e-6)

    def test_superposition_far_detuned_tls(self):
        # Adding a defect > 100 linewidths away changes no cell by > 0.1%.
        near = TlsParams(delta0=6.2, p_parallel=0.4)
        base = t1_map(one_tls_ensemble(near), DESIGN, sample_segment(), FREQ,
                      gamma1_background=1 / 4.3, noise_sigma=0.0, seed=0, meta_extra={})
        # linewidth Gamma2/(2pi) = 1 MHz; 150 linewidths above the band top
        far = TlsParams(delta0=FREQ[-1] + 0.150, p_parallel=0.15)
        both = t1_map(Ensemble(tls_list=(near, far)), DESIGN, sample_segment(), FREQ,
                      gamma1_background=1 / 4.3, noise_sigma=0.0, seed=0, meta_extra={})
        rel = np.abs(both.t1_us[0] - base.t1_us[0]) / base.t1_us[0]
        assert rel.max() < 1e-3

    def test_matrix_element_weakens_dips_off_symmetry(self):
        tls = TlsParams(delta0=5.9, gamma_s=400.0, p_parallel=0.4,
                        location=Location.SAMPLE_DIELECTRIC)
        ds = t1_map(one_tls_ensemble(tls), DESIGN, sample_segment(120), FREQ,
                    gamma1_background=1 / 4.3, noise_sigma=0.0, seed=0, meta_extra={})
        t1 = ds.t1_us[0]
        dips = t1.min(axis=1)
        mid = np.argmin(np.abs(ds.segments[0].bias))
        assert dips[mid] < dips[0] < 4.3  # deepest dip at the symmetry point

    def test_determinism_and_noise_reproducibility(self):
        tls = TlsParams(delta0=6.0, gamma_s=300.0, p_parallel=0.4,
                        location=Location.SAMPLE_DIELECTRIC)
        kwargs = dict(gamma1_background=1 / 4.3, noise_sigma=0.1, seed=9, meta_extra={})
        a = t1_map(one_tls_ensemble(tls), DESIGN, sample_segment(), FREQ, **kwargs)
        b = t1_map(one_tls_ensemble(tls), DESIGN, sample_segment(), FREQ, **kwargs)
        assert all(np.array_equal(x, y) for x, y in zip(a.t1_us, b.t1_us))
        c = t1_map(one_tls_ensemble(tls), DESIGN, sample_segment(), FREQ,
                   gamma1_background=1 / 4.3, noise_sigma=0.1, seed=10, meta_extra={})
        assert not np.array_equal(a.t1_us[0], c.t1_us[0])

    def test_bias_limit_enforced(self):
        seg = [SegmentSpec(control="sample", bias=np.linspace(-4e-3, 4e-3, 10),
                           held={"v_p": 0.0, "v_g": 0.0})]
        with pytest.raises(ValueError):
            t1_map(empty_ensemble(), DESIGN, seg, FREQ,
                   gamma1_background=0.2, noise_sigma=0.0, seed=0, meta_extra={})

    @pytest.mark.parametrize("noise", [-1.0, -1e-9, float("nan")])
    def test_negative_noise_refused(self, noise):
        with pytest.raises(ValueError, match="noise_sigma must be non-negative"):
            t1_map(empty_ensemble(), DESIGN, sample_segment(), FREQ,
                   gamma1_background=0.2, noise_sigma=noise, seed=0, meta_extra={})

    @pytest.mark.parametrize("noise", [np.nextafter(spectro.MAX_NOISE_SIGMA, np.inf), 1e30,
                                       float("inf")], ids=["just-above", "huge", "inf"])
    def test_noise_above_the_bound_refused(self, noise):
        with pytest.raises(ConfigError, match="noise_sigma must be non-negative and at most 50.0"):
            t1_map(empty_ensemble(), DESIGN, sample_segment(), FREQ,
                   gamma1_background=0.2, noise_sigma=noise, seed=0, meta_extra={})

    def test_largest_noise_stays_finite(self):
        # exp(sigma * z) at the bound neither overflows nor underflows to
        # zero; an overflow warning would be an error under pytest's config.
        ds = t1_map(empty_ensemble(), DESIGN, sample_segment(), FREQ, gamma1_background=0.2,
                    noise_sigma=spectro.MAX_NOISE_SIGMA, seed=0, meta_extra={})
        t1 = ds.t1_us[0]
        assert np.all(np.isfinite(t1)) and np.all(t1 > 0)

    def test_freq_axis_validation(self):
        with pytest.raises(ValueError):
            t1_map(empty_ensemble(), DESIGN, sample_segment(),
                   np.array([6.0, 5.9, 6.1]), gamma1_background=0.2,
                   noise_sigma=0.0, seed=0, meta_extra={})
        # NaN fails the "increasing" and "uniform" comparisons silently.
        for axis in ([5.8, np.nan, 6.0], [5.8, 5.9, np.inf], [np.nan, np.nan],
                     [-np.inf, 5.9, 6.0]):
            with pytest.raises(ValueError, match="frequency axis must be finite"):
                t1_map(empty_ensemble(), DESIGN, sample_segment(), np.array(axis),
                       gamma1_background=0.2, noise_sigma=0.0, seed=0, meta_extra={})


def sequential_lorentzian_rate(freq_ghz, f_tls_ghz, g_mhz, gamma2_per_us):
    """Reference: each TLS's term added to a running sum, in ensemble order."""
    out = np.zeros((f_tls_ghz.shape[0], freq_ghz.size))
    g_ang = 2.0 * math.pi * g_mhz  # rad/us
    for j in range(gamma2_per_us.size):
        dw = 2.0 * math.pi * MHZ_PER_GHZ * (freq_ghz[None, :] - f_tls_ghz[:, j, None])  # rad/us
        # An array, not a scalar: a numpy scalar's ** 2 calls libm pow,
        # which can round differently from the product.
        g2 = gamma2_per_us[j:j + 1]
        out += 2.0 * g_ang[:, j, None] ** 2 * g2 / (dw**2 + g2**2)
    return out


def lorentzian_rate(*args):
    """``_lorentzian_rate`` on a pool of ``_usable_cpus()`` workers, waited for."""
    with concurrent.futures.ThreadPoolExecutor(spectro._usable_cpus()) as pool:
        return _lorentzian_rate(pool, *args)()


class TestLorentzianKernel:
    @pytest.mark.parametrize("n_bias", [1, _BIAS_BLOCK + 5, 80])
    @pytest.mark.parametrize("n_tls", [0, 1, 7, 8, 9, 15, 16, 17, 31, 33, 40])
    def test_bit_identical_to_chunked_sum(self, n_tls, n_bias):
        # The chunked kernel's sum equals the sequential reference's bits.
        rng = np.random.default_rng(1000 * n_tls + n_bias)
        f_tls = rng.uniform(5.7, 6.8, (n_bias, n_tls))
        g_mhz = rng.uniform(0.0, 2.0, (n_bias, n_tls))
        gamma2 = rng.uniform(1.0, 20.0, n_tls)
        got = lorentzian_rate(FREQ, f_tls, g_mhz, gamma2)
        want = sequential_lorentzian_rate(FREQ, f_tls, g_mhz, gamma2)
        assert got.shape == (n_bias, FREQ.size)
        assert np.array_equal(got, want)

    def test_term_buffer_is_written_before_it_is_read(self, monkeypatch):
        # The detuning product writes into an uninitialised buffer: it must
        # not read it (a BLAS beta * C with C = NaN would poison the grid).
        real_empty = np.empty

        def nan_empty(*args, **kwargs):
            a = real_empty(*args, **kwargs)
            a.fill(np.nan)
            return a

        rng = np.random.default_rng(7)
        f_tls = rng.uniform(5.7, 6.8, (_BIAS_BLOCK + 5, 40))
        g_mhz = rng.uniform(0.0, 2.0, f_tls.shape)
        gamma2 = rng.uniform(1.0, 20.0, 40)
        monkeypatch.setattr(np, "empty", nan_empty)
        got = lorentzian_rate(FREQ, f_tls, g_mhz, gamma2)
        monkeypatch.undo()
        assert np.array_equal(got, sequential_lorentzian_rate(FREQ, f_tls, g_mhz, gamma2))

    @pytest.mark.parametrize("n_tls", [0, 1, 7, 8, 9, 15, 16, 17, 31, 33, 40])
    def test_bits_do_not_depend_on_chunk_block_or_worker_count(self, monkeypatch, n_tls):
        rng = np.random.default_rng(n_tls)
        f_tls = rng.uniform(5.7, 6.8, (80, n_tls))
        g_mhz = rng.uniform(0.0, 2.0, f_tls.shape)
        gamma2 = rng.uniform(1.0, 20.0, n_tls)
        want = sequential_lorentzian_rate(FREQ, f_tls, g_mhz, gamma2)
        for chunk, block, workers in itertools.product((1, 5, 16, 64), (1, 16, 50), (1, 2, 7)):
            monkeypatch.setattr(spectro, "_TLS_CHUNK", chunk)
            monkeypatch.setattr(spectro, "_BIAS_BLOCK", block)
            monkeypatch.setattr(spectro, "_usable_cpus", lambda n=workers: n)
            got = lorentzian_rate(FREQ, f_tls, g_mhz, gamma2)
            assert np.array_equal(got, want), (chunk, block, workers)


def cut_plan(n_segments, n_bias):
    """The first ``n_segments`` segments of the default plan, cut to
    ``n_bias`` bias steps each."""
    plan = sweep_plan(n_bias=max(n_bias, 2))[:n_segments]
    return [replace(seg, bias=seg.bias[:n_bias]) for seg in plan]


class TestWorkerCount:
    """The bias blocks of a map run in one thread pool; the grids must not
    depend on its size, and no thread may outlive a call."""

    #: About 60 TLS: several 16-TLS chunks, the last one partial.
    ENSEMBLE = generate_ensemble(
        replace(cli.ensemble_config(cli.GENERATE_DEFAULTS), volume_um3=9e-3), seed=3)

    @pytest.mark.parametrize("n_bias", [1, _BIAS_BLOCK + 5, 80])
    @pytest.mark.parametrize("n_segments", [1, 3, 8])
    def test_grids_do_not_depend_on_the_worker_count(
        self, monkeypatch, n_segments, n_bias
    ):
        sizes = []

        class SizedPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SizedPool)
        plan = cut_plan(n_segments, n_bias)
        n_blocks = n_segments * -(-n_bias // _BIAS_BLOCK)
        grids = []
        for workers in (1, 2, 7):
            monkeypatch.setattr(spectro, "_usable_cpus", lambda n=workers: n)
            sizes.clear()
            ds = t1_map(self.ENSEMBLE, DESIGN, plan, FREQ, gamma1_background=1 / 4.3,
                        noise_sigma=0.1, seed=5, meta_extra={})
            grids.append([t1.tobytes() for t1 in ds.t1_us])
            assert sizes == [min(workers, n_blocks)]  # one pool per map
        assert len(self.ENSEMBLE.tls_list) > 2 * spectro._TLS_CHUNK
        assert grids[0] == grids[1] == grids[2]

    def test_many_workers_with_frequent_switches(self, monkeypatch):
        # More workers than cores and a thread switch every microsecond: a
        # block that wrote outside its own rows would lose updates.
        monkeypatch.setattr(spectro, "_usable_cpus", lambda: 7)
        rng = np.random.default_rng(11)
        f_tls = rng.uniform(5.7, 6.8, (7 * _BIAS_BLOCK, 40))
        g_mhz = rng.uniform(0.0, 2.0, f_tls.shape)
        gamma2 = rng.uniform(1.0, 20.0, 40)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = lorentzian_rate(FREQ, f_tls, g_mhz, gamma2)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(got, sequential_lorentzian_rate(FREQ, f_tls, g_mhz, gamma2))

    def test_bias_limit_error_leaves_no_thread(self, monkeypatch):
        monkeypatch.setattr(spectro, "_usable_cpus", lambda: 7)
        too_far = SegmentSpec(control="sample", bias=np.linspace(-4e-3, 4e-3, 40),
                              held={"v_p": 0.0, "v_g": 0.0})
        before = threading.active_count()
        with pytest.raises(ValueError,
                           match="^segment exceeds the cold-end sample-bias limit$"):
            t1_map(self.ENSEMBLE, DESIGN, sample_segment() + [too_far], FREQ,
                   gamma1_background=0.2, noise_sigma=0.0, seed=0, meta_extra={})
        assert threading.active_count() == before

    def test_block_error_propagates_and_leaves_no_thread(self, monkeypatch):
        def broken(*args, **kwargs):
            raise FloatingPointError("block failed")

        monkeypatch.setattr(spectro, "_usable_cpus", lambda: 7)
        f_tls = np.full((80, 3), 6.0)
        before = threading.active_count()
        monkeypatch.setattr(np, "matmul", broken)  # the detunings of each block
        with pytest.raises(FloatingPointError, match="block failed"):
            lorentzian_rate(FREQ, f_tls, np.ones_like(f_tls), np.ones(3))
        monkeypatch.undo()
        assert threading.active_count() == before


def segment(control, bias):
    held = {"v_p": 20.0, "v_g": 10.0, "v_s": 1e-3}
    del held[{"piezo": "v_p", "global": "v_g", "sample": "v_s"}[control]]
    return SegmentSpec(control=control, bias=np.asarray(bias, dtype=float), held=held)


class TestRepeatedRows:
    """A bias row with the lines of the row before it is computed once; the
    grids keep the bits of computing every row."""

    ENSEMBLE = TestWorkerCount.ENSEMBLE
    N = 2 * _BIAS_BLOCK + 3
    RAMP = np.linspace(-2e-3, 2e-3, N - 5)
    PLANS = {
        # gamma_g = 0 for every sample-dielectric defect
        "global-all-repeat": ([segment("global", np.linspace(90.0, -30.0, N))], [1]),
        "one-row": ([segment("sample", [1e-3])], [1]),
        "repeats-at-ends": ([segment("sample", np.r_[[-2e-3] * 3, RAMP, [2e-3] * 2])],
                            [N - 5]),
        "no-repeats": ([segment("piezo", np.linspace(-30.0, 90.0, N))], [N]),
        "mixed": ([segment("global", np.linspace(90.0, -30.0, N)),
                   segment("sample", [1e-3]),
                   segment("piezo", np.linspace(-30.0, 90.0, N))], [1, 1, N]),
    }

    @pytest.mark.parametrize("name", PLANS)
    def test_grids_equal_every_row_computed(self, monkeypatch, name):
        plan, distinct = self.PLANS[name]
        computed = []

        def spy(pool, freq, f_tls, g_mhz, gamma2):
            computed.append(f_tls.shape[0])
            return _lorentzian_rate(pool, freq, f_tls, g_mhz, gamma2)

        monkeypatch.setattr(spectro, "_lorentzian_rate", spy)
        design, g1 = field_design(90.0), 1 / 4.3
        field = capacitor_field_rms(design)
        ds = t1_map(self.ENSEMBLE, design, plan, FREQ, gamma1_background=g1,
                    noise_sigma=0.0, seed=0, meta_extra={})
        assert computed == distinct
        table = TlsTable.of(self.ENSEMBLE.tls_list)
        for seg, t1 in zip(plan, ds.t1_us):
            v_p, v_g, v_s = seg.bias_vectors()
            _, e_tls = energies(table, v_p[:, None], v_g[:, None], v_s[:, None])
            g_mhz = coupling_mhz(table.p_parallel, table.delta0 / e_tls, field)
            want = 1.0 / (g1 + sequential_lorentzian_rate(FREQ, e_tls, g_mhz,
                                                          table.gamma2_tls))
            for row, want_row in zip(t1, want):
                assert row.tobytes() == want_row.tobytes()


class TestEmptySegment:
    def test_segment_without_bias_steps_refused(self):
        with pytest.raises(ValueError, match="a segment needs at least one bias step"):
            SegmentSpec(control="sample", bias=np.array([]), held={"v_p": 0.0, "v_g": 0.0})

    def test_coupled_panel_without_bias_steps_refused(self):
        # Used to give a (0, n_freq) grid that write_dataset failed on.
        pair = CoupledPair(*(TlsParams(delta0=d, gamma_s=100.0, p_parallel=0.3,
                                       location=Location.SAMPLE_DIELECTRIC)
                             for d in (5.9, 6.0)), g_z=10.0, g_x=-10.0)
        with pytest.raises(ValueError, match="a segment needs at least one bias step"):
            coupled_pair_t1_map(pair, np.array([]), 0.0, FREQ, field_rms=90.0,
                                gamma1_background=0.2, noise_sigma=0.0, seed=0)


class TestCoupledPanel:
    def test_negative_noise_refused(self):
        pair = CoupledPair(*(TlsParams(delta0=d, gamma_s=100.0, p_parallel=0.3,
                                       location=Location.SAMPLE_DIELECTRIC)
                             for d in (5.9, 6.0)), g_z=10.0, g_x=-10.0)
        with pytest.raises(ValueError, match="noise_sigma must be non-negative"):
            coupled_pair_t1_map(pair, np.linspace(-1e-3, 1e-3, 5), 0.0, FREQ,
                                field_rms=90.0, gamma1_background=0.2, noise_sigma=-1.0,
                                seed=0)

    def test_two_branches_visible(self):
        t1p = TlsParams(delta0=5.957, gamma_s=161.95, gamma_p=0.022, p_parallel=0.335,
                        location=Location.SAMPLE_DIELECTRIC)
        t2p = TlsParams(delta0=5.440, eps_i=2.55, gamma_s=92.25, p_parallel=0.191,
                        location=Location.SAMPLE_DIELECTRIC)
        pair = CoupledPair(t1p, t2p, g_z=25.0, g_x=-19.0)
        freq = np.arange(5.90, 6.05, 0.001)
        ds = coupled_pair_t1_map(pair, np.linspace(-2.4e-3, 2.4e-3, 80), 0.0,
                                 freq, field_rms=90.0, gamma1_background=1 / 4.3,
                                 noise_sigma=0.0, seed=0)
        # at the crossing bias, two dips separated by ~|g_x|
        from tls_scope.coupled import transitions_truncated
        t1 = ds.t1_us[0]
        assert (t1 < 2.0).any()

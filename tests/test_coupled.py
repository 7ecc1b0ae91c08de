"""Pair spectrum of two coupled TLS and the avoided-crossing geometry."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tls_scope import coupled
from tls_scope.coupled import (
    CoupledPair,
    crossing_geometry,
    pair_transitions,
    transitions_truncated,
)
from tls_scope.errors import NoCrossingInRange
from tls_scope.stm import BiasPoint, TlsParams, energies

SZ = np.diag([1.0, -1.0])
SX = np.array([[0.0, 1.0], [1.0, 0.0]])
ID2 = np.eye(2)

#: A sample-bias sweep inside the cold-end limit [V].
SWEEP_V_S = np.linspace(-2.5e-3, 2.5e-3, 41)

tls_params = st.builds(
    TlsParams,
    delta0=st.floats(0.5, 8.0),
    eps_i=st.floats(-6.0, 6.0),
    gamma_s=st.floats(-300.0, 300.0),
)
couplings = st.floats(-80.0, 80.0)


def sweep_transitions(pair):
    return pair_transitions(pair, 0.0, 0.0, SWEEP_V_S)


def truncated_oracle(e1, e2, g_z, g_x):
    """(lower, upper) from eigvalsh of the truncated 4x4 [GHz], built here."""
    h = 0.5 * (
        e1[:, None, None] * np.kron(SZ, ID2)
        + e2[:, None, None] * np.kron(ID2, SZ)
        + (g_z * np.kron(SZ, SZ) + g_x * np.kron(SX, SX)) / 1e3
    )
    levels = np.linalg.eigvalsh(h)
    return levels[:, 1] - levels[:, 0], levels[:, 2] - levels[:, 0]


def single_tls_limit(tls):
    """Transitions of ``tls`` paired with a far-off, uncoupled partner."""
    far = TlsParams(delta0=100.0)
    return pair_transitions(CoupledPair(tls, far, g_localized=0.0), 0.0, 0.0, 0.0)


def eigenbasis_oracle(pair):
    """(lower, upper) over SWEEP_V_S from eigvalsh of the localized pair's
    Hamiltonian rotated into the single-TLS eigenbases, built here: the
    coupling g*sz1*sz2 becomes g*(c1*sz1 + s1*sx1)*(c2*sz2 + s2*sx2)."""
    (eps1, e1), (eps2, e2) = (energies(t, 0.0, 0.0, SWEEP_V_S) for t in (pair.tls1, pair.tls2))
    c1, s1, c2, s2 = (x[:, None, None] for x in (eps1 / e1, pair.tls1.delta0 / e1,
                                                  eps2 / e2, pair.tls2.delta0 / e2))
    g = pair.g_localized / 1e3
    h = 0.5 * (
        e1[:, None, None] * np.kron(SZ, ID2)
        + e2[:, None, None] * np.kron(ID2, SZ)
        + g * (c1 * c2 * np.kron(SZ, SZ) + s1 * s2 * np.kron(SX, SX)
               + c1 * s2 * np.kron(SZ, SX) + s1 * c2 * np.kron(SX, SZ))
    )
    levels = np.linalg.eigvalsh(h)
    return levels[:, 1] - levels[:, 0], levels[:, 2] - levels[:, 0]


class TestSingleHamiltonian:
    # Each TLS enters the pair as (eps*sz + Delta0*sx)/2.
    def test_pure_tunneling(self):
        assert single_tls_limit(TlsParams(delta0=5.440))[0] == pytest.approx(5.440, abs=1e-12)

    def test_three_four_five(self):
        assert single_tls_limit(TlsParams(delta0=3.0, eps_i=4.0))[0] == pytest.approx(5.0, abs=1e-12)

    def test_near_diagonal_limit(self):
        # Delta0 = 0 is excluded by validation; a tiny Delta0 is fine.
        lower, _ = single_tls_limit(TlsParams(delta0=1e-12, eps_i=1.0))
        assert lower == pytest.approx(1.0, abs=1e-12)


class TestFullLocalized:
    def test_uncoupled_is_tensor_sum(self):
        t1 = TlsParams(delta0=5.0, eps_i=1.0, gamma_s=200.0)
        t2 = TlsParams(delta0=4.0, eps_i=-2.0, gamma_s=-90.0)
        lower, upper = sweep_transitions(CoupledPair(t1, t2, g_localized=0.0))
        e1 = energies(t1, 0.0, 0.0, SWEEP_V_S)[1]
        e2 = energies(t2, 0.0, 0.0, SWEEP_V_S)[1]
        assert np.allclose(lower, np.minimum(e1, e2), rtol=0, atol=1e-12)
        assert np.allclose(upper, np.maximum(e1, e2), rtol=0, atol=1e-12)

    def test_dense_oracle_symmetric_case(self):
        # Analytic: blocks give +-sqrt(25+0.25) and +-0.5 [GHz]
        pair = CoupledPair(
            TlsParams(delta0=5.0), TlsParams(delta0=5.0), g_localized=1000.0
        )
        lower, upper = pair_transitions(pair, 0.0, 0.0, 0.0)
        assert lower == pytest.approx(np.sqrt(25.25) - 0.5, abs=1e-12)
        assert upper == pytest.approx(np.sqrt(25.25) + 0.5, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(t1=tls_params, t2=tls_params, g=couplings)
    def test_swap_symmetry(self, t1, t2, g):
        a = sweep_transitions(CoupledPair(t1, t2, g_localized=g))
        b = sweep_transitions(CoupledPair(t2, t1, g_localized=g))
        assert np.allclose(a, b, rtol=0, atol=1e-12)


class TestTruncated:
    def test_uncoupled_transitions_exact(self):
        pair = CoupledPair(
            TlsParams(delta0=5.7), TlsParams(delta0=5.1), g_z=0.0, g_x=0.0
        )
        lower, upper = pair_transitions(pair, 0.0, 0.0, 0.0)
        assert lower == pytest.approx(5.1, abs=1e-12)
        assert upper == pytest.approx(5.7, abs=1e-12)

    def test_resonant_splitting_equals_gx(self):
        pair = CoupledPair(
            TlsParams(delta0=5.7), TlsParams(delta0=5.7), g_z=0.0, g_x=11.0
        )
        lower, upper = pair_transitions(pair, 0.0, 0.0, 0.0)
        assert (upper - lower) * 1e3 == pytest.approx(11.0, rel=1e-9)

    def test_paper_coupling_values(self):
        pair = CoupledPair(
            TlsParams(delta0=5.7), TlsParams(delta0=5.7), g_z=25.0, g_x=-19.0
        )
        lower, upper = pair_transitions(pair, 0.0, 0.0, 0.0)
        assert (upper - lower) * 1e3 == pytest.approx(19.0, rel=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(t1=tls_params, t2=tls_params, g_z=couplings, g_x=couplings)
    def test_closed_form_matches_dense(self, t1, t2, g_z, g_x):
        e1 = energies(t1, 0.0, 0.0, SWEEP_V_S)[1]
        e2 = energies(t2, 0.0, 0.0, SWEEP_V_S)[1]
        got = transitions_truncated(e1, e2, g_z, g_x)
        want = truncated_oracle(e1, e2, g_z, g_x)
        assert np.allclose(got, want, rtol=0, atol=1e-12)


class TestTransform:
    """A localized coupling g acts in the eigenbasis as g_z = g*c1*c2 and
    g_x = g*s1*s2, plus z-x cross terms (c = eps/E, s = Delta0/E)."""

    def test_both_at_symmetry(self):
        # c1 = c2 = 0: only g_x = g survives, and the resonant splitting is |g|.
        pair = CoupledPair(TlsParams(delta0=5.0), TlsParams(delta0=5.0), g_localized=10.0)
        lower, upper = pair_transitions(pair, 0.0, 0.0, 0.0)
        assert (upper - lower) * 1e3 == pytest.approx(10.0, rel=1e-9)

    def test_fully_asymmetric_limit(self):
        # s1 = s2 = 0: the Hamiltonian is diagonal and g_z = g*c1*c2 = -g.
        t1 = TlsParams(delta0=1e-9, eps_i=3.0)
        t2 = TlsParams(delta0=1e-9, eps_i=-2.0)
        got = pair_transitions(CoupledPair(t1, t2, g_localized=10.0), 0.0, 0.0, 0.0)
        assert np.allclose(got, transitions_truncated(3.0, 2.0, -10.0, 0.0),
                           rtol=0, atol=1e-12)

    def test_hand_trigonometry(self):
        # cos/sin = 3/5, 4/5 and 0, 1: g_z = 0, g_x = 8, g_zx = 6, g_xz = 0,
        # so the resonant splitting is 8 MHz up to (g/E)^2*E = 0.02 MHz.
        t1 = TlsParams(delta0=4.0, eps_i=3.0)
        t2 = TlsParams(delta0=5.0)
        lower, upper = pair_transitions(CoupledPair(t1, t2, g_localized=10.0), 0.0, 0.0, 0.0)
        assert (upper - lower) * 1e3 == pytest.approx(8.0, abs=0.02)

    @settings(max_examples=50, deadline=None)
    @given(t1=tls_params, t2=tls_params, g=couplings)
    def test_matrix_conjugation_oracle(self, t1, t2, g):
        # Rotating sz1*sz2 with the single-TLS eigenrotations keeps the spectrum.
        pair = CoupledPair(t1, t2, g_localized=g)
        assert np.allclose(sweep_transitions(pair), eigenbasis_oracle(pair),
                           rtol=0, atol=1e-10)

    def test_delta_to_zero_regular(self):
        t1 = TlsParams(delta0=1e-300, eps_i=-2.0)
        t2 = TlsParams(delta0=5.0)
        got = pair_transitions(CoupledPair(t1, t2, g_localized=10.0), 0.0, 0.0, 0.0)
        assert np.all(np.isfinite(got))
        assert np.allclose(got, transitions_truncated(2.0, 5.0, 0.0, 0.0),
                           rtol=0, atol=(0.01**2) / 2.0)


class TestInvariants:
    def test_spectral_equivalence_seeded(self):
        # The localized pair and its eigenbasis rotation share one spectrum.
        rng = np.random.default_rng(5)
        for _ in range(200):
            t1, t2 = (
                TlsParams(delta0=rng.uniform(0.5, 8.0), eps_i=rng.uniform(-6.0, 6.0))
                for _ in range(2)
            )
            pair = CoupledPair(t1, t2, g_localized=rng.uniform(-200, 200))
            got = np.array(sweep_transitions(pair))
            want = np.array(eigenbasis_oracle(pair))
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    @settings(max_examples=50, deadline=None)
    @given(t1=tls_params, t2=tls_params, frac=st.floats(-0.01, 0.01))
    def test_truncation_error_bound(self, t1, t2, frac):
        # The z-x cross terms the truncated model drops shift each
        # transition by at most g^2/E.
        g = frac * min(t1.delta0, t2.delta0) * 1e3  # MHz
        eps1, e1 = energies(t1, 0.0, 0.0, SWEEP_V_S)
        eps2, e2 = energies(t2, 0.0, 0.0, SWEEP_V_S)
        full = sweep_transitions(CoupledPair(t1, t2, g_localized=g))
        g_z = g * (eps1 / e1) * (eps2 / e2)
        g_x = g * (t1.delta0 / e1) * (t2.delta0 / e2)
        trunc = transitions_truncated(e1, e2, g_z, g_x)
        bound = (g / 1e3) ** 2 / np.minimum(e1, e2) + 1e-12
        for f, t in zip(full, trunc):
            assert np.all(np.abs(f - t) <= bound)


class TestCrossingGeometry:
    def tls_pair(self, g_z=25.0, g_x=-19.0):
        t1 = TlsParams(delta0=5.957, gamma_s=161.95, gamma_p=0.022)
        t2 = TlsParams(delta0=5.440, eps_i=2.55, gamma_s=92.25)
        return CoupledPair(t1, t2, g_z=g_z, g_x=g_x)

    def sweep(self, n=41):
        return [BiasPoint(v_s=v) for v in np.linspace(-2.5e-3, 2.5e-3, n)]

    def test_zero_coupling_crosses_exactly(self):
        pair = self.tls_pair(g_z=0.0, g_x=0.0)
        v_min, s_min = crossing_geometry(pair, self.sweep())
        assert s_min == pytest.approx(0.0, abs=1e-6)
        # independent oracle: solve E1(v) = E2(v) on a dense grid
        v = np.linspace(-2.5e-3, 2.5e-3, 200001)
        e1 = np.hypot(5.957, 161.95 * v + pair.tls1.eps_i)
        e2 = np.hypot(5.440, 2.55 + 92.25 * v)
        v_star = v[np.argmin(np.abs(e1 - e2))]
        assert v_min == pytest.approx(v_star, abs=1e-7)

    def test_splitting_is_gx_at_resonance(self):
        pair = self.tls_pair()
        v_min, s_min = crossing_geometry(pair, self.sweep())
        assert s_min == pytest.approx(19.0, rel=1e-6)

    @settings(max_examples=20, deadline=None)
    @given(g_x=st.floats(5.0, 60.0), sign=st.sampled_from([-1, 1]),
           g_z=st.floats(-60.0, 60.0))
    def test_level_repulsion_bound_truncated(self, g_x, sign, g_z):
        # The truncated-model splitting is sqrt(delta^2 + g_x^2) >= |g_x|
        # identically; the swept minimum must respect that bound.
        pair = self.tls_pair(g_z=g_z, g_x=sign * g_x)
        _, s_min = crossing_geometry(pair, self.sweep())
        assert s_min >= g_x * (1 - 1e-6)
        assert s_min == pytest.approx(g_x, rel=1e-6)

    def test_localized_pair_splitting_with_tls1_at_symmetry(self):
        # TLS1 sits at its symmetry point during the crossing: the level
        # repulsion approaches |g|*sin(theta1)*sin(theta2) with
        # sin(theta1)=1; cross terms correct it only at order g/E.
        t1 = TlsParams(delta0=5.5, gamma_s=250.0)
        t2 = TlsParams(delta0=4.8, eps_i=np.sqrt(5.5**2 - 4.8**2), gamma_s=-40.0)
        g = 30.0
        pair = CoupledPair(t1, t2, g_localized=g)
        sweep = [BiasPoint(v_s=v) for v in np.linspace(-1e-3, 1e-3, 81)]
        v_min, s_min = crossing_geometry(pair, sweep)
        assert abs(v_min) < 5e-5
        sin2 = 4.8 / 5.5  # sin(theta2) = Delta2/E2 at the crossing (E2=E1=5.5)
        assert s_min == pytest.approx(g * sin2, rel=1e-3)

    def test_held_controls_come_from_the_first_point(self):
        # A piezo offset moves TLS1's asymmetry by 0.022 GHz/V * 10 V.
        pair = self.tls_pair(g_z=0.0, g_x=0.0)
        sweep = [BiasPoint(v_p=10.0, v_s=b.v_s) for b in self.sweep()]
        v_min, _ = crossing_geometry(pair, sweep)
        v = np.linspace(-2.5e-3, 2.5e-3, 200001)
        e1 = np.hypot(5.957, 161.95 * v + 0.22)
        e2 = np.hypot(5.440, 2.55 + 92.25 * v)
        assert v_min == pytest.approx(v[np.argmin(np.abs(e1 - e2))], abs=1e-7)

    def test_no_crossing_raises(self):
        t1 = TlsParams(delta0=6.4, gamma_s=30.0)
        t2 = TlsParams(delta0=5.0, gamma_s=20.0)
        pair = CoupledPair(t1, t2, g_z=5.0, g_x=5.0)
        with mock.patch.object(coupled, "APPROACH_WINDOW", 0.2):
            with pytest.raises(NoCrossingInRange):
                crossing_geometry(pair, self.sweep())

    def test_every_point_must_hold_the_other_controls(self):
        # V_p sits at 1 V over the middle half of a V_s sweep whose ends
        # hold it at 0: two controls vary.
        sweep = self.sweep()
        sweep[10:31] = [BiasPoint(v_p=1.0, v_s=b.v_s) for b in sweep[10:31]]
        with pytest.raises(ValueError, match="exactly one control"):
            crossing_geometry(self.tls_pair(), sweep)

    def test_monotonicity_validation(self):
        pair = self.tls_pair()
        bad = [BiasPoint(v_s=v) for v in [0.0, 1e-3, 0.5e-3]]
        with pytest.raises(ValueError):
            crossing_geometry(pair, bad)

    def test_two_point_sweep_refused(self):
        with pytest.raises(ValueError, match="^sweep needs at least 3 points$"):
            crossing_geometry(self.tls_pair(), self.sweep(2))


def localized_oracle(pair, v_lo, v_hi, n=4001):
    """(v*, splitting* [MHz], step) of a localized pair on an n-point V_s
    grid: the argmin of eigvalsh of the 4x4 Hamiltonians, built here."""
    v = np.linspace(v_lo, v_hi, n)
    h = 0.5 * pair.g_localized / 1e3 * np.kron(SZ, SZ)
    for t, place in ((pair.tls1, lambda m: np.kron(m, ID2)), (pair.tls2, lambda m: np.kron(ID2, m))):
        eps = t.eps_i + t.gamma_s * v
        h = h + 0.5 * (eps[:, None, None] * place(SZ) + t.delta0 * place(SX))
    levels = np.linalg.eigvalsh(h)
    split = levels[:, 2] - levels[:, 1]
    k = int(np.argmin(split))
    return v[k], split[k] * 1e3, v[1] - v[0]


class TestCrossingOracle:
    """The geometry benchmark's family of localized pairs: TLS1 at its
    symmetry point and TLS2 on resonance with it at V_s = 0."""

    def pair(self, seed):
        rng = np.random.default_rng(seed)
        delta2 = rng.uniform(4.5, 5.2)
        return CoupledPair(
            TlsParams(delta0=5.5, gamma_s=250.0),
            TlsParams(delta0=delta2, eps_i=np.sqrt(5.5**2 - delta2**2), gamma_s=-40.0),
            g_localized=rng.uniform(10.0, 40.0),
        )

    def assert_matches_oracle(self, pair, v_lo, v_hi):
        sweep = [BiasPoint(v_s=v) for v in np.linspace(v_lo, v_hi, 241)]
        v_min, s_min = crossing_geometry(pair, sweep)
        v_star, s_star, dv = localized_oracle(pair, v_lo, v_hi)
        assert abs(v_min - v_star) <= 2 * dv
        # The refined minimum may only undercut the grid minimum, and barely.
        assert s_star * (1 - 1e-4) - 1e-9 <= s_min <= s_star + 1e-9
        return v_min, v_star

    @pytest.mark.parametrize("seed", range(20))
    def test_crossing_inside_the_sweep(self, seed):
        self.assert_matches_oracle(self.pair(seed), -1e-3, 1e-3)

    def test_minimum_at_the_sweep_start(self):
        # The sweep starts past the crossing, so the splitting only grows
        # along it and every bracket is clamped at index 0.  The answer is
        # the sweep's start itself, not a point a tolerance inside it.
        v_min, v_star = self.assert_matches_oracle(self.pair(0), 0.2e-3, 1e-3)
        assert v_min == v_star == 0.2e-3

    def test_two_roots_give_the_deeper_dip(self):
        # E1 = E2 at V_s = -1.66 and +1.46 mV, with dips of 29.14 and
        # 29.40 MHz, each 0.54 mV wide where it splits less than sqrt(2)
        # times its minimum.  A sweep that resolves each dip (241 points,
        # 26 in each) starts its search at the deeper one; at 21 points it
        # returned the 29.40 MHz dip.
        pair = CoupledPair(TlsParams(delta0=5.0, gamma_s=600.0),
                           TlsParams(delta0=5.05, eps_i=0.6, gamma_s=-60.0), g_localized=30.0)
        _v, s_left, _dv = localized_oracle(pair, -2.5e-3, 0.0)
        _v, s_right, _dv = localized_oracle(pair, 0.0, 2.5e-3)
        assert s_left < s_right - 0.2
        v_min, v_star = self.assert_matches_oracle(pair, -2.5e-3, 2.5e-3)
        assert v_min < 0 and v_star < 0


def crossing_root(pair):
    """V_s [V] where E1 = E2 at V_p = V_g = 0, inside +-2.5 mV: the root of
    the quadratic E1^2 - E2^2 = 0, by the cancellation-free formula."""
    (d1, e1, r1), (d2, e2, r2) = ((t.delta0, t.eps_i, t.gamma_s) for t in (pair.tls1, pair.tls2))
    a, b, c = r1**2 - r2**2, 2 * (e1 * r1 - e2 * r2), e1**2 - e2**2 + d1**2 - d2**2
    q = -0.5 * (b + np.copysign(np.sqrt(b * b - 4 * a * c), b))
    (root,) = [r for r in (q / a, c / q) if abs(r) < 2.5e-3]
    return root


def spy_on_transitions():
    """(calls, patch): the patch records the voltages of each
    coupled.pair_transitions call, broadcast, in ``calls``."""
    calls = []

    def spy(pair, v_p, v_g, v_s):
        calls.append(np.broadcast_arrays(v_p, v_g, v_s))
        return pair_transitions(pair, v_p, v_g, v_s)

    return calls, mock.patch.object(coupled, "pair_transitions", spy)


class TestNewtonSearch:
    """The Newton search that refines the sweep's minimum splitting."""

    @pytest.mark.parametrize("n", [41, 241])
    @pytest.mark.parametrize("g_z, g_x", [(25.0, -19.0), (0.0, 5.0), (-60.0, 60.0)])
    def test_truncated_crossing_is_where_the_energies_meet(self, g_z, g_x, n):
        # The truncated splitting is sqrt((E1 - E2)^2 + g_x^2): least, and
        # equal to |g_x|, where E1 = E2.
        pair = TestCrossingGeometry().tls_pair(g_z=g_z, g_x=g_x)
        sweep = [BiasPoint(v_s=v) for v in np.linspace(-2.5e-3, 2.5e-3, n)]
        v_min, s_min = crossing_geometry(pair, sweep)
        assert abs(v_min - crossing_root(pair)) <= 1e-11
        assert s_min == pytest.approx(abs(g_x), rel=1e-9)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_crossing_between_the_first_two_points(self, reverse):
        # The grid's argmin is the sweep's first point, a third of a step
        # before the crossing: the search starts inside the bracket, not
        # at its end, where the stencil would leave the sweep.
        pair = TestCrossingGeometry().tls_pair()
        volts = crossing_root(pair) + 1e-4 * (np.arange(21) - 1 / 3)
        sweep = [BiasPoint(v_s=v) for v in (volts[::-1] if reverse else volts)]
        v_min, s_min = crossing_geometry(pair, sweep)
        assert abs(v_min - crossing_root(pair)) <= 1e-11
        assert s_min == pytest.approx(19.0, rel=1e-9)

    @pytest.mark.parametrize("n", [6, 11])
    @pytest.mark.parametrize("g_x", [0.02, 0.05])
    def test_dip_narrower_than_the_stencil(self, g_x, n):
        # On a coarse sweep the stencil (1e-3 of the bracket) spans more
        # than the dip, whose 3 points fit a parabola too wide: a Newton
        # step from it stopped 2e-8 V short of the crossing for 0.05 MHz on
        # 11 points, with a splitting 1.5e-4 too large.  Such a dip is
        # bisected instead.
        pair = TestCrossingGeometry().tls_pair(g_z=0.0, g_x=g_x)
        sweep = [BiasPoint(v_s=v) for v in np.linspace(-2.5e-3, 2.5e-3, n)]
        v_min, s_min = crossing_geometry(pair, sweep)
        assert abs(v_min - crossing_root(pair)) <= 1e-9
        assert s_min == pytest.approx(g_x, rel=1e-6)

    @pytest.mark.parametrize("n", [61, 241])
    def test_evaluation_budget(self, n):
        # After the sweep: a few 3-point stencils and the final comparison.
        # The re-gridding search this replaced took 9 calls of 16 points.
        sweep = [BiasPoint(v_s=v) for v in np.linspace(-1e-3, 1e-3, n)]
        for seed in range(20):
            calls, spy = spy_on_transitions()
            with spy:
                crossing_geometry(TestCrossingOracle().pair(seed), sweep)
            refine = calls[1:]
            assert len(refine) <= 6
            assert sum(v_s.size for _, _, v_s in refine) <= 20

    @pytest.mark.parametrize("v_lo, v_hi", [(-1e-3, 1e-3), (0.2e-3, 1e-3)])
    def test_reversed_sweep_gives_the_same_crossing(self, v_lo, v_hi):
        sweep = [BiasPoint(v_s=v) for v in np.linspace(v_lo, v_hi, 241)]
        for seed in range(5):
            pair = TestCrossingOracle().pair(seed)
            assert crossing_geometry(pair, sweep[::-1]) == crossing_geometry(pair, sweep)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_no_point_outside_the_sweep(self, reverse):
        # The minimum lies before the sweep's start, so the search closes
        # in on that end; its stencils stop short of stepping past it.
        sweep = [BiasPoint(v_s=v) for v in np.linspace(0.2e-3, 1e-3, 241)]
        calls, spy = spy_on_transitions()
        with spy:
            v_min, _ = crossing_geometry(TestCrossingOracle().pair(0),
                                         sweep[::-1] if reverse else sweep)
        assert v_min == 0.2e-3
        points = np.concatenate([v_s.ravel() for _, _, v_s in calls])
        assert points.min() == 0.2e-3 and points.max() == 1e-3

    def test_flat_splitting_returns_the_first_point(self):
        # Neither TLS responds to the global gate: the splitting is one
        # value along the sweep, and the tie keeps the sweep's first point.
        pair = CoupledPair(TlsParams(delta0=5.0), TlsParams(delta0=5.1), g_z=0.0, g_x=10.0)
        sweep = [BiasPoint(v_g=v) for v in np.linspace(-1.0, 1.0, 41)]
        v_min, s_min = crossing_geometry(pair, sweep)
        assert v_min == -1.0
        assert s_min == pytest.approx(np.hypot(100.0, 10.0), rel=1e-12)


class TestParameterization:
    def test_exactly_one_parameterization(self):
        t1, t2 = TlsParams(delta0=5.0), TlsParams(delta0=4.0)
        with pytest.raises(ValueError):
            CoupledPair(t1, t2)
        with pytest.raises(ValueError):
            CoupledPair(t1, t2, g_z=1.0, g_x=1.0, g_localized=1.0)
        with pytest.raises(ValueError):
            CoupledPair(t1, t2, g_z=1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["g_z", "g_x", "g_localized"])
    def test_non_finite_coupling_refused(self, field, value):
        # g_z = nan used to locate a crossing with a NaN splitting, and
        # g_localized = nan ended in LinAlgError from eigvalsh.
        given = {"g_z": 1.0, "g_x": 1.0} if field != "g_localized" else {}
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
            CoupledPair(TlsParams(delta0=5.0), TlsParams(delta0=4.0), **{**given, field: value})

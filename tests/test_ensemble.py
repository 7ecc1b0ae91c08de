import re
from dataclasses import replace

import numpy as np
import pytest

from tls_scope import cli
from tls_scope.ensemble import (
    MAX_DIPOLE_EA, MAX_GAMMA_P, MAX_MEAN_DRAWN, _in_band_probability, _truncnorm_left_ppf,
    generate_ensemble,
)
from tls_scope.errors import ConfigError, OutOfRange
from tls_scope.stm import Location

#: What `generate` draws from at its defaults.
DEFAULT = cli.ensemble_config(cli.GENERATE_DEFAULTS)


def config(**fields):
    """DEFAULT with ``fields`` replaced."""
    return replace(DEFAULT, **fields)


def in_band_counts(cfg, n_seeds):
    """Defects of each of ``n_seeds`` draws whose zero-bias transition
    lies in the band."""
    lo, hi = cfg.band
    return np.array([
        sum(lo <= np.hypot(t.delta0, t.eps_i) <= hi
            for t in generate_ensemble(cfg, seed=s).tls_list)
        for s in range(n_seeds)
    ])


class TestGenerateEnsemble:
    def test_empty_for_zero_density(self):
        ens = generate_ensemble(config(p0_target=0.0), seed=1)
        assert ens.tls_list == ()

    def test_empty_for_zero_volume(self):
        assert generate_ensemble(config(volume_um3=0.0), seed=1).tls_list == ()

    def test_deterministic_under_seed(self):
        cfg = DEFAULT
        a = generate_ensemble(cfg, seed=42)
        b = generate_ensemble(cfg, seed=42)
        assert a.tls_list == b.tls_list
        c = generate_ensemble(cfg, seed=43)
        assert c.tls_list != a.tls_list

    def test_invalid_band(self):
        with pytest.raises(ConfigError):
            generate_ensemble(config(band=(6.7, 5.8)), seed=0)

    def test_in_band_mean_is_p0_volume_bandwidth(self):
        # 1800 /(um^3 GHz) * 2.25e-3 um^3 * 0.9 GHz = 3.645 defects in band;
        # the count pooled over many seeds is within 4 sigma of it.
        n_batches = 150
        total = in_band_counts(DEFAULT, n_batches).sum()
        assert abs(total - n_batches * 3.645) <= 4 * np.sqrt(n_batches * 3.645)

    def test_in_band_count_poisson_consistent(self):
        # A Poisson count has variance = mean: the dispersion statistic
        # sum((x - mean)^2) / mean is chi^2 with n - 1 degrees of freedom,
        # here within 4 sigma of its mean.
        n_batches = 150
        counts = in_band_counts(DEFAULT, n_batches)
        dispersion = ((counts - counts.mean()) ** 2).sum() / counts.mean()
        assert abs(dispersion - (n_batches - 1)) <= 4 * np.sqrt(2 * (n_batches - 1))

    @pytest.mark.parametrize("band", [(5.8, 6.7), (6.0, 6.0001)], ids=["default", "0.1-MHz"])
    def test_in_band_probability_matches_quadrature(self, band):
        # The closed form against scipy's adaptive quadrature of its
        # defining integral; the 2001-point trapezoid it replaced was
        # 1.22e-5 low at the default band.
        from scipy.integrate import quad

        cfg = config(band=band)
        lo, hi = band
        d_min, w = cfg.resolved_delta0_min(), cfg.resolved_eps_halfwidth()

        def in_band_share(log_d):
            d2 = np.exp(2 * log_d)
            return (np.sqrt(hi**2 - d2) - np.sqrt(max(lo**2 - d2, 0.0))) / w

        area, _ = quad(in_band_share, np.log(d_min), np.log(hi), points=[np.log(lo)],
                       epsabs=0.0, epsrel=1e-13, limit=200)
        want = area / np.log(hi / d_min)
        rel = 1e-13 if band == (5.8, 6.7) else 1e-10  # F(hi) - F(lo) cancels
        assert _in_band_probability(cfg) == pytest.approx(want, rel=rel)

    def test_band_of_1e_300_ghz_is_drawn_from(self):
        # Each 1e-300 GHz band edge squares to 0, which left the quadrature
        # it replaced with no in-band share and "drawn from inf candidates".
        cfg = config(band=(1e-300, 2e-300))
        assert cfg.mean_drawn == pytest.approx(7.91, rel=1e-3)
        assert len(generate_ensemble(cfg, seed=1).tls_list) == 9

    def test_all_sample_dielectric_with_consistent_rates(self):
        from tls_scope.stm import dipole_to_gamma_s as dipole_energy_rate

        ens = generate_ensemble(config(volume_um3=9e-3), seed=7)
        assert len(ens.tls_list) > 10
        for t in ens.tls_list:
            assert t.location is Location.SAMPLE_DIELECTRIC
            assert t.gamma_g == 0.0
            assert t.p_parallel > 0
            expected = dipole_energy_rate(t.p_parallel, DEFAULT.thickness_m)
            assert abs(t.gamma_s) == pytest.approx(expected, rel=1e-12)

    def test_dipole_population_statistics(self):
        # Truncated normal (mean 0.4, sigma 0.2, floor 0): the realized
        # mean is slightly above 0.4; check against scipy's moments.
        from scipy.stats import truncnorm

        cfg = config(volume_um3=0.2)  # big volume -> many TLS
        ens = generate_ensemble(cfg, seed=3)
        dip = np.array([t.p_parallel for t in ens.tls_list])
        loc, scale = cfg.dipole_mean, cfg.dipole_std
        mean, var = truncnorm.stats(-loc / scale, np.inf, loc=loc, scale=scale, moments="mv")
        assert dip.mean() == pytest.approx(float(mean), abs=4 * np.sqrt(var / dip.size))

    def test_delta0_within_window(self):
        cfg = config(volume_um3=9e-3)
        ens = generate_ensemble(cfg, seed=9)
        lo = cfg.resolved_delta0_min()
        for t in ens.tls_list:
            assert lo <= t.delta0 <= cfg.band[1]


class TestDipoleSampler:
    """The dipole draw is the one scipy.stats.truncnorm.rvs makes, to
    within rounding, from the same uniforms."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    @pytest.mark.parametrize("n", [0, 1, 5, 1000])
    @pytest.mark.parametrize("mean, std", [(0.4, 0.2), (0.05, 1.0), (2.0, 0.1), (0.001, 2.0)])
    def test_matches_truncnorm_rvs(self, seed, n, mean, std):
        # The largest deviation over this grid is 1.3e-13 (mean + std),
        # at (0.001, 2.0) deep in the upper tail, where scipy's log-space
        # path is the less accurate of the two.
        from scipy.stats import truncnorm

        a = (0.0 - mean) / std
        rng_scipy = np.random.default_rng(seed)
        rng_ours = np.random.default_rng(seed)
        want = truncnorm.rvs(a, np.inf, loc=mean, scale=std, size=n,
                             random_state=rng_scipy)
        got = _truncnorm_left_ppf(rng_ours.uniform(size=n), a) * std + mean
        assert got.shape == (n,)
        assert np.all(np.abs(got - want) <= 1e-12 * (mean + std))
        assert np.all(got >= 0.0)
        assert rng_ours.bit_generator.state == rng_scipy.bit_generator.state

    @pytest.mark.parametrize("a", [-2.0, -0.05, -20.0, -0.0005])
    def test_round_trips_through_the_normal_cdf(self, a):
        # P(X >= x | X >= a) = Phi(-x) / Phi(-a) must give back 1 - u.
        from statistics import NormalDist

        cdf = NormalDist().cdf
        u = np.random.default_rng(3).uniform(size=2000)
        x = _truncnorm_left_ppf(u, a)
        back = 1.0 - np.array([cdf(-xi) for xi in x.tolist()]) / cdf(-a)
        assert np.all(x >= a)
        assert np.abs(back - u).max() <= 4e-15

    def test_zero_uniform_with_all_mass_above_the_cut(self):
        # Phi(20) rounds to 1: the quantile of u = 0 is held just inside (0, 1).
        x = _truncnorm_left_ppf(np.array([0.0, 0.5]), -20.0)
        assert np.all(np.isfinite(x)) and np.all(x >= -20.0)

    @pytest.mark.parametrize("field, value", [
        ("dipole_mean", 0.0), ("dipole_std", 0.0),
        # An infinite mean or spread used to draw p = inf and gamma_s = -inf.
        ("dipole_mean", np.inf), ("dipole_std", np.inf),
        # A zero thickness used to give an infinite gamma_s after numpy's
        # divide-by-zero warning, a negative one went unseen under the random
        # gamma_s sign, and NaN wrote NaN rates that write_json failed on.
        ("thickness_m", 0.0), ("thickness_m", -50e-9), ("thickness_m", np.nan),
        ("thickness_m", np.inf),
    ], ids=["dipole_mean", "dipole_std", "dipole_mean-inf", "dipole_std-inf", "thickness-zero",
            "thickness-negative", "thickness-nan", "thickness-inf"])
    def test_non_positive_dipole_parameters_rejected(self, field, value):
        with pytest.raises(OutOfRange, match=f"^{field} must be"):
            config(**{field: value})

    @pytest.mark.parametrize("field, bound", [
        ("dipole_mean", MAX_DIPOLE_EA), ("dipole_std", MAX_DIPOLE_EA),
        ("gamma_p_max", MAX_GAMMA_P),
    ])
    def test_values_above_their_bound_rejected(self, field, bound):
        config(**{field: bound})
        for value in (np.nextafter(bound, np.inf), 1e200, 1e308):
            with pytest.raises(OutOfRange, match=f"^{field} must be .*at most {bound}, got"):
                config(**{field: value})

    def test_mean_drawn_count_is_bounded(self):
        # 1800 /(um^3 GHz) * 2.25e-3 um^3 * 0.9 GHz = 3.645 defects in band,
        # drawn from 3.645 / q candidates, q the in-band share of the window.
        cfg = DEFAULT
        assert cfg.mean_in_band == pytest.approx(3.645)
        assert cfg.mean_drawn == cfg.mean_in_band / _in_band_probability(cfg)
        assert cfg.mean_drawn == pytest.approx(18.36, rel=1e-3)
        at_limit = MAX_MEAN_DRAWN / cfg.mean_drawn * cfg.p0_target
        config(p0_target=at_limit * (1 - 1e-9))
        for p0 in (at_limit * (1 + 1e-9), 1e30):
            with pytest.raises(ConfigError, match="candidates, more than 100000"):
                config(p0_target=p0)

    @pytest.mark.parametrize("band, p0, drawn", [
        # 7.58e+06 by the 2001-point quadrature of the in-band share,
        # which does not resolve its kink in a 0.1 MHz band.
        ((5.8, 5.8001), 1e9, "7.47e+06"),
        ((5.8, 1e200), 1e-250, "inf"),
        # D_min / 1e10 GHz rounds to 0, which the closed form must not divide by.
        ((1e-320, 1e10), 1800.0, "4.05e+10"),
    ], ids=["narrow-band", "band-edge-overflows", "band-edges-1e330-apart"])
    def test_bound_counts_the_candidates_drawn(self, band, p0, drawn):
        # The bound used to count only the in-band mean: the narrow band
        # asks for 225 in band and passed it, to draw ~7.5M defects; the
        # other ended in an OverflowError.
        with pytest.raises(ConfigError, match=re.escape(f"drawn from {drawn} candidates")):
            config(band=band, p0_target=p0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -5.0, -1e-300])
    @pytest.mark.parametrize("field", ["p0_target", "volume_um3", "gamma_p_max"])
    def test_non_finite_or_negative_density_and_strain_rejected(self, field, value):
        with pytest.raises(OutOfRange, match=f"^{field} must be finite and >= 0"):
            config(**{field: value})
        config(**{field: 0.0})

import numpy as np
import pytest

from tls_scope.ensemble import (
    ControlChain,
    EnsembleConfig,
    apply_control_chain,
    generate_ensemble,
)
from tls_scope.errors import BiasLimitExceeded, InvalidBand
from tls_scope.stm import Location


class TestControlChain:
    def test_paper_division(self):
        v = apply_control_chain(0.5, ControlChain())
        assert v * 1e3 == pytest.approx(2.439, rel=1e-3)

    def test_zero(self):
        assert apply_control_chain(0.0, ControlChain()) == 0.0

    def test_limit_exceeded(self):
        with pytest.raises(BiasLimitExceeded):
            apply_control_chain(0.6, ControlChain())

    def test_positive_division_factor(self):
        with pytest.raises(ValueError):
            ControlChain(division_factor=0.0)


class TestGenerateEnsemble:
    def test_empty_for_zero_density(self):
        ens = generate_ensemble(EnsembleConfig(p0_target=0.0), seed=1)
        assert ens.tls_list == ()

    def test_deterministic_under_seed(self):
        cfg = EnsembleConfig()
        a = generate_ensemble(cfg, seed=42)
        b = generate_ensemble(cfg, seed=42)
        assert a.tls_list == b.tls_list
        c = generate_ensemble(cfg, seed=43)
        assert c.tls_list != a.tls_list

    def test_invalid_band(self):
        with pytest.raises(InvalidBand):
            generate_ensemble(EnsembleConfig(band=(6.7, 5.8)), seed=0)

    def test_expected_in_band_mean(self):
        cfg = EnsembleConfig(volume_um3=2.25e-3, p0_target=1800.0, band=(5.8, 6.7))
        assert generate_ensemble(cfg, 0).expected_in_band == pytest.approx(3.645)

    def test_in_band_count_poisson_consistent(self):
        # Pooled count over many seeds: within 4 sigma of the target mean.
        cfg = EnsembleConfig(volume_um3=2.25e-3)
        n_batches = 150
        counts = [generate_ensemble(cfg, seed=s).in_band_count() for s in range(n_batches)]
        mean = cfg.p0_target * cfg.volume_um3 * (cfg.band[1] - cfg.band[0])
        total = sum(counts)
        sigma = np.sqrt(n_batches * mean)
        assert abs(total - n_batches * mean) <= 4 * sigma

    def test_all_sample_dielectric_with_consistent_rates(self):
        from tls_scope.stm import dipole_to_gamma_s as dipole_energy_rate

        ens = generate_ensemble(EnsembleConfig(volume_um3=9e-3), seed=7)
        assert len(ens.tls_list) > 10
        for t in ens.tls_list:
            assert t.location is Location.SAMPLE_DIELECTRIC
            assert t.gamma_g == 0.0
            assert t.p_parallel > 0
            expected = dipole_energy_rate(t.p_parallel, 50e-9)
            assert abs(t.gamma_s) == pytest.approx(expected, rel=1e-12)

    def test_dipole_population_statistics(self):
        # Truncated normal (mean 0.4, sigma 0.2, floor 0): the realized
        # mean is slightly above 0.4; check against scipy's moments.
        from scipy.stats import truncnorm

        cfg = EnsembleConfig(volume_um3=0.2)  # big volume -> many TLS
        ens = generate_ensemble(cfg, seed=3)
        dip = np.array([t.p_parallel for t in ens.tls_list])
        a = (0 - 0.4) / 0.2
        mean, var = truncnorm.stats(a, np.inf, loc=0.4, scale=0.2, moments="mv")
        assert dip.mean() == pytest.approx(float(mean), abs=4 * np.sqrt(var / dip.size))

    def test_delta0_within_window(self):
        cfg = EnsembleConfig(volume_um3=9e-3)
        ens = generate_ensemble(cfg, seed=9)
        lo = cfg.resolved_delta0_min()
        for t in ens.tls_list:
            assert lo <= t.delta0 <= cfg.band[1]

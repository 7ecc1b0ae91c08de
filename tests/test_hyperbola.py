import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tls_scope.errors import DegenerateTrace
from tls_scope.hyperbola import fit_hyperbolas


def fit_uniform(volts, freqs):
    """The fit of one trace with uniform weights; raises what
    ``fit_hyperbolas`` returns in place of a fit."""
    (fit,) = fit_hyperbolas([(volts, freqs, np.ones(np.size(freqs)))])
    if isinstance(fit, Exception):
        raise fit
    return fit


def hyperbola(v, delta0, eps_i, gamma):
    return np.hypot(delta0, eps_i + gamma * v)


class TestNoiselessRoundTrip:
    def test_supp_table_parameters(self):
        v = np.linspace(-2.5e-3, 2.5e-3, 60)
        f = hyperbola(v, 5.957, 0.05, 161.95)
        fit = fit_uniform(v, f)
        assert fit.delta0 == pytest.approx(5.957, rel=1e-6)
        assert fit.gamma == pytest.approx(161.95, rel=1e-6)
        assert fit.eps_at_zero == pytest.approx(0.05, rel=1e-6)
        assert fit.residual_rms < 1e-12

    def test_many_seeded_parameter_draws(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            d0 = rng.uniform(4.5, 6.5)
            g = rng.uniform(10, 300)
            ei = g * rng.uniform(-0.7, 0.7) * 2.5e-3
            v = np.linspace(-2.5e-3, 2.5e-3, 40)
            fit = fit_uniform(v, hyperbola(v, d0, ei, g))
            assert fit.delta0 == pytest.approx(d0, rel=1e-6)
            assert fit.gamma == pytest.approx(g, rel=1e-6)

    def test_negative_gamma_canonicalized(self):
        v = np.linspace(-2e-3, 2e-3, 30)
        f = hyperbola(v, 5.0, 0.2, -120.0)
        fit = fit_uniform(v, f)
        assert fit.gamma == pytest.approx(120.0, rel=1e-6)
        assert fit.eps_at_zero == pytest.approx(-0.2, rel=1e-6)


class TestDegenerateAndErrors:
    def test_points_at_vertex_only(self):
        rng = np.random.default_rng(11)
        v = rng.normal(0, 1e-7, 25)
        f = hyperbola(v, 5.0, 0.0, 161.95) + rng.normal(0, 1e-3, 25)
        with pytest.raises(DegenerateTrace):
            fit_uniform(v, f)

    def test_flat_trace(self):
        v = np.linspace(-2e-3, 2e-3, 30)
        rng = np.random.default_rng(12)
        f = np.full(30, 6.0) + rng.normal(0, 1e-3, 30)
        with pytest.raises(DegenerateTrace):
            fit_uniform(v, f)

    @pytest.mark.parametrize("curve", [
        lambda v: 6.0 + 40.0 * v - 2000.0 * v**2,  # f^2 curves down
        lambda v: np.sqrt((3.0 + 390.0 * v) ** 2 - 0.5),  # min of f^2 is below 0
    ], ids=["concave", "negative-minimum"])
    def test_no_hyperbola_through_the_points(self, curve):
        v = np.linspace(-2.4e-3, 2.4e-3, 12)
        with pytest.raises(DegenerateTrace):
            fit_uniform(v, curve(v))

    @pytest.mark.parametrize("volt", [0.0, 0.1, 1e-3 / 3])
    def test_equal_volts(self, volt):
        # A rank-deficient start design: no bias dependence to fit, where
        # np.polyfit raised LinAlgError ("SVD did not converge").
        f = 6.0 + np.random.default_rng(14).normal(0, 1e-3, 7)
        with pytest.raises(DegenerateTrace, match="no significant bias dependence"):
            fit_uniform(np.full(7, volt), f)

    def test_two_distinct_volts(self):
        v = np.repeat([-1e-3, 1e-3], 4)
        with pytest.raises(DegenerateTrace, match="no significant bias dependence"):
            fit_uniform(v, hyperbola(v, 5.0, 0.1, 100.0))

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_uniform([0, 1e-3, 2e-3], [5.0, 5.1, 5.2])


class TestReparameterization:
    def test_affine_bias_transform(self):
        rng = np.random.default_rng(13)
        v = np.linspace(-2.5e-3, 2.5e-3, 50)
        f = hyperbola(v, 5.5, -0.1, 200.0) + rng.normal(0, 1e-3, 50)
        a, b = 4.2, 0.011
        fit1 = fit_uniform(v, f)
        fit2 = fit_uniform(a * v + b, f)
        assert fit2.gamma * a == pytest.approx(fit1.gamma, rel=1e-9)
        assert fit2.delta0 == pytest.approx(fit1.delta0, rel=1e-9)
        # eps at the transformed zero maps back consistently
        eps_at_old_zero = fit2.eps_at_zero + fit2.gamma * b
        assert eps_at_old_zero == pytest.approx(fit1.eps_at_zero, rel=1e-6)

    @settings(max_examples=400, deadline=None)
    @given(delta0=st.floats(4.0, 7.0), eps=st.floats(-3.0, 3.0),
           gamma=st.floats(20.0, 400.0), a=st.floats(0.2, 5.0),
           signs=st.tuples(st.sampled_from([1.0, -1.0]), st.sampled_from([1.0, -1.0])),
           b=st.floats(-2e-3, 2e-3), n=st.integers(8, 60))
    def test_any_affine_bias_map(self, delta0, eps, gamma, a, signs, b, n):
        # V -> aV + b turns eps + gamma*V into (eps - gamma*b/a) + (gamma/a)*V.
        v = np.linspace(-2.4e-3, 2.4e-3, n)
        f = hyperbola(v, delta0, eps, signs[0] * gamma)
        a *= signs[1]
        fit = fit_uniform(v, f)
        mapped = fit_uniform(a * v + b, f)
        gamma_m, eps_m = fit.gamma / a, fit.eps_at_zero - fit.gamma * b / a
        if gamma_m < 0:
            gamma_m, eps_m = -gamma_m, -eps_m
        assert mapped.delta0 == pytest.approx(fit.delta0, rel=1e-6)
        assert mapped.gamma == pytest.approx(gamma_m, rel=1e-6)
        assert mapped.eps_at_zero == pytest.approx(eps_m, rel=1e-6, abs=1e-6 * f.max())


class TestCovarianceCalibration:
    def test_three_sigma_coverage(self):
        # sigma_f = 10% of the trace's frequency span, 50 points, vertex
        # inside the window: both parameters inside 3 sigma in >= 99%.
        hits = total = 0
        for k in range(400):
            rng = np.random.default_rng(20_000 + k)
            d0 = rng.uniform(4.5, 6.5)
            g = rng.uniform(10, 300)
            ei = g * rng.uniform(-0.8, 0.8) * 2.5e-3
            v = np.linspace(-2.5e-3, 2.5e-3, 50)
            clean = hyperbola(v, d0, ei, g)
            span = max(clean.max() - clean.min(), 1e-9)
            f = clean + rng.normal(0, 0.10 * span, v.size)
            try:
                fit = fit_uniform(v, f)
            except DegenerateTrace:
                continue
            total += 1
            s = fit.sigma
            hits += (
                abs(fit.delta0 - d0) <= 3 * s[0] and abs(fit.gamma - g) <= 3 * s[2]
            )
        assert total > 380
        assert hits / total >= 0.99

from unittest import mock

import numpy as np
import pytest

from tls_scope import lm
from tls_scope.lm import lm_batch


def lm_one(residuals, jacobian, x0, weights=None):
    """:func:`lm_batch` on one problem: its (params, covariance, chi2,
    n_iter, converged)."""
    x0 = np.asarray(x0, dtype=float)
    w = np.ones_like(residuals(x0)) if weights is None else np.asarray(weights, dtype=float)
    out = lm_batch(lambda x, _: residuals(x[0])[None], lambda x, _: jacobian(x[0])[None],
                   x0[None], w[None], [w.size])
    return tuple(a[0] for a in out)


def lm_one_capped(max_iter, *args, **limits):
    """:func:`lm_one` with ``MAX_ITER`` and the tolerances named in
    ``limits`` (``gtol``, ``xtol``, ``ftol``) patched."""
    patched = {"MAX_ITER": max_iter, **{k.upper(): v for k, v in limits.items()}}
    with mock.patch.multiple(lm, **patched):
        return lm_one(*args)


def exponential_problem(rng, n=60, noise=0.0):
    t = np.linspace(0, 3, n)
    true = np.array([2.5, 1.3])
    y = true[0] * np.exp(-true[1] * t)
    if noise:
        y = y + rng.normal(0, noise, n)

    def residuals(x):
        return y - x[0] * np.exp(-x[1] * t)

    def jacobian(x):
        e = np.exp(-x[1] * t)
        return -np.column_stack((e, -x[0] * t * e))

    return residuals, jacobian, true


def test_converges_on_exponential():
    rng = np.random.default_rng(0)
    residuals, jacobian, true = exponential_problem(rng)
    params, _cov, chi2, _n_iter, converged = lm_one(residuals, jacobian, [1.0, 0.5])
    assert converged
    assert np.allclose(params, true, rtol=1e-8)
    assert chi2 < 1e-16


def test_cost_decreases_monotonically():
    rng = np.random.default_rng(1)
    residuals, jacobian, _ = exponential_problem(rng, noise=0.05)
    n_iter = lm_one(residuals, jacobian, [1.0, 0.5])[3]
    assert n_iter > 3
    chi2 = [lm_one_capped(k, residuals, jacobian, [1.0, 0.5])[2]
            for k in range(1, n_iter + 1)]
    assert all(b <= a for a, b in zip(chi2, chi2[1:]))


def test_covariance_scaled_by_residuals():
    rng = np.random.default_rng(2)
    residuals, jacobian, true = exponential_problem(rng, noise=0.05)
    params, cov, *_ = lm_one(residuals, jacobian, [1.0, 0.5])
    sigma = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    assert np.all(np.abs(params - true) < 5 * sigma)


def test_weights_shift_optimum():
    t = np.array([0.0, 1.0, 2.0, 3.0])
    y = np.array([0.0, 1.0, 2.0, 10.0])

    def residuals(x):
        return y - x[0] * t

    def jacobian(x):
        return -t.reshape(-1, 1)

    flat = lm_one(residuals, jacobian, [1.0])[0][0]
    heavy_tail = lm_one(residuals, jacobian, [1.0], weights=[1, 1, 1, 100])[0][0]
    assert heavy_tail > flat


def test_negative_weights_rejected():
    residuals, jacobian, _ = exponential_problem(np.random.default_rng(3))
    with pytest.raises(ValueError):
        lm_one(residuals, jacobian, [1.0, 0.5], weights=[-1.0] * 60)


def test_no_convergence_is_flagged():
    # Minimum at infinity: every step improves, no tolerance ever fires.
    def residuals(x):
        return np.array([np.exp(-x[0])])

    def jacobian(x):
        return np.array([[-np.exp(-x[0])]])

    _params, cov, _chi2, n_iter, converged = lm_one_capped(
        5, residuals, jacobian, [0.0], ftol=0.0, xtol=0.0, gtol=0.0)
    assert not converged
    assert n_iter == 5 and np.isnan(cov).all()


def test_a_start_whose_chi2_overflows_does_not_converge():
    # Its gradient test, GTOL * max(1, inf), used to pass at iteration 1
    # and flag the problem converged with chi2 = inf.
    t = np.linspace(0.0, 1.0, 6)
    params, cov, chi2, n_iter, converged = lm_one(
        lambda x: 1e200 - x[0] * t, lambda x: -t[:, None], [0.0])
    assert not converged and n_iter == 0 and chi2 == np.inf
    assert params.tolist() == [0.0] and np.isnan(cov).all()

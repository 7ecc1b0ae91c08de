"""The lockstep fits against copies of the serial ones they replace.

``reference_lm_fit`` and ``reference_fit_hyperbola`` are the one-problem
LM loop and hyperbola fit as they were before the batch, kept here
verbatim but for their docstrings, their result class, the cost history
they no longer keep and the start, which ``reference_fit_hyperbola``
takes from the batched start solve for its one trace.  Both follow the
package's rule for a singular J^T W J at the solution: the covariance is
NaN (where ``pinv``'s zeros used to be), and a hyperbola fit without a
covariance is a ``NoConvergence``; and the hyperbola fit reflects the
covariance with a negative Delta0, as with a negative gamma.
``fit_hyperbolas`` and ``lm_batch`` must give their floats bit for bit,
and the same exception per trace.  ``reference_quadratic_init`` is the
per-trace ``np.polyfit`` start that the batched solve replaces.
"""

from typing import Callable, NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tls_scope.errors import DegenerateTrace, NoConvergence
from tls_scope import hyperbola
from tls_scope.hyperbola import TraceFit, _quadratic_starts, fit_hyperbolas
from tls_scope import lm
from tls_scope.lm import LAM0, LAM_FACTOR, _each, lm_batch


class Fit(NamedTuple):
    """What ``reference_lm_fit`` returns."""

    params: np.ndarray
    covariance: np.ndarray
    chi2: float
    n_iter: int


def reference_lm_fit(
    residuals: Callable[[np.ndarray], np.ndarray],
    jacobian: Callable[[np.ndarray], np.ndarray],
    x0,
    weights=None,
    max_iter: int = 200,
    gtol: float = 1e-12,
    xtol: float = 1e-12,
    ftol: float = 1e-14,
) -> Fit:
    x = np.asarray(x0, dtype=float).copy()
    n_params = x.size
    r = residuals(x)
    w = np.ones_like(r) if weights is None else np.asarray(weights, dtype=float)
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    chi2 = float(np.sum(w * r * r))
    lam = LAM0
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        jac = jacobian(x)
        jtw = jac.T * w
        a = jtw @ jac
        grad = jtw @ r
        if np.abs(grad).max() <= gtol * max(1.0, chi2):
            converged = True
            break
        scale = np.diag(np.clip(np.diag(a), 1e-30, None))
        neg_grad = -grad
        accepted = False
        for _ in range(50):
            try:
                step = np.linalg.solve(a + lam * scale, neg_grad)
            except np.linalg.LinAlgError:
                lam *= LAM_FACTOR
                continue
            x_new = x + step
            r_new = residuals(x_new)
            chi2_new = float(np.sum(w * r_new * r_new))
            if np.isfinite(chi2_new) and chi2_new <= chi2:
                accepted = True
                break
            lam *= LAM_FACTOR
        if not accepted:
            converged = True  # damping exhausted: already at a minimum
            break
        dx = np.abs(step).max() / max(np.abs(x).max(), 1e-30)
        dchi = chi2 - chi2_new
        x, r, chi2 = x_new, r_new, chi2_new
        lam = max(lam / LAM_FACTOR, 1e-14)
        if dx <= xtol or dchi <= ftol * max(chi2, 1e-300):
            converged = True
            break
    if not converged:
        raise NoConvergence(f"no convergence after {max_iter} iterations")

    jac = jacobian(x)
    jtw = jac.T * w
    a = jtw @ jac
    dof = max(r.size - n_params, 1)
    s2 = chi2 / dof
    try:
        cov = np.linalg.inv(a) * s2
    except np.linalg.LinAlgError:
        cov = np.full_like(a, np.nan)  # singular: no covariance
    return Fit(params=x, covariance=cov, chi2=chi2, n_iter=it)


def reference_fit_hyperbola(volts, freqs, weights) -> TraceFit:
    volts = np.asarray(volts, dtype=float)
    freqs = np.asarray(freqs, dtype=float)
    if volts.shape != freqs.shape or volts.ndim != 1:
        raise ValueError("volts and freqs must be 1-d arrays of equal length")
    if volts.size < 5:
        raise ValueError("need at least 5 points to fit a hyperbola")
    w = np.asarray(weights, dtype=float)

    (x0,) = _quadratic_starts(volts[None], freqs[None], w[None])
    if isinstance(x0, DegenerateTrace):
        raise x0

    def model(x):
        d0, eps_i, gamma = x
        return np.hypot(d0, eps_i + gamma * volts)

    def residuals(x):
        return freqs - model(x)

    def jacobian(x):
        d0, eps_i, gamma = x
        eps = eps_i + gamma * volts
        f = np.hypot(d0, eps)
        return -np.column_stack((d0 / f, eps / f, eps * volts / f))

    res = reference_lm_fit(residuals, jacobian, x0, weights=w)
    if not np.isfinite(res.covariance).all():
        raise NoConvergence("J^T W J is singular at the solution: no covariance")
    d0, eps_i, gamma = res.params
    cov = res.covariance
    if gamma < 0:
        # Canonical sign: the model is invariant under the joint flip.
        eps_i, gamma = -eps_i, -gamma
        flip = np.diag([1.0, -1.0, -1.0])
        cov = flip @ cov @ flip
    if d0 < 0:
        d0 = -d0
        flip = np.diag([-1.0, 1.0, 1.0])
        cov = flip @ cov @ flip
    rms = float(np.sqrt(np.mean(residuals((d0, eps_i, gamma)) ** 2)))
    return TraceFit(
        delta0=float(d0),
        eps_at_zero=float(eps_i),
        gamma=float(gamma),
        covariance=cov,
        residual_rms=rms,
        n_points=int(volts.size),
    )


def reference_quadratic_init(volts, freqs, weights):
    v0 = volts.mean()
    scale = max(volts.max() - volts.min(), 1e-30) / 2.0
    u = (volts - v0) / scale
    coeffs = np.polyfit(u, freqs**2, 2, w=np.sqrt(weights))
    a, b, c = coeffs
    resid = freqs**2 - np.polyval(coeffs, u)
    if np.ptp(np.polyval(coeffs, u)) <= 3.0 * np.sqrt(np.mean(resid**2)):
        raise DegenerateTrace("trace has no significant bias dependence; gamma unidentifiable")
    if a <= 0:
        raise DegenerateTrace("f^2 curves down along the bias; not a hyperbola")
    gamma_u = np.sqrt(a)
    eps_u = b / (2.0 * gamma_u)
    delta0_sq = c - eps_u**2
    if delta0_sq <= 0:
        raise DegenerateTrace("f^2 has its minimum at or below zero; not a hyperbola")
    delta0 = np.sqrt(delta0_sq)
    gamma = gamma_u / scale
    eps_i = eps_u - gamma * v0
    return delta0, eps_i, gamma


#: A 5-point trace of a simulated dense dataset (100x the default
#: volume, seed 1) on which the serial fit ends in NoConvergence.
STALLING_TRACE = (
    [0.00015436863229392, 0.0001852423587527, 0.00024698981167027,
     0.00027786353812905, 0.00030873726458784],
    [6.6499613212713795, 6.606465251499956, 6.5223276972885085,
     6.4791543333011585, 6.436995752637851],
    [4.099925058987052, 0.6204080537987736, 6.018966200608021,
     0.21518996387744505, 0.13277244971208504],
)


def mixed_traces(seed=0):
    """Traces of 5 to 80 points: several per length for most lengths, one
    for some, with flat traces, short concave ones and one that stalls."""
    rng = np.random.default_rng(seed)
    traces = [STALLING_TRACE]
    for n in range(5, 81):
        for _ in range(1 if n % 7 == 0 else 3):
            v = np.sort(rng.uniform(-2.5e-3, 2.5e-3, n))
            kind = rng.integers(10)
            if kind == 0:  # flat: DegenerateTrace
                f = 6.0 + rng.normal(0, 1e-3, n)
            elif kind == 1 and n < 9:  # concave and near-linear: degenerate or stalls
                v = np.linspace(0, 1.5e-4, n) + 1.5e-4
                f = (6.65 - 1400 * (v - v[0]) - rng.uniform(0, 3e5) * (v - v.mean()) ** 2
                     + rng.normal(0, 3e-3, n))
            else:
                g = rng.uniform(10, 300)
                f = np.hypot(rng.uniform(4.5, 6.5), g * rng.uniform(-2.5e-3, 2.5e-3) + g * v)
                f = f + rng.normal(0, 2e-3, n)
            w = rng.uniform(0.1, 5.0, n) if rng.integers(2) else np.ones(n)
            traces.append((v, f, w))
    return traces


def outcome(fn, *args):
    """Exact bytes of a fit, or the type and text of what it raised."""
    try:
        res = fn(*args)
    except (DegenerateTrace, NoConvergence) as exc:
        return type(exc).__name__, str(exc)
    return as_bytes(res)


def as_bytes(res):
    if isinstance(res, Exception):
        return type(res).__name__, str(res)
    if isinstance(res, np.ndarray):
        return res.tobytes()
    if isinstance(res, TraceFit):
        return (np.array([res.delta0, res.eps_at_zero, res.gamma, res.residual_rms]).tobytes(),
                res.covariance.tobytes(), res.n_points)
    return res.params.tobytes(), res.covariance.tobytes(), res.chi2, res.n_iter


@pytest.fixture(scope="module")
def mix():
    traces = mixed_traces()
    return traces, [outcome(reference_fit_hyperbola, *t) for t in traces]


@pytest.fixture(scope="module")
def small_mix():
    """40 traces with the stalling one, and their outcomes in this order."""
    traces = mixed_traces(seed=1)[:40]
    return traces, [as_bytes(r) for r in fit_hyperbolas(traces)]


class TestFitHyperbolas:
    def test_the_mix_has_every_outcome(self, mix):
        _traces, expected = mix
        kinds = [e[0] if isinstance(e[0], str) else "TraceFit" for e in expected]
        assert {"TraceFit", "DegenerateTrace", "NoConvergence"} <= set(kinds)
        assert len(expected) > 200

    def test_bit_identical_to_serial(self, mix):
        traces, expected = mix
        got = [as_bytes(r) for r in fit_hyperbolas(traces)]
        assert got == expected

    def test_a_trace_alone_gives_its_batch_outcome(self, mix):
        traces, expected = mix
        for t, e in list(zip(traces, expected))[:40]:
            assert [as_bytes(r) for r in fit_hyperbolas([t])] == [e]

    def test_empty_list(self):
        assert fit_hyperbolas([]) == []

    @pytest.mark.parametrize("bad", [
        ([0.0, 1.0, 2.0], [5.0, 5.1, 5.2], np.ones(3)),
        ([0.0, 1.0, 2.0, 3.0, 4.0], [5.0] * 4, np.ones(4)),
        ([0.0, 1.0, 2.0, 3.0, 4.0], [5.0, 5.1, 5.3, 5.6, 6.0], [1.0, 1.0, -1.0, 1.0, 1.0]),
        # Weights have no default, and one is needed per point.
        ([0.0, 1.0, 2.0, 3.0, 4.0], [5.0, 5.1, 5.3, 5.6, 6.0], None),
        ([0.0, 1.0, 2.0, 3.0, 4.0], [5.0, 5.1, 5.3, 5.6, 6.0], np.ones(4)),
    ])
    def test_malformed_trace_raises(self, mix, bad):
        with pytest.raises(ValueError):
            fit_hyperbolas([*mix[0][:3], bad])

    @settings(max_examples=10, deadline=None)
    @given(order=st.permutations(range(40)))
    def test_order_does_not_matter(self, small_mix, order):
        traces, expected = small_mix
        got = fit_hyperbolas([traces[i] for i in order])
        assert [as_bytes(g) for g in got] == [expected[i] for i in order]


class TestCanonicalSigns:
    #: A covariance of (delta0, eps_i, gamma) with every entry distinct.
    COV = np.array([[4.0, 1.5, -0.5], [1.5, 9.0, 2.5], [-0.5, 2.5, 16.0]])

    @pytest.mark.parametrize("signs", [(-1, 1), (-1, -1)], ids=["delta0", "delta0-and-gamma"])
    def test_the_covariance_is_reflected_with_the_parameters(self, signs):
        # An LM that ends at Delta0 < 0 used to report |Delta0| with row
        # and column 0 of the covariance unreflected.
        s0, s2 = signs
        v = np.linspace(-2e-3, 2e-3, 9)
        f = np.hypot(0.01, 0.006 + 0.5 * v)

        def lm_ending_at_the_flipped_signs(residuals, jacobian, x0, weights, lengths):
            x = np.array([[0.01 * s0, 0.006 * s2, 0.5 * s2]])
            return x, self.COV[None].copy(), np.zeros(1), np.ones(1, dtype=int), np.ones(1, bool)

        with mock.patch.object(hyperbola, "lm_batch", lm_ending_at_the_flipped_signs):
            (fit,) = fit_hyperbolas([(v, f, np.ones(v.size))])
        assert (fit.delta0, fit.eps_at_zero, fit.gamma) == (0.01, 0.006, 0.5)
        flip = np.diag([s0, s2, s2])
        assert np.array_equal(fit.covariance, flip @ self.COV @ flip)
        assert fit.residual_rms == 0.0


def stacked(traces):
    """(volts, freqs, weights) of equal-length traces as (m, k) arrays."""
    v, f, w = zip(*traces)
    return [np.array(a, dtype=float) for a in (v, f, w)]


class TestQuadraticStarts:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_close_to_the_polyfit_start(self, seed):
        # Same decision and message on every trace; over the mixes of
        # seeds 0-5 the starts differ by at most 3.2e-10 relative.
        for t in mixed_traces(seed):
            v, f, w = stacked([t])
            (got,) = _quadratic_starts(v, f, w)
            try:
                want = reference_quadratic_init(v[0], f[0], w[0])
            except DegenerateTrace as exc:
                assert isinstance(got, DegenerateTrace) and str(got) == str(exc)
            else:
                assert got == pytest.approx(want, rel=1e-9, abs=0)

    @settings(max_examples=40, deadline=None)
    @given(picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=12),
           n=st.sampled_from([5, 6, 7, 8, 12, 30]))
    def test_a_start_does_not_depend_on_its_stack(self, picks, n):
        pool = [t for t in mixed_traces(seed=n) if np.size(t[1]) == n]
        traces = [pool[p % len(pool)] for p in picks]
        together = _quadratic_starts(*stacked(traces))
        for t, got in zip(traces, together, strict=True):
            (alone,) = _quadratic_starts(*stacked([t]))
            assert as_bytes(alone) == as_bytes(got)


def exponential(n, seed):
    rng = np.random.default_rng(seed)
    t = np.linspace(0, 3, n)
    y = 2.5 * np.exp(-1.3 * t) + rng.normal(0, 0.05, n)

    def residuals(x):
        return y - x[0] * np.exp(-x[1] * t)

    def jacobian(x):
        e = np.exp(-x[1] * t)
        return -np.column_stack((e, -x[0] * t * e))

    return residuals, jacobian


def twin_columns(n):
    """y = (a + b) t: two equal Jacobian columns, an exactly singular J^T J."""
    t = np.linspace(0.0, 1.0, n)
    y = 3.0 * t

    def residuals(x):
        return y - (x[0] + x[1]) * t

    def jacobian(x):
        return -np.column_stack((t, t))

    return residuals, jacobian


def stack(problems, x0s, lengths):
    """lm_batch callables over one-problem callables, padded to the longest."""
    width = max(lengths)

    def pad(a):
        return np.concatenate([a, np.zeros((width - a.shape[0],) + a.shape[1:])])

    def residuals(x, rows):
        return np.array([pad(problems[i][0](xi)) for xi, i in zip(x, rows)])

    def jacobian(x, rows):
        return np.array([pad(problems[i][1](xi)) for xi, i in zip(x, rows)])

    weights = np.array([pad(np.ones(n)) for n in lengths])
    return residuals, jacobian, np.array(x0s, dtype=float), weights, lengths


class TestLmBatch:
    def test_rows_equal_serial_fits(self):
        lengths = [3, 8, 8, 20, 20, 20, 60]
        problems = [exponential(n, k) if n > 3 else twin_columns(n)
                    for k, n in enumerate(lengths)]
        problems[4] = twin_columns(20)  # singular J^T W J: NaN covariance
        x0s = [[1.0, 0.5]] * len(lengths)
        params, cov, chi2, n_iter, converged = lm_batch(*stack(problems, x0s, lengths))
        for i, (res, jac) in enumerate(problems):
            want = as_bytes(reference_lm_fit(res, jac, x0s[i]))
            got = Fit(params[i], cov[i], float(chi2[i]), int(n_iter[i]))
            assert converged[i] and as_bytes(got) == want

    def test_rows_without_convergence(self):
        # Minimum at infinity: every step improves, no tolerance ever fires.
        def residuals(x):
            return np.exp(-x)

        def jacobian(x):
            return -np.diag(np.exp(-x))

        problems = [(residuals, jacobian), exponential(10, 3), (residuals, jacobian)]
        x0s, lengths = [[0.0, 0.0], [1.0, 0.5], [2.0, -1.0]], [2, 10, 2]
        limits = dict(max_iter=5, ftol=0.0, xtol=0.0, gtol=0.0)
        with mock.patch.multiple(lm, **{k.upper(): v for k, v in limits.items()}):
            params, cov, chi2, n_iter, converged = lm_batch(*stack(problems, x0s, lengths))
        for i, (res, jac) in enumerate(problems):
            want = outcome(lambda: reference_lm_fit(res, jac, x0s[i], **limits))
            if converged[i]:
                got = Fit(params[i], cov[i], float(chi2[i]), int(n_iter[i]))
                assert as_bytes(got) == want
            else:
                assert want == ("NoConvergence", "no convergence after 5 iterations")
                assert n_iter[i] == 5 and np.isnan(cov[i]).all()
        assert not converged[0] and not converged[2]

    def test_singular_row_of_a_stacked_solve(self):
        a = np.array([np.eye(2), np.ones((2, 2)), [[2.0, 1.0], [1.0, 3.0]]])
        b = np.array([[1.0, 2.0], [1.0, 1.0], [0.5, -1.0]])

        def solve(a, b):
            return np.linalg.solve(a, b[..., None])[..., 0]

        got = _each(solve, a, b)
        assert np.array_equal(got[0], np.linalg.solve(a[0], b[0]))
        assert np.isnan(got[1]).all()
        assert np.array_equal(got[2], np.linalg.solve(a[2], b[2]))

    def test_singular_row_of_a_stacked_inverse(self):
        a = np.array([np.eye(2), np.ones((2, 2)), [[2.0, 1.0], [1.0, 3.0]]])
        got = _each(np.linalg.inv, a)
        assert got.shape == a.shape
        assert np.array_equal(got[0], np.eye(2))
        assert np.isnan(got[1]).all()
        assert np.array_equal(got[2], np.linalg.inv(a[2]))

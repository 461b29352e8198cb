"""Tests of transient analysis via uniformisation."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm

from repro.markov.transient import (
    poisson_series,
    poisson_truncation_point,
    poisson_window,
    transient_distribution,
    uniformize,
)


def three_state_generator() -> np.ndarray:
    generator = np.array(
        [[-3.0, 2.0, 1.0], [0.5, -1.5, 1.0], [2.0, 2.0, -4.0]]
    )
    return generator


class TestUniformize:
    def test_uniformized_matrix_is_stochastic(self):
        p, rate = uniformize(three_state_generator())
        rows = np.asarray(p.sum(axis=1)).ravel()
        assert rows == pytest.approx(np.ones(3))
        assert rate >= 4.0

    def test_explicit_rate_must_cover_exit_rates(self):
        with pytest.raises(ValueError, match="smaller than the maximum exit rate"):
            uniformize(three_state_generator(), rate=1.0)

    def test_zero_generator_yields_identity(self):
        p, rate = uniformize(np.zeros((3, 3)))
        assert np.allclose(p.toarray(), np.eye(3))
        assert rate > 0


class TestPoissonTruncation:
    def test_zero_mean(self):
        assert poisson_truncation_point(0.0, 1e-10) == 0

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            poisson_truncation_point(-1.0, 1e-10)

    @pytest.mark.parametrize("mean", [0.5, 5.0, 50.0])
    def test_truncation_covers_requested_mass(self, mean):
        from scipy.stats import poisson

        point = poisson_truncation_point(mean, 1e-9)
        assert poisson.cdf(point, mean) >= 1 - 1e-9

    def test_truncation_grows_with_mean(self):
        assert poisson_truncation_point(100.0, 1e-9) > poisson_truncation_point(1.0, 1e-9)

    @settings(max_examples=200, deadline=None)
    @given(
        mean=st.floats(0.0, 32.0, exclude_min=True),
        tol_exponent=st.floats(-15.0, -6.0),
    )
    @example(mean=25.989315030529582, tol_exponent=-15.0)
    @example(mean=14.973918490999065, tol_exponent=-15.0)
    @example(mean=31.646724725820317, tol_exponent=-15.0)
    def test_small_means_are_certified_and_tight(self, mean, tol_exponent):
        """Small means walk the tail bound from the mode: the end covers the
        requested mass and is at most one term past the smallest such end."""
        from scipy.stats import poisson

        tol = 10.0**tol_exponent
        point = poisson_truncation_point(mean, tol)
        assert poisson.sf(point, mean) <= tol
        assert point <= 1 or poisson.sf(point - 2, mean) > tol

    @pytest.mark.parametrize("mean", [50.0, 200.0, 1234.5, 2e4, 1e6])
    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
    def test_large_mean_jump_is_certified_and_tight(self, mean, tol):
        """The normal-approximation jump must cover the requested mass and
        land within a fraction of a standard deviation of the exact quantile."""
        from scipy.stats import poisson

        point = poisson_truncation_point(mean, tol)
        assert poisson.cdf(point, mean) >= 1 - tol
        exact = int(poisson.ppf(1 - tol, mean))
        assert exact <= point <= exact + 0.5 * np.sqrt(mean) + 10

    def test_large_mean_jump_is_constant_cost(self):
        """The jump must not degenerate into an O(mean) walk."""
        import time

        start = time.perf_counter()
        for _ in range(100):
            poisson_truncation_point(5e6, 1e-12)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.5  # the linear scan would need minutes


def _stirling_error(n: int) -> float:
    """``lgamma(n + 1) - log(sqrt(2 pi n) (n / e)^n)``, accurate for every n."""
    if n <= 15:
        return (
            math.lgamma(n + 1.0)
            - (n + 0.5) * math.log(n)
            + n
            - 0.5 * math.log(2.0 * math.pi)
        )
    nn = float(n) * n
    return (
        1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * nn)) / nn) / nn) / nn
    ) / n


def _deviance(k: int, mean: float) -> float:
    """``k log(k / mean) + mean - k`` without cancellation near ``k = mean``."""
    if abs(k - mean) < 0.1 * (k + mean):
        v = (k - mean) / (k + mean)
        total = (k - mean) * v
        term = 2.0 * k * v
        j = 1
        while True:
            term *= v * v
            updated = total + term / (2 * j + 1)
            if updated == total:
                return updated
            total = updated
            j += 1
    return k * math.log(k / mean) + mean - k


def _exact_poisson_pmf(k: int, mean: float) -> float:
    """Poisson PMF to ~1e-13 relative at any mean (Loader's saddle-point form).

    The textbook ``exp(k log(mean) - mean - lgamma(k + 1))`` cancels two
    terms of size ~1e6 at ``mean = 1e5`` and is only good to ~1e-10 there.
    """
    if k == 0:
        return math.exp(-mean)
    return math.exp(-_stirling_error(k) - _deviance(k, mean)) / math.sqrt(
        2.0 * math.pi * k
    )


_MEANS = st.floats(-3.0, 5.0).map(lambda exponent: 10.0**exponent)


class TestPoissonWindow:
    @settings(max_examples=60, deadline=None)
    @given(mean=_MEANS, tol_exponent=st.floats(-15.0, -13.0))
    @example(mean=1e-3, tol_exponent=-13.0)
    @example(mean=1e5, tol_exponent=-13.0)
    def test_weights_match_the_exact_pmf(self, mean, tol_exponent):
        # tol <= 1e-13 keeps the renormalisation over the window (a factor
        # of at most 1 / (1 - tol)) well inside the 1e-12 comparison.
        left, weights = poisson_window(mean, 10.0**tol_exponent)
        exact = np.array(
            [_exact_poisson_pmf(left + i, mean) for i in range(len(weights))]
        )
        np.testing.assert_allclose(weights, exact, rtol=1e-12, atol=0.0)

    @settings(max_examples=60, deadline=None)
    @given(mean=_MEANS, tol_exponent=st.floats(-15.0, -3.0))
    @example(mean=1e5, tol_exponent=-15.0)
    @example(mean=4000.0, tol_exponent=-12.0)
    @example(mean=25.989315030529582, tol_exponent=-15.0)
    @example(mean=14.973918490999065, tol_exponent=-15.0)
    @example(mean=31.646724725820317, tol_exponent=-15.0)
    def test_mass_outside_the_window_is_within_tol(self, mean, tol_exponent):
        from scipy.stats import poisson

        tol = 10.0**tol_exponent
        left, weights = poisson_window(mean, tol)
        right = left + len(weights) - 1
        outside = poisson.cdf(left - 1, mean) + poisson.sf(right, mean)
        assert outside <= tol
        assert weights.sum() == pytest.approx(1.0, abs=1e-14)

    def test_weights_never_underflow_at_large_means(self):
        left, weights = poisson_window(1e7, 1e-12)
        assert left > 0
        assert np.all(weights > 0)
        assert weights[10_000_000 - left] == weights.max()  # the mode

    def test_zero_mean_is_a_point_mass(self):
        left, weights = poisson_window(0.0, 1e-12)
        assert left == 0
        assert weights.tolist() == [1.0]

    @pytest.mark.parametrize(
        "mean", [-1.0, -1e-300, float("nan"), float("inf"), -float("inf")]
    )
    def test_invalid_mean_raises(self, mean):
        with pytest.raises(ValueError, match="mean"):
            poisson_window(mean, 1e-12)
        with pytest.raises(ValueError, match="mean"):
            poisson_truncation_point(mean, 1e-12)

    @pytest.mark.parametrize("tol", [0.0, -1e-12, float("nan")])
    def test_invalid_tol_raises(self, tol):
        with pytest.raises(ValueError, match="tol"):
            poisson_window(5.0, tol)


class TestPoissonSeries:
    def test_never_writes_the_start_vector(self):
        pt = uniformize(three_state_generator())[0].T.tocsr()
        pi = np.array([0.5, 0.25, 0.25])
        pi.setflags(write=False)  # any in-place write would raise
        for mean in (0.0, 0.3, 40.0, 900.0):
            result, _ = poisson_series(pt, pi, mean, 1e-12)
            assert result is not pi
            assert result.flags.writeable
        assert pi.tolist() == [0.5, 0.25, 0.25]

    def test_first_step_replaces_the_first_product(self):
        pt = uniformize(three_state_generator())[0].T.tocsr()
        pi = np.array([1.0, 0.0, 0.0])
        plain, products = poisson_series(pt, pi, 60.0, 1e-12)
        reused, fewer = poisson_series(pt, pi, 60.0, 1e-12, first_step=pt @ pi)
        assert fewer == products - 1
        np.testing.assert_array_equal(reused, plain)


class TestTransientDistribution:
    def test_matches_matrix_exponential(self):
        generator = three_state_generator()
        initial = np.array([1.0, 0.0, 0.0])
        for time in (0.1, 0.7, 2.5):
            expected = initial @ expm(generator * time)
            actual = transient_distribution(generator, initial, time)
            assert actual == pytest.approx(expected, abs=1e-9)

    def test_time_zero_returns_initial(self):
        initial = np.array([0.2, 0.3, 0.5])
        result = transient_distribution(three_state_generator(), initial, 0.0)
        assert result == pytest.approx(initial)

    def test_long_horizon_reaches_stationarity(self):
        from repro.markov.solvers import steady_state_gth

        generator = three_state_generator()
        stationary = steady_state_gth(generator).distribution
        late = transient_distribution(generator, [1.0, 0.0, 0.0], 500.0)
        assert late == pytest.approx(stationary, abs=1e-8)

    def test_initial_distribution_is_normalised(self):
        result = transient_distribution(three_state_generator(), [2.0, 0.0, 0.0], 0.5)
        assert result.sum() == pytest.approx(1.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            transient_distribution(three_state_generator(), [1.0, 0.0, 0.0], -1.0)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="length"):
            transient_distribution(three_state_generator(), [1.0, 0.0], 1.0)

    def test_zero_mass_initial_rejected(self):
        with pytest.raises(ValueError, match="positive finite mass"):
            transient_distribution(three_state_generator(), [0.0, 0.0, 0.0], 1.0)

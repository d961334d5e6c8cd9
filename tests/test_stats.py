"""OLS regression statistics and percentile helpers."""

import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.stats import (
    TAIL_PERCENTILES,
    ols,
    p50,
    p95,
    p99,
    p999,
    percentile,
    percentiles,
)


class TestOls:
    def test_recovers_known_coefficients(self):
        rng = np.random.default_rng(0)
        x1 = rng.normal(size=200)
        x2 = rng.normal(size=200)
        y = 3.0 + 2.0 * x1 - 0.5 * x2 + rng.normal(scale=0.01, size=200)
        r = ols({"x1": x1, "x2": x2}, y)
        assert r.coefficient("x1").beta == pytest.approx(2.0, abs=0.01)
        assert r.coefficient("x2").beta == pytest.approx(-0.5, abs=0.01)
        assert r.coefficient("intercept").beta == pytest.approx(3.0, abs=0.01)
        assert r.r_squared > 0.999

    def test_significance(self):
        rng = np.random.default_rng(1)
        x1 = rng.normal(size=300)
        noise = rng.normal(size=300)
        y = 5.0 * x1 + rng.normal(scale=0.5, size=300)
        r = ols({"signal": x1, "noise_col": noise}, y)
        assert r.coefficient("signal").significant()
        assert not r.coefficient("noise_col").significant()

    def test_standardized_coefficients(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=500)
        y = 4.0 * x  # perfectly explained
        r = ols({"x": x}, y)
        assert r.coefficient("x").standardized == pytest.approx(1.0, abs=1e-6)

    def test_r_squared_zero_for_pure_noise(self):
        rng = np.random.default_rng(3)
        r = ols({"x": rng.normal(size=500)}, rng.normal(size=500))
        assert r.r_squared < 0.05

    def test_adjusted_below_r2(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=50)
        y = x + rng.normal(scale=0.5, size=50)
        r = ols({"x": x, "junk": rng.normal(size=50)}, y)
        assert r.adjusted_r_squared <= r.r_squared

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            ols({"x": [1, 2, 3]}, [1, 2])

    def test_too_few_observations_rejected(self):
        with pytest.raises(ValueError):
            ols({"x": [1.0, 2.0]}, [1.0, 2.0])

    def test_unknown_coefficient_keyerror(self):
        r = ols({"x": np.arange(10.0)}, np.arange(10.0) + np.random.default_rng(0).normal(size=10))
        with pytest.raises(KeyError):
            r.coefficient("y")


finite_samples = st.lists(
    st.floats(
        min_value=-1e12, max_value=1e12,
        allow_nan=False, allow_infinity=False,
    ),
    min_size=2,
    max_size=200,
)


class TestPercentile:
    """Exact-interpolation percentiles vs ``statistics.quantiles``."""

    @given(finite_samples)
    def test_matches_statistics_inclusive_percentiles(self, values):
        cuts = statistics.quantiles(values, n=100, method="inclusive")
        for i in (50, 95, 99):
            assert percentile(values, float(i)) == pytest.approx(
                cuts[i - 1], rel=1e-9, abs=1e-6
            )

    @given(finite_samples)
    def test_p999_matches_statistics_permille(self, values):
        cuts = statistics.quantiles(values, n=1000, method="inclusive")
        assert p999(values) == pytest.approx(cuts[998], rel=1e-9, abs=1e-6)

    @given(finite_samples)
    def test_matches_numpy_linear_interpolation(self, values):
        for q in (0.0, 12.5, 50.0, 99.9, 100.0):
            assert percentile(values, q) == pytest.approx(
                float(np.percentile(np.array(values, dtype=np.float64), q)),
                rel=1e-9,
                abs=1e-6,
            )

    @given(finite_samples, st.floats(min_value=0.0, max_value=100.0))
    def test_bounded_by_extremes_and_monotone(self, values, q):
        p = percentile(values, q)
        assert min(values) <= p <= max(values)
        assert percentile(values, 0.0) == min(values)
        assert percentile(values, 100.0) == max(values)

    def test_known_interpolation(self):
        # rank = 0.5 * 3 = 1.5 -> halfway between 20 and 30.
        assert percentile([10, 20, 30, 40], 50) == 25.0
        assert p50([1.0, 2.0, 3.0]) == 2.0
        assert p95([0.0] * 19 + [100.0]) == pytest.approx(5.0)

    def test_singleton_and_empty(self):
        assert percentile([7.0], 99.9) == 7.0
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentiles([], (50.0,))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0, 2.0], -1)
        with pytest.raises(ValueError):
            percentile([1.0, 2.0], 101)
        with pytest.raises(ValueError):
            percentiles([1.0, 2.0], (50.0, 200.0))

    @given(finite_samples)
    def test_percentiles_consistent_with_percentile(self, values):
        out = percentiles(values)
        assert set(out) == set(TAIL_PERCENTILES)
        for q, v in out.items():
            assert v == percentile(values, q)
        assert out[50.0] == p50(values)
        assert out[95.0] == p95(values)
        assert out[99.0] == p99(values)
        assert out[99.9] == p999(values)

    def test_unsorted_input_is_sorted_internally(self):
        assert percentile([30, 10, 40, 20], 50) == 25.0


class TestCorrelations:
    def test_perfect_positive_and_negative(self):
        from repro.bench.stats import correlations

        x = np.arange(100.0)
        out = correlations({"pos": x, "neg": -x}, x)
        assert out["pos"] == pytest.approx(1.0)
        assert out["neg"] == pytest.approx(-1.0)

    def test_independent_near_zero(self):
        from repro.bench.stats import correlations

        rng = np.random.default_rng(5)
        out = correlations({"noise": rng.normal(size=2_000)}, rng.normal(size=2_000))
        assert abs(out["noise"]) < 0.1

    def test_constant_feature_zero(self):
        from repro.bench.stats import correlations

        out = correlations({"const": np.ones(10)}, np.arange(10.0))
        assert out["const"] == 0.0

    def test_length_mismatch(self):
        from repro.bench.stats import correlations

        with pytest.raises(ValueError):
            correlations({"x": [1.0, 2.0]}, [1.0, 2.0, 3.0])


def _percentile_reference(values, q):
    """The pure-Python sorted-list interpolation the numpy path replaced."""
    xs = sorted(float(v) for v in values)
    n = len(xs)
    if n == 1:
        return xs[0]
    rank = (q / 100.0) * (n - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, n - 1)
    frac = rank - lo
    return xs[lo] + (xs[hi] - xs[lo]) * frac


latency_lists = st.lists(
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
    min_size=1,
    max_size=400,
)


class TestPercentileParity:
    @given(values=latency_lists, q=st.floats(min_value=0.0, max_value=100.0))
    @settings(max_examples=200, deadline=None)
    def test_bitwise_equal_to_pure_python(self, values, q):
        assert percentile(values, q) == _percentile_reference(values, q)

    @given(values=latency_lists)
    @settings(max_examples=100, deadline=None)
    def test_tail_percentiles_share_one_sort(self, values):
        got = percentiles(values, TAIL_PERCENTILES)
        assert got == {
            q: _percentile_reference(values, q) for q in TAIL_PERCENTILES
        }

    def test_single_element(self):
        assert percentile([42.0], 99.9) == 42.0

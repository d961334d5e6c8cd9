"""RMI submodels."""

import warnings

import numpy as np
import pytest

from repro.learned.models import (
    MODEL_TYPES,
    CubicModel,
    LinearModel,
    LinearSplineModel,
    LogLinearModel,
    RadixModel,
    make_model,
)
from repro.learned.rmi import RMIIndex


def fit_on_line(model):
    keys = np.arange(0, 1000, 10, dtype=np.float64)
    pos = np.arange(100, dtype=np.float64)
    return model.fit(keys, pos), keys, pos


@pytest.mark.parametrize("name", sorted(MODEL_TYPES))
class TestAllModels:
    def test_fits_linear_data_well(self, name):
        if name == "loglinear":
            pytest.skip("log-space model; covered by its exponential-fit test")
        model, keys, pos = fit_on_line(make_model(name))
        pred = model.predict_batch(keys)
        assert np.max(np.abs(pred - pos)) < 5.0

    def test_scalar_matches_batch(self, name):
        model, keys, _ = fit_on_line(make_model(name))
        batch = model.predict_batch(keys[:20])
        for i in range(20):
            assert model.predict(float(keys[i])) == pytest.approx(
                batch[i], abs=1e-9
            )

    def test_monotone_on_fitted_range(self, name):
        rng = np.random.default_rng(0)
        keys = np.sort(rng.integers(0, 2**40, 500)).astype(np.float64)
        keys = np.unique(keys)
        pos = np.arange(len(keys), dtype=np.float64)
        model = make_model(name).fit(keys, pos)
        grid = np.linspace(keys[0], keys[-1], 1000)
        pred = model.predict_batch(grid)
        assert np.all(np.diff(pred) >= -1e-6)

    def test_params_are_floats(self, name):
        model, _, _ = fit_on_line(make_model(name))
        assert all(isinstance(p, float) for p in model.params())

    def test_empty_fit_safe(self, name):
        model = make_model(name).fit(np.array([]), np.array([]))
        assert np.isfinite(model.predict(5.0))


class TestLinearModel:
    def test_exact_on_line(self):
        m = LinearModel().fit(np.array([0.0, 10.0]), np.array([0.0, 5.0]))
        assert m.slope == pytest.approx(0.5)
        assert m.predict(20.0) == pytest.approx(10.0)

    def test_single_point(self):
        m = LinearModel().fit(np.array([7.0]), np.array([3.0]))
        assert m.predict(7.0) == pytest.approx(3.0)
        assert m.slope == 0.0

    def test_negative_slope_falls_back_to_monotone(self):
        # Pathological positions (decreasing); model must stay monotone.
        keys = np.array([0.0, 1.0, 2.0, 3.0])
        pos = np.array([3.0, 2.0, 1.0, 0.0])
        m = LinearModel().fit(keys, pos)
        assert m.slope >= 0.0

    def test_identical_keys(self):
        m = LinearModel().fit(np.array([5.0, 5.0]), np.array([0.0, 1.0]))
        assert m.slope == 0.0
        assert np.isfinite(m.predict(5.0))


class TestLinearSplineModel:
    def test_passes_through_endpoints(self):
        keys = np.array([10.0, 20.0, 100.0])
        pos = np.array([0.0, 9.0, 2.0])  # noisy middle
        m = LinearSplineModel().fit(keys, pos)
        assert m.predict(10.0) == pytest.approx(0.0, abs=1e-9)


class TestCubicModel:
    def test_fits_cubic_shape_better_than_linear(self):
        t = np.linspace(0.0, 1.0, 200)
        keys = t * 1000
        pos = 100 * (3 * t**2 - 2 * t**3)  # monotone S-curve
        cubic = CubicModel().fit(keys, pos)
        linear = LinearModel().fit(keys, pos)
        cubic_err = np.max(np.abs(cubic.predict_batch(keys) - pos))
        linear_err = np.max(np.abs(linear.predict_batch(keys) - pos))
        assert cubic_err < linear_err / 2

    def test_small_input_uses_fallback(self):
        m = CubicModel().fit(np.array([1.0, 2.0]), np.array([0.0, 1.0]))
        assert m._fallback is not None

    def test_keys_equal_in_float64_fall_back_quietly(self):
        """Ten consecutive keys from 2^63 are one double: the cubic has
        no spread to fit, so it is the linear model, with no warning."""
        keys = np.uint64(1 << 63) + np.arange(10, dtype=np.uint64)
        pos = np.arange(10, dtype=np.float64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = CubicModel().fit(keys, pos)
            rmi = RMIIndex(branching=4)
            rmi.build(keys)
        linear = LinearModel().fit(keys, pos)
        assert m._fallback is not None
        assert m.params() == tuple(linear.params()) + (0.0, 0.0)
        assert np.array_equal(m.predict_batch(keys), linear.predict_batch(keys))
        assert np.array_equal(
            rmi.root.predict_batch(keys), linear.predict_batch(keys)
        )
        for key in keys.tolist():
            bound = rmi.lookup(key)
            assert bound.lo <= keys.tolist().index(key) < bound.hi

    def test_nonmonotone_fit_falls_back(self):
        # Positions chosen so an unconstrained cubic would wiggle.
        keys = np.linspace(0, 100, 50)
        pos = np.concatenate([np.linspace(0, 40, 25), np.linspace(40, 41, 25)])
        m = CubicModel().fit(keys, pos)
        grid = np.linspace(0, 100, 500)
        pred = m.predict_batch(grid)
        assert np.all(np.diff(pred) >= -1e-6)


class TestLogLinearModel:
    def test_fits_exponential_gaps(self):
        keys = np.array([2.0**i for i in range(1, 40)])
        pos = np.arange(len(keys), dtype=np.float64)
        m = LogLinearModel().fit(keys, pos)
        err = np.max(np.abs(m.predict_batch(keys) - pos))
        assert err < 1.0

    def test_below_shift_clamped(self):
        m = LogLinearModel().fit(
            np.array([100.0, 200.0]), np.array([0.0, 1.0])
        )
        assert np.isfinite(m.predict(0.0))


class TestRadixModel:
    def test_uniform_is_exact(self):
        keys = np.linspace(0, 1000, 101)
        pos = np.arange(101, dtype=np.float64)
        m = RadixModel().fit(keys, pos)
        assert np.max(np.abs(m.predict_batch(keys) - pos)) < 1e-6

    def test_clamps_out_of_range(self):
        keys = np.linspace(0, 100, 11)
        pos = np.arange(11, dtype=np.float64)
        m = RadixModel().fit(keys, pos)
        assert m.predict(-50.0) == pytest.approx(0.0)
        assert m.predict(1e9) == pytest.approx(10.0)


def test_unknown_model_rejected():
    with pytest.raises(KeyError):
        make_model("perceptron")

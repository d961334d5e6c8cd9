"""Hilbert curve encoder."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.hilbert import hilbert_d_from_xy, hilbert_xy_from_d
import pytest


class TestHilbertBasics:
    def test_order_1_square(self):
        # Canonical order-1 curve: (0,0)=0 (1,0)=3 (0,1)=1 (1,1)=2.
        d = hilbert_d_from_xy(1, np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]))
        assert sorted(d.tolist()) == [0, 1, 2, 3]

    def test_bijective_small_grid(self):
        order = 4
        side = 1 << order
        xs, ys = np.meshgrid(np.arange(side), np.arange(side))
        d = hilbert_d_from_xy(order, xs.ravel(), ys.ravel())
        assert len(set(d.tolist())) == side * side
        assert int(d.max()) == side * side - 1

    def test_adjacent_distances_are_neighbors(self):
        """Defining property: consecutive d are grid neighbors."""
        order = 5
        d = np.arange((1 << order) ** 2)
        x, y = hilbert_xy_from_d(order, d)
        step = np.abs(np.diff(x)) + np.abs(np.diff(y))
        assert np.all(step == 1)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            hilbert_d_from_xy(3, np.array([8]), np.array([0]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            hilbert_d_from_xy(3, np.array([-1]), np.array([0]))

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            hilbert_d_from_xy(0, np.array([0]), np.array([0]))


class TestHilbertRoundtrip:
    @given(
        st.integers(1, 16),
        st.lists(st.integers(0, 2**16 - 1), min_size=1, max_size=30),
        st.lists(st.integers(0, 2**16 - 1), min_size=1, max_size=30),
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip(self, order, xs, ys):
        n = min(len(xs), len(ys))
        side = 1 << order
        x = np.array(xs[:n]) % side
        y = np.array(ys[:n]) % side
        d = hilbert_d_from_xy(order, x, y)
        rx, ry = hilbert_xy_from_d(order, d)
        assert np.array_equal(rx, x)
        assert np.array_equal(ry, y)

    def test_locality(self):
        """Nearby points in 2-D tend to be nearby on the curve (in
        aggregate) -- the property that makes osm hard but not random."""
        order = 10
        rng = np.random.default_rng(0)
        x = rng.integers(0, (1 << order) - 2, 500)
        y = rng.integers(0, (1 << order) - 2, 500)
        d_base = hilbert_d_from_xy(order, x, y).astype(np.float64)
        d_neighbor = hilbert_d_from_xy(order, x + 1, y).astype(np.float64)
        d_far = hilbert_d_from_xy(
            order, (x + 512) % (1 << order), y
        ).astype(np.float64)
        near_gap = np.median(np.abs(d_neighbor - d_base))
        far_gap = np.median(np.abs(d_far - d_base))
        assert near_gap < far_gap


def mask_loop_d_from_xy(order, x, y):
    """The rotate-and-accumulate loop over boolean masks that the
    table-driven encoder replaced: the oracle for its distances."""
    x = np.asarray(x, dtype=np.int64).copy()
    y = np.asarray(y, dtype=np.int64).copy()
    d = np.zeros(x.shape, dtype=np.uint64)
    s = (np.int64(1) << order) >> 1
    while s > 0:
        rx = ((x & s) > 0).astype(np.int64)
        ry = ((y & s) > 0).astype(np.int64)
        d += (np.uint64(s) * np.uint64(s)) * ((3 * rx) ^ ry).astype(np.uint64)
        swap = ry == 0
        flip = swap & (rx == 1)
        x_f = x[flip]
        y_f = y[flip]
        x[flip] = s - 1 - x_f
        y[flip] = s - 1 - y_f
        x_s = x[swap]
        x[swap] = y[swap]
        y[swap] = x_s
        s >>= 1
    return d


class TestTableEncoderEqualsMaskLoop:
    @pytest.mark.parametrize("order", range(1, 32))
    def test_random_points(self, order):
        side = 1 << order
        rng = np.random.default_rng(order)
        x = np.concatenate([[0, 0, side - 1, side - 1], rng.integers(0, side, 3_000)])
        y = np.concatenate([[0, side - 1, 0, side - 1], rng.integers(0, side, 3_000)])
        got = hilbert_d_from_xy(order, x, y)
        assert got.dtype == np.uint64
        assert np.array_equal(got, mask_loop_d_from_xy(order, x, y))

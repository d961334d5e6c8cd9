"""Grouped leaf fit: bit-identical to fitting one linear model per bucket.

``fit_linear_buckets`` fits every bucket of one length as a row of a 2-D
array.  The per-bucket loop below is the code it replaced in the RMI and
RMI3 builds; records are compared by their bytes, so a sign of zero or a
last-bit rounding difference fails.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.learned.models import fit_linear_buckets, make_model
from repro.learned.rmi import RMIIndex
from repro.learned.rmi3 import RMI3Index

from conftest import build


def reference_fit(keys, starts, ends, kind="linear"):
    """One ``make_model(kind)`` fit per bucket: (slope, intercept, error) rows."""
    positions = np.arange(len(keys), dtype=np.float64)
    rows = np.zeros((len(starts), 3))
    boundary = 0  # position just past the last non-empty bucket
    model = make_model(kind)
    for j, (lo, hi) in enumerate(zip(starts.tolist(), ends.tolist())):
        if lo == hi:
            rows[j] = (0.0, float(boundary), 1.0)
            continue
        model.fit(keys[lo:hi], positions[lo:hi])
        pred = model.predict_batch(keys[lo:hi])
        err = float(np.max(np.abs(pred - positions[lo:hi])))
        rows[j] = (model.slope, model.intercept, math.ceil(err) + 1.0)
        boundary = hi
    return rows


def bucket_ranges(ids, b):
    return (
        np.searchsorted(ids, np.arange(b), side="left"),
        np.searchsorted(ids, np.arange(b), side="right"),
    )


def route(pred, scale, b):
    return np.clip(np.floor(pred * scale), 0, b - 1).astype(np.int64)


def reference_rmi_records(idx, keys):
    b = idx.branching
    starts, ends = bucket_ranges(
        route(idx.root.predict_batch(keys), idx._route_scale, b), b
    )
    fit = reference_fit(keys, starts, ends, idx.stage2_type)
    return np.column_stack((fit, starts, ends)).ravel()


def reference_rmi3_records(idx, keys):
    b_mid, b_leaf = idx.mid_branching, idx.branching
    mid_ids = route(idx.root.predict_batch(keys), idx._mid_scale, b_mid)
    starts, ends = bucket_ranges(mid_ids, b_mid)
    mid = reference_fit(keys, starts, ends)
    mid_records = np.column_stack((mid[:, :2], starts, ends)).ravel()
    slope, intercept, lo, hi = mid_records.reshape(-1, 4)[mid_ids].T
    mid_pred = np.clip(slope * keys + intercept, lo, hi)
    lstarts, lends = bucket_ranges(route(mid_pred, idx._leaf_scale, b_leaf), b_leaf)
    leaf = reference_fit(keys, lstarts, lends)
    return mid_records, np.column_stack((leaf, lstarts, lends)).ravel()


@st.composite
def sorted_keys(draw, max_size=300):
    """Sorted unique uint64 keys, some packed in a run above 2**53.

    Neighbouring keys in that run round to one float64, so buckets of
    several keys with zero variance (the ``var_x <= 0`` case) appear.
    """
    base = draw(st.integers(2**53, 2**64 - 1 - 2**10))
    keys = draw(
        st.lists(
            st.one_of(
                st.integers(0, 2**64 - 1), st.integers(base, base + 2**10)
            ),
            min_size=2,
            max_size=max_size,
            unique=True,
        )
    )
    return np.array(sorted(keys), dtype=np.uint64)


@st.composite
def bucketed_keys(draw, keys=sorted_keys()):
    """(float64 keys, starts, ends) over 1..4096 buckets.

    The keys fill a prefix of the buckets, so a short prefix packs many
    keys per bucket and a long one leaves single-key and empty buckets.
    """
    keys = draw(keys).astype(np.float64)
    b = draw(st.integers(1, 4096))
    top = draw(st.integers(0, b - 1))
    n = len(keys)
    ids = sorted(draw(st.lists(st.integers(0, top), min_size=n, max_size=n)))
    return (keys,) + bucket_ranges(np.array(ids, dtype=np.int64), b)


class TestFitLinearBuckets:
    @pytest.mark.parametrize("kind", ["linear", "linear_spline"])
    @given(case=bucketed_keys())
    @settings(max_examples=60, deadline=None)
    def test_matches_per_bucket_fit(self, kind, case):
        keys, starts, ends = case
        got = np.column_stack(fit_linear_buckets(keys, starts, ends, kind))
        assert got.tobytes() == reference_fit(keys, starts, ends, kind).tobytes()

    @given(
        case=bucketed_keys(
            keys=st.lists(
                st.floats(-(2.0**64), 2.0**64), min_size=1, max_size=300
            ).map(np.array)
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_on_unsorted_keys(self, case):
        # Unsorted keys drive the regression slope negative, so the
        # endpoint-spline fallback runs on some rows.
        keys, starts, ends = case
        got = np.column_stack(fit_linear_buckets(keys, starts, ends))
        assert got.tobytes() == reference_fit(keys, starts, ends).tobytes()

    def test_negative_slope_falls_back_to_the_endpoint_spline(self):
        keys = np.array([1.0, 10.0, 0.0, 0.0, 2.0, 3.0, 2.0])
        slopes, intercepts, _ = fit_linear_buckets(
            keys, np.array([0, 5]), np.array([5, 7])
        )
        assert slopes.tolist() == [4.0, 0.0]
        assert intercepts.tolist() == [-4.0, 5.0]

    def test_empty_and_single_key_buckets(self):
        keys = np.array([5.0, 9.0, 12.0, 40.0])
        starts = np.array([0, 0, 1, 1, 3, 4])
        ends = np.array([0, 1, 1, 3, 4, 4])
        slopes, intercepts, errors = fit_linear_buckets(keys, starts, ends)
        assert intercepts[[0, 2, 5]].tolist() == [0.0, 1.0, 4.0]
        assert slopes[[0, 1, 2, 4, 5]].tolist() == [0.0] * 5
        assert intercepts[[1, 4]].tolist() == [0.0, 3.0]
        assert errors[[0, 1, 2, 4, 5]].tolist() == [1.0] * 5

    def test_collapsed_keys_take_the_mean_position(self):
        keys = np.array([2**60, 2**60 + 1, 2**60 + 2], dtype=np.uint64)
        slopes, intercepts, _ = fit_linear_buckets(
            keys.astype(np.float64), np.array([0]), np.array([3])
        )
        assert (slopes[0], intercepts[0]) == (0.0, 1.0)


class TestRMIRecords:
    @pytest.mark.parametrize("stage2", ["linear", "linear_spline"])
    @given(keys=sorted_keys(), b=st.integers(1, 4096))
    @settings(max_examples=40, deadline=None)
    def test_rmi_property(self, stage2, keys, b):
        idx = RMIIndex(branching=b, stage2=stage2).build(keys)
        expected = reference_rmi_records(idx, keys.astype(np.float64))
        assert idx._records.values.tobytes() == expected.tobytes()

    @given(keys=sorted_keys(), b=st.integers(1, 4096), b_mid=st.integers(1, 256))
    @settings(max_examples=40, deadline=None)
    def test_rmi3_property(self, keys, b, b_mid):
        idx = RMI3Index(branching=b, mid_branching=b_mid).build(keys)
        mid, leaves = reference_rmi3_records(idx, keys.astype(np.float64))
        assert idx._mid.values.tobytes() == mid.tobytes()
        assert idx._leaves.values.tobytes() == leaves.tobytes()

    @pytest.mark.parametrize("b", [1, 16, 1024])
    def test_dataset_buckets(self, all_datasets_small, b):
        # Few leaves over 4,000 keys: rows of thousands of keys.
        for name, ds in all_datasets_small.items():
            keys = ds.keys.astype(np.float64)
            for stage2 in ("linear", "linear_spline"):
                idx = build("RMI", ds, branching=b, stage2=stage2)
                expected = reference_rmi_records(idx, keys)
                assert idx._records.values.tobytes() == expected.tobytes(), name
            idx = build("RMI3", ds, branching=b, mid_branching=max(b // 16, 1))
            mid, leaves = reference_rmi3_records(idx, keys)
            assert idx._mid.values.tobytes() == mid.tobytes(), name
            assert idx._leaves.values.tobytes() == leaves.tobytes(), name

    @pytest.mark.parametrize("b", [1, 2])
    def test_rows_longer_than_numpy_buffer(self, b):
        # numpy reduces in 8,192-element chunks; rows here are longer.
        rng = np.random.default_rng(b)
        keys = np.unique(rng.integers(0, 2**64 - 1, 20_000, dtype=np.uint64))
        for stage2 in ("linear", "linear_spline"):
            idx = RMIIndex(branching=b, stage1="linear", stage2=stage2).build(keys)
            expected = reference_rmi_records(idx, keys.astype(np.float64))
            assert idx._records.values.tobytes() == expected.tobytes()

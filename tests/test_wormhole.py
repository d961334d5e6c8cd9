"""Wormhole."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.validation import validate_index
from repro.traditional.wormhole import WormholeIndex
from repro.memsim import PerfTracer

from conftest import build


class TestWormholeValidity:
    @pytest.mark.parametrize("gap", [1, 4, 32])
    def test_valid_on_all_datasets(self, all_datasets_small, gap):
        for name, ds in all_datasets_small.items():
            idx = build("Wormhole", ds, gap=gap)
            probes = list(ds.keys[::39]) + [0, 2**64 - 1]
            assert validate_index(idx, probes) is None, name

    def test_valid_on_absent_keys(self, amzn_small, amzn_workload):
        idx = build("Wormhole", amzn_small, gap=2)
        assert validate_index(idx, amzn_workload.keys_py) is None

    def test_extreme_probes(self, amzn_small, extreme_probe_keys):
        idx = build("Wormhole", amzn_small, gap=2)
        assert validate_index(idx, extreme_probe_keys) is None

    @given(
        st.lists(st.integers(0, 2**64 - 1), min_size=2, max_size=200, unique=True),
        st.integers(0, 2**64 - 1),
        st.sampled_from([2, 8]),
    )
    @settings(max_examples=50, deadline=None)
    def test_validity_property(self, keys, probe, leaf_size):
        keys.sort()
        idx = WormholeIndex(gap=1, leaf_size=leaf_size).build(
            np.array(keys, dtype=np.uint64)
        )
        assert validate_index(idx, [probe]) is None


class TestWormholeStructure:
    def test_prefix_map_contains_all_anchor_prefixes(self, amzn_small):
        idx = build("Wormhole", amzn_small, gap=4, leaf_size=32)
        for leaf, anchor in enumerate(idx._anchors.as_list()[:50]):
            for length in range(9):
                prefix = anchor >> (8 * (8 - length))
                lo, hi = idx._map[(length, prefix)]
                assert lo <= leaf <= hi

    def test_probe_count_logarithmic_in_key_width(self, amzn_small):
        """Wormhole's selling point: O(log key-length) hash probes."""
        idx = build("Wormhole", amzn_small, gap=1, leaf_size=64)
        t = PerfTracer()
        n_lookups = 100
        for key in amzn_small.keys[:n_lookups]:
            idx.lookup(int(key), t)
        # 8-byte keys: binary search over lengths 0..8 needs <= 4 probes,
        # 16 bytes each; total reads dominated by the in-leaf search.
        assert t.counters.reads / n_lookups < 25

    def test_leaf_size_tradeoff(self, amzn_small):
        small_leaves = build("Wormhole", amzn_small, gap=1, leaf_size=8)
        big_leaves = build("Wormhole", amzn_small, gap=1, leaf_size=256)
        assert small_leaves.size_bytes() > big_leaves.size_bytes()

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            WormholeIndex(leaf_size=1)

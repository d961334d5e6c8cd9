"""CuckooMap and RobinHash."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.validation import validate_index
from repro.hashing.cuckoo import CuckooMapIndex, kick_draws
from repro.hashing.robinhood import _MASK64, _MULT, RobinHashIndex
from repro.memsim import AddressSpace, PerfTracer, TracedArray

from conftest import build
from robinhash_reference import LoopRobinHash


def build32(cls, keys32, **kw):
    space = AddressSpace()
    data = TracedArray.allocate(space, np.asarray(keys32, dtype=np.uint32))
    return cls(**kw).build(data, space)


class TestRobinHash:
    def test_all_present_keys_exact(self, amzn_small):
        idx = build("RobinHash", amzn_small)
        for i in range(0, len(amzn_small.keys), 97):
            bound = idx.lookup(int(amzn_small.keys[i]))
            assert (bound.lo, bound.hi) == (i, i + 1)

    def test_point_only_flag(self):
        assert RobinHashIndex.point_only is True

    def test_absent_key_returns_full_bound(self, amzn_small):
        idx = build("RobinHash", amzn_small)
        absent = int(amzn_small.keys[0]) + 1
        if absent in set(amzn_small.keys.tolist()):
            absent += 1
        bound = idx.lookup(absent)
        assert bound.lo == 0 and bound.hi == len(amzn_small.keys) + 1

    def test_validate_present_only(self, amzn_small, amzn_workload):
        idx = build("RobinHash", amzn_small)
        assert (
            validate_index(idx, amzn_workload.keys_py, require_present=True)
            is None
        )

    def test_load_factor_controls_size(self, amzn_small):
        dense = build("RobinHash", amzn_small, load_factor=0.9)
        sparse = build("RobinHash", amzn_small, load_factor=0.25)
        assert sparse.size_bytes() > 2 * dense.size_bytes()

    def test_few_probes_at_low_load(self, amzn_small):
        idx = build("RobinHash", amzn_small, load_factor=0.25)
        t = PerfTracer()
        n = 200
        for key in amzn_small.keys[:n]:
            idx.lookup(int(key), t)
        assert t.counters.reads / n < 2.0  # ~1.15 probes at load 0.25

    def test_bad_load_factor(self):
        with pytest.raises(ValueError):
            RobinHashIndex(load_factor=0.99)

    @given(st.lists(st.integers(0, 2**64 - 2), min_size=1, max_size=300, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, keys):
        keys.sort()
        idx = RobinHashIndex().build(np.array(keys, dtype=np.uint64))
        for i in (0, len(keys) // 2, len(keys) - 1):
            bound = idx.lookup(keys[i])
            assert bound.lo == i


_INV = pow(_MULT, -1, 1 << 64)


def _key_hashing_to(product: int) -> int:
    """The key whose hash product (key * _MULT mod 2^64) is ``product``."""
    return (product * _INV) & _MASK64


# Any key, the extremes, or keys crowded into a few homes: 0/1 at the
# table's start, 127 mid-table, 254/255 at its end, where a run wraps
# past the last slot.
_ROBIN_KEYS = st.one_of(
    st.integers(0, _MASK64),
    st.sampled_from([0, _MASK64]),
    st.tuples(
        st.sampled_from([0, 1, 127, 254, 255]), st.integers(0, (1 << 56) - 1)
    ).map(lambda t: _key_hashing_to(t[0] << 56 | t[1])),
)


class TestRobinHashLayout:
    """The numpy table equals inserting one key at a time, slot for slot."""

    @staticmethod
    def assert_same_table(keys, load_factor):
        keys = np.array(sorted(keys), dtype=np.uint64)
        built = RobinHashIndex(load_factor).build(keys)
        oracle = LoopRobinHash(load_factor).build(keys)
        assert built._capacity == oracle._capacity
        assert np.array_equal(built._pos, oracle._pos)
        assert np.array_equal(built._keys, oracle._keys)
        return built

    @given(
        keys=st.sets(_ROBIN_KEYS, min_size=1, max_size=300),
        load_factor=st.floats(0.05, 0.97),
    )
    @settings(max_examples=200, deadline=None)
    def test_numpy_table_equals_insertion_loop(self, keys, load_factor):
        self.assert_same_table(keys, load_factor)

    def test_run_wrapping_past_the_last_slot(self):
        """Eleven keys homed in the last slot of 16 fill it and wrap."""
        keys = [_key_hashing_to(15 << 60 | i) for i in range(11)]
        built = self.assert_same_table(keys, 0.9)
        assert built._capacity == 16
        assert (built._pos[:10] >= 0).all() and built._pos[10] == -1
        assert built._pos[15] >= 0

    def test_rotated_tie_group_is_reinserted(self, monkeypatch):
        """Two keys homed at slot 5, then two homed at slot 4, in key
        order.  The last one passes the first at slot 4, takes slot 5
        and carries the group's first member past the second: the sorted
        layout alone would keep them in insertion order."""
        from repro.hashing import robinhood

        redone = []
        real = robinhood._reinsert
        monkeypatch.setattr(
            robinhood, "_reinsert",
            lambda order, home: redone.append(len(order)) or real(order, home),
        )
        # A table of 8 slots homes a key by its product's top 3 bits.
        at5 = sorted(_key_hashing_to(5 << 61 | i) for i in range(1, 100))
        at4 = sorted(_key_hashing_to(4 << 61 | i) for i in range(1, 100))
        keys = at5[:2] + at4[-2:]
        assert keys == sorted(keys)
        built = self.assert_same_table(keys, 0.5)
        assert built._capacity == 8
        assert built._pos[4:].tolist() == [2, 3, 1, 0]
        assert redone == [4]


class TestCuckooMap:
    def test_all_present_keys_exact(self):
        rng = np.random.default_rng(3)
        keys = np.unique(rng.integers(0, 1 << 32, 5_000, dtype=np.int64)).astype(
            np.uint32
        )
        idx = build32(CuckooMapIndex, keys)
        for i in range(0, len(keys), 71):
            bound = idx.lookup(int(keys[i]))
            assert (bound.lo, bound.hi) == (i, i + 1)

    def test_block_draws_equal_live_calls(self):
        """Kicks read ``integers(0, 2)`` and ``integers(0, 4)`` from
        pre-drawn 32-bit blocks: the same values as live calls, past a
        block boundary.  A numpy that changes how those calls draw fails
        here before it moves a table."""
        live = np.random.default_rng(7)
        draws = kick_draws(np.random.default_rng(7))
        kicks = 40_000  # 80,000 draws: past the first 65,536-draw block
        expected = [
            (int(live.integers(0, 2)), int(live.integers(0, 4)))
            for _ in range(kicks)
        ]
        assert [
            (next(draws) >> 31, next(draws) >> 30) for _ in range(kicks)
        ] == expected

    def test_rejects_64bit_keys(self, amzn_small):
        with pytest.raises(ValueError):
            build("CuckooMap", amzn_small)

    def test_high_load_factor_achieved(self):
        rng = np.random.default_rng(5)
        keys = np.unique(rng.integers(0, 1 << 32, 8_000, dtype=np.int64)).astype(
            np.uint32
        )
        idx = build32(CuckooMapIndex, keys, load_factor=0.99)
        slots = idx._n_buckets * 4
        assert len(keys) / slots > 0.90  # rebuild growth is bounded

    def test_at_most_two_bucket_reads(self):
        rng = np.random.default_rng(7)
        keys = np.unique(rng.integers(0, 1 << 32, 2_000, dtype=np.int64)).astype(
            np.uint32
        )
        idx = build32(CuckooMapIndex, keys)
        t = PerfTracer()
        n = 200
        for key in keys[:n]:
            idx.lookup(int(key), t)
        # <= 2 bucket reads + 1 value read per lookup.
        assert t.counters.reads / n <= 3.0

    def test_absent_key_full_bound(self):
        keys = np.array([10, 20, 30], dtype=np.uint32)
        idx = build32(CuckooMapIndex, keys)
        bound = idx.lookup(15)
        assert bound.lo == 0 and bound.hi == 4

    @given(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=300, unique=True))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, keys):
        keys.sort()
        idx = build32(CuckooMapIndex, np.array(keys, dtype=np.uint32))
        for i in (0, len(keys) // 2, len(keys) - 1):
            bound = idx.lookup(keys[i])
            assert bound.lo == i

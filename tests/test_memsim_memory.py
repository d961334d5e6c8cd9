"""AddressSpace and TracedArray."""

import numpy as np
import pytest

from repro.memsim.memory import AddressSpace, TracedArray
from repro.memsim.tracer import NULL_TRACER, PerfTracer

from conftest import mirror_built


class TestAddressSpace:
    def test_alignment(self):
        s = AddressSpace()
        a = s.alloc(10)
        b = s.alloc(10)
        assert a % 64 == 0
        assert b % 64 == 0
        assert b >= a + 10

    def test_no_overlap(self):
        s = AddressSpace()
        regions = [(s.alloc(100), 100) for i in range(20)]
        for i, (base, size) in enumerate(regions):
            for other_base, other_size in regions[i + 1 :]:
                assert base + size <= other_base or other_base + other_size <= base

    def test_total_allocated(self):
        s = AddressSpace()
        s.alloc(100)
        s.alloc(28)
        assert s.total_allocated() == 128

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            AddressSpace().alloc(-1)


class TestTracedArray:
    def test_get_returns_values(self):
        s = AddressSpace()
        arr = TracedArray.allocate(s, np.array([10, 20, 30], dtype=np.uint64))
        assert arr.get(1, NULL_TRACER) == 20
        assert len(arr) == 3

    def test_get_returns_python_ints(self):
        s = AddressSpace()
        arr = TracedArray.allocate(s, np.array([2**63], dtype=np.uint64))
        v = arr.get(0, NULL_TRACER)
        assert isinstance(v, int)
        assert v == 2**63

    def test_addr_spacing_matches_itemsize(self):
        s = AddressSpace()
        arr = TracedArray.allocate(s, np.zeros(4, dtype=np.uint32))
        assert arr.addr(1) - arr.addr(0) == 4

    def test_adjacent_elements_share_cache_line(self):
        s = AddressSpace()
        arr = TracedArray.allocate(s, np.zeros(16, dtype=np.uint64))
        t = PerfTracer()
        arr.get(0, t)
        misses = t.counters.llc_misses
        arr.get(1, t)  # same line
        assert t.counters.llc_misses == misses

    def test_distant_elements_different_lines(self):
        s = AddressSpace()
        arr = TracedArray.allocate(s, np.zeros(64, dtype=np.uint64))
        t = PerfTracer()
        arr.get(0, t)
        misses = t.counters.llc_misses
        arr.get(16, t)  # 128 bytes away
        assert t.counters.llc_misses > misses

    def test_get_block_single_read(self):
        s = AddressSpace()
        arr = TracedArray.allocate(s, np.arange(10, dtype=np.float64))
        t = PerfTracer()
        block = arr.get_block(2, 3, t)
        assert block == [2.0, 3.0, 4.0]
        assert t.counters.reads == 1

    def test_nbytes(self):
        s = AddressSpace()
        arr = TracedArray.allocate(s, np.zeros(10, dtype=np.uint64))
        assert arr.nbytes == 80

    def test_rejects_2d(self):
        s = AddressSpace()
        with pytest.raises(ValueError):
            TracedArray(np.zeros((2, 2)), 0)

    def test_touch_charges_read(self):
        s = AddressSpace()
        arr = TracedArray.allocate(s, np.zeros(4, dtype=np.uint64))
        t = PerfTracer()
        arr.touch(0, t)
        assert t.counters.reads == 1


class TestListMirror:
    @pytest.mark.parametrize("dtype", [np.uint64, np.uint32, np.float64])
    def test_reads_match_values(self, dtype):
        values = np.array([0, 7, 2**31, 12], dtype=dtype)
        if dtype is np.uint64:
            values[2] = 2**64 - 1
        expected = values.tolist()
        arr = TracedArray.allocate(AddressSpace(), values)
        got = [arr.get(i, NULL_TRACER) for i in range(4)]
        assert got == expected
        assert [type(v) for v in got] == [type(v) for v in expected]
        assert [arr.get_untraced(i) for i in range(4)] == expected
        assert arr.get_block(1, 3, NULL_TRACER) == expected[1:]

    def test_len_and_touch_build_nothing(self):
        arr = TracedArray.allocate(AddressSpace(), np.arange(5, dtype=np.uint64))
        assert len(arr) == 5
        arr.touch(3, PerfTracer())
        assert not mirror_built(arr)

    @pytest.mark.parametrize(
        "read",
        [
            lambda arr: arr.get(1, NULL_TRACER),
            lambda arr: arr.get_untraced(1),
            lambda arr: arr.get_block(1, 2, NULL_TRACER),
            TracedArray.as_list,
        ],
        ids=["get", "get_untraced", "get_block", "as_list"],
    )
    def test_first_read_builds_the_mirror_once(self, read):
        arr = TracedArray.allocate(AddressSpace(), np.arange(5, dtype=np.uint64))
        read(arr)
        assert mirror_built(arr)
        mirror = arr.as_list()
        assert mirror == [0, 1, 2, 3, 4]
        arr.get(0, NULL_TRACER)
        assert arr.as_list() is mirror

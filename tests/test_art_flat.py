"""The flat numpy ART builder against the recursive oracle.

``art_reference.RecursiveART`` is the original builder: one ``np.unique``
split and one node object per trie node.  For random key sets the flat
builder must give the same trie (node by node, each at the same
address), the same next free address, the same size, and the same
tracer event stream for every lookup.  ``AddressSpace.alloc_many`` must
equal the ``alloc`` calls it replaces.
"""

from __future__ import annotations

import numpy as np
import pytest
from art_reference import RecursiveART
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim.memory import AddressSpace
from repro.memsim.trace import TraceRecorder
from repro.traditional.art import ARTIndex, _Lists


def flat_walk(idx: ARTIndex):
    """Pre-order (addr, kind, prefix, child bytes, leaf index) tuples."""
    t = _Lists(idx)  # every trie array, as the scalar lookup reads it
    stack = [idx._root]
    while stack:
        node = stack.pop()
        if node < 0:
            yield (t.leaf_addr[~node], "leaf", b"", b"", ~node)
            continue
        lo, hi = t.first_child[node], t.first_child[node + 1]
        yield (
            t.node_addr[node],
            t.cap[node],
            t.prefix[node],
            t.child_bytes[lo:hi],
            -1,
        )
        stack.extend(reversed(t.child_ids[lo:hi]))


def events(idx, key):
    recorder = TraceRecorder()
    bound = idx.lookup(key, recorder)
    trace = recorder.finish()
    return (bound.lo, bound.hi), trace.lists()


def build_both(keys, gap, sampling, base):
    out = []
    for cls in (RecursiveART, ARTIndex):
        space = AddressSpace(base)
        out.append((cls(gap=gap, sampling=sampling).build(keys, space), space))
    return out


key_sets = st.sampled_from([32, 64]).flatmap(
    lambda bits: st.tuples(
        st.just(bits),
        st.lists(
            st.one_of(
                st.integers(0, 2**bits - 1),
                # Clustered keys share long prefixes and build deep tries.
                st.integers(0, 2**12).map(lambda k: 2 ** (bits - 1) + k),
            ),
            min_size=1,
            max_size=300,
            unique=True,
        ),
    )
)


class TestFlatMatchesRecursive:
    @given(
        key_sets,
        st.integers(1, 8),
        st.sampled_from(["uniform", "adaptive"]),
        st.integers(0, 5000),
        st.lists(st.integers(0, 2**64 + 5), max_size=20),
    )
    @settings(max_examples=150, deadline=None)
    def test_same_trie_space_and_lookups(self, key_set, gap, sampling, base, absent):
        bits, keys = key_set
        keys = np.array(sorted(keys), dtype=np.uint32 if bits == 32 else np.uint64)
        (ref, ref_space), (flat, flat_space) = build_both(keys, gap, sampling, base)

        # The walks carry every node's and leaf's address.
        assert list(flat_walk(flat)) == list(ref.walk())
        assert flat_space._next == ref_space._next
        assert flat.size_bytes() == ref.size_bytes()
        assert flat._extra_bytes == ref._extra_bytes

        top = 2**bits
        probes = keys.tolist()[::3] + absent
        probes += [0, 1, top - 1, top, top + 1, 2**64 - 1, 2**64, -1]
        for key in probes:
            assert events(flat, key) == events(ref, key), key

    def test_single_key_trie_is_one_leaf(self):
        keys = np.array([42], dtype=np.uint64)
        (ref, ref_space), (flat, flat_space) = build_both(keys, 1, "uniform", 1 << 20)
        assert flat._root == ~0
        # The data array sits at the base; the one 16-byte leaf follows.
        assert list(flat_walk(flat)) == list(ref.walk())
        assert list(flat_walk(flat)) == [((1 << 20) + 64, "leaf", b"", b"", 0)]
        assert flat_space._next == ref_space._next == (1 << 20) + 64 + 16
        assert flat.size_bytes() == ref.size_bytes()
        for key in (0, 41, 42, 43, 2**64):
            assert events(flat, key) == events(ref, key)

    def test_dataset_scale(self, all_datasets_small):
        for name, ds in all_datasets_small.items():
            for gap in (1, 8):
                (ref, ref_space), (flat, flat_space) = build_both(
                    ds.keys, gap, "uniform", 1 << 20
                )
                assert list(flat_walk(flat)) == list(ref.walk()), name
                assert flat_space._next == ref_space._next, name
                assert flat.size_bytes() == ref.size_bytes(), name
                for key in ds.keys[::97].tolist():
                    assert events(flat, key) == events(ref, key), name


class TestAllocMany:
    @given(
        st.integers(0, 10_000),
        st.lists(st.integers(0, 5000), max_size=50),
        st.integers(0, 3),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_sequential_alloc(self, start, sizes, prior):
        one_by_one, batched = AddressSpace(start), AddressSpace(start)
        for space in (one_by_one, batched):
            for k in range(prior):
                space.alloc(7 * k + 3)
        expected = [one_by_one.alloc(s) for s in sizes]
        assert batched.alloc_many(sizes).tolist() == expected
        assert batched._next == one_by_one._next
        assert batched.total_allocated() == one_by_one.total_allocated()

    def test_accepts_numpy_sizes(self):
        space = AddressSpace(0)
        bases = space.alloc_many(np.array([16, 56, 16]))
        assert bases.dtype == np.int64 and bases.tolist() == [0, 64, 128]
        assert type(space._next) is int and space._next == 144
        assert type(space.total_allocated()) is int
        assert space.total_allocated() == 88

    def test_negative_size_reserves_nothing(self):
        space = AddressSpace(0)
        with pytest.raises(ValueError):
            space.alloc_many([8, -1])
        assert space._next == 0 and space.total_allocated() == 0

    def test_length_mismatch_rejected(self):
        """Sizes must be one flat sequence (one block per entry); a
        nested one, e.g. (size, name)-style rows, reserves nothing."""
        space = AddressSpace(0)
        with pytest.raises(ValueError):
            space.alloc_many([[8, 16], [24, 32]])
        assert space._next == 0 and space.total_allocated() == 0

"""Wormhole (Wu et al., EuroSys'19): ordered index via prefix hashing.

Wormhole stores sorted leaf nodes and locates the leaf responsible for a
key with a *MetaTrieHash*: a hash table over every prefix of every leaf
anchor key, searched by binary search on prefix *length* -- O(log L) hash
probes instead of O(log n) comparisons.  We reproduce that structure over
the sampled keys: fixed-size leaves, anchors = each leaf's first key, and
a prefix hash mapping each byte-prefix to the contiguous range of leaves
whose anchors share it.

A lookup binary-searches the prefix length for the longest prefix of the
key present in the hash (3-4 probes for 8-byte keys), then resolves the
exact leaf with a short anchor search and finishes inside the leaf.
"""

from __future__ import annotations

from typing import Dict, Tuple



from repro.core.interface import Capabilities
from repro.core.registry import register_index
from repro.memsim.memory import AddressSpace, TracedArray
from repro.memsim.tracer import Tracer
from repro.traditional.base import SampledIndex, sample_keys

_HASH_INSTR = 10  # multiply-shift hash + compare
_ENTRY_BYTES = 16
_SEARCH_STEP_INSTR = 5


@register_index
class WormholeIndex(SampledIndex):
    """Wormhole over every ``gap``-th key."""

    name = "Wormhole"
    capabilities = Capabilities(
        updates=True, ordered=True, kind="Hybrid hash/trie"
    )

    def __init__(self, gap: int = 1, leaf_size: int = 64):
        super().__init__(gap)
        if leaf_size < 2:
            raise ValueError("leaf_size must be >= 2")
        self.leaf_size = int(leaf_size)
        self._width = 8
        self._map: Dict[Tuple[int, int], Tuple[int, int]] = {}
        self._anchors: TracedArray = None
        self._samples: TracedArray = None
        self._hash_base = 0
        self._n_buckets = 1

    # -- construction -----------------------------------------------------

    def _build(self, data: TracedArray, space: AddressSpace) -> None:
        samples = sample_keys(data, self.gap)
        self._n_samples = len(samples)
        self._width = samples.dtype.itemsize
        anchors = samples[:: self.leaf_size]

        self._samples = self._register(
            TracedArray.allocate(space, samples, name="wormhole.samples")
        )
        self._anchors = self._register(
            TracedArray.allocate(space, anchors, name="wormhole.anchors")
        )

        # MetaTrieHash: (prefix_len, prefix) -> [min_leaf, max_leaf].
        self._map = {}
        for leaf, anchor in enumerate(self._anchors.as_list()):
            for length in range(self._width + 1):
                prefix = anchor >> (8 * (self._width - length))
                entry = self._map.get((length, prefix))
                if entry is None:
                    self._map[(length, prefix)] = (leaf, leaf)
                else:
                    self._map[(length, prefix)] = (entry[0], leaf)

        # Simulated open-addressed table at load factor ~0.75.
        self._n_buckets = max(int(len(self._map) / 0.75), 4)
        self._hash_base = space.alloc(self._n_buckets * _ENTRY_BYTES)
        self._register_bytes(self._n_buckets * _ENTRY_BYTES)

    # -- lookup ------------------------------------------------------------

    def _probe(self, length: int, key: int, tracer: Tracer) -> Tuple[int, int]:
        """One charged hash probe; returns the leaf range or None."""
        prefix = key >> (8 * (self._width - length))
        slot = ((prefix * 0x9E3779B97F4A7C15 + length) & ((1 << 61) - 1)) % (
            self._n_buckets
        )
        tracer.instr(_HASH_INSTR)
        tracer.read(self._hash_base + slot * _ENTRY_BYTES, _ENTRY_BYTES)
        return self._map.get((length, prefix))

    def _predecessor(self, key: int, tracer: Tracer) -> int:
        if key >= (1 << (8 * self._width)):
            key = (1 << (8 * self._width)) - 1
        # Binary search on prefix length for the longest present prefix.
        lo_len, hi_len = 0, self._width
        best_range = self._map[(0, 0)]
        while lo_len < hi_len:
            mid = (lo_len + hi_len + 1) // 2
            entry = self._probe(mid, key, tracer)
            tracer.branch("wormhole.len", entry is not None)
            if entry is not None:
                best_range = entry
                lo_len = mid
            else:
                hi_len = mid - 1

        min_leaf, max_leaf = best_range
        # The predecessor anchor is within [min_leaf - 1, max_leaf]:
        # anchors before min_leaf have strictly smaller prefixes, anchors
        # after max_leaf strictly larger ones.
        anchors = self._anchors
        left = max(min_leaf - 1, 0)
        right = min(max_leaf + 1, len(anchors))
        while left < right:
            mid = (left + right) // 2
            tracer.instr(_SEARCH_STEP_INSTR)
            goes_right = anchors.get(mid, tracer) <= key
            tracer.branch("wormhole.anchor", goes_right)
            if goes_right:
                left = mid + 1
            else:
                right = mid
        leaf = left - 1
        if leaf < 0:
            return -1

        # In-leaf predecessor search over the sampled keys.
        samples = self._samples
        s_lo = leaf * self.leaf_size
        s_hi = min(s_lo + self.leaf_size, len(samples))
        left, right = s_lo, s_hi
        while left < right:
            mid = (left + right) // 2
            tracer.instr(_SEARCH_STEP_INSTR)
            goes_right = samples.get(mid, tracer) <= key
            tracer.branch("wormhole.leaf", goes_right)
            if goes_right:
                left = mid + 1
            else:
                right = mid
        return left - 1

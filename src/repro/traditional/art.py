"""Adaptive radix tree (ART), Leis et al. / ICDE'13.

A byte-wise radix trie over the sampled keys with the four adaptive node
kinds of the paper (Node4 / Node16 / Node48 / Node256), path compression,
and lazy expansion (single-key subtrees become leaves immediately).  Keys
are indexed big-endian, one byte per level; 32-bit data gives a 4-level
trie (the tree-structure gain in the paper's Figure 10).

Construction is a single pass over the sorted samples.  One numpy
comparison gives the byte-LCP (length of the common leading bytes) of
every pair of adjacent samples; the LCP of any two samples is the minimum
of the adjacent LCPs between them, so a node that splits at byte ``d``
owns a maximal run of samples whose adjacent LCPs are all ``>= d``.  A
stack of open nodes turns the LCP sequence into the path-compressed trie,
closing nodes in post-order, and one aligned bump
(:meth:`AddressSpace.alloc_many`) then gives every leaf and node its
address.  The trie is stored flat, without a Python object per node:
internal nodes are indexes into per-node lists (prefix, kind, address,
child range) whose children live in two shared arrays (child ids, child
bytes); leaf ``j`` is the id ``~j``, with its key and address in
per-sample lists.

Lookups are *predecessor* searches (largest sampled key <= lookup key):
the descent tracks the byte-wise comparison exactly, and on divergence
either finishes at the current subtree's rightmost leaf (when the lookup
key exceeds the whole subtree) or at the rightmost leaf of the largest
smaller sibling recorded on the way down.  Every node visit charges the
tracer for the header/prefix read, the child-array search and the child
pointer read, with node memory footprints from the ART paper.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Optional

import numpy as np

from repro.core.interface import Capabilities
from repro.core.registry import register_index
from repro.memsim.memory import AddressSpace, TracedArray
from repro.memsim.tracer import Tracer
from repro.traditional.base import SampledIndex, sample_keys

_HEADER = 16  # type/prefix-length/prefix bytes

# (max children, bytes) per node kind, following the ART paper's layouts.
_KINDS = (
    (4, _HEADER + 4 + 4 * 8),
    (16, _HEADER + 16 + 16 * 8),
    (48, _HEADER + 256 + 48 * 8),
    (256, _HEADER + 256 * 8),
)
_LEAF_BYTES = 16  # full key + sampled index


def _kind_for(n_children: int):
    for cap, size in _KINDS:
        if n_children <= cap:
            return cap, size
    raise AssertionError("more than 256 children is impossible")


_CAP_BY_COUNT = [0] + [_kind_for(c)[0] for c in range(1, 257)]


@register_index
class ARTIndex(SampledIndex):
    """ART over a subset of the keys.

    ``sampling="uniform"`` inserts every ``gap``-th key (the paper's
    universal technique).  ``sampling="adaptive"`` implements the paper's
    suggested structure-specific alternative ("ART may admit a smarter
    method in which keys are retained or discarded based on the fill
    level of a node", Section 4.1.1): it retains the first key of every
    distinct high-bit prefix, choosing the prefix width so that roughly
    ``n / gap`` keys survive.  Retained keys then differ in their top
    radix bytes, which flattens the trie; the price is that search-bound
    widths follow the key density instead of being a constant ``gap``.
    """

    name = "ART"
    capabilities = Capabilities(updates=True, ordered=True, kind="Trie")

    def __init__(self, gap: int = 1, sampling: str = "uniform"):
        super().__init__(gap)
        if sampling not in ("uniform", "adaptive"):
            raise ValueError("sampling must be 'uniform' or 'adaptive'")
        self.sampling = sampling
        self._width = 8
        #: Data position of each sample (adaptive mode; uniform derives
        #: positions as j * gap).
        self._sample_pos: Optional[List[int]] = None
        # Flat trie.  Node ids >= 0 index the per-node lists; leaf j is ~j.
        self._root = 0
        self._prefix: List[bytes] = []
        self._cap: List[int] = []
        self._node_addr: List[int] = []
        #: Node i's children are _child_ids/_child_bytes[_first_child[i]:
        #: _first_child[i + 1]], in increasing byte order.
        self._first_child: List[int] = [0]
        self._child_ids: List[int] = []
        self._child_bytes = b""
        self._leaf_key: List[int] = []
        self._leaf_addr: List[int] = []

    # -- construction -----------------------------------------------------

    def _adaptive_samples(self, data: TracedArray):
        """First key of each distinct prefix, targeting ~n/gap samples."""
        keys = data.values
        n = len(keys)
        target = max(n // self.gap, 1)
        bits = 8 * keys.dtype.itemsize
        for shift in range(bits - 1, -1, -1):
            prefixes = keys >> np.uint64(shift) if shift else keys
            # Sorted input: distinct prefixes are run starts.
            starts = np.nonzero(
                np.concatenate(([True], prefixes[1:] != prefixes[:-1]))
            )[0]
            if len(starts) >= target or shift == 0:
                return keys[starts], starts
        raise AssertionError("unreachable")

    def _samples(self, data: TracedArray) -> np.ndarray:
        """The keys the trie holds; sets the sample count and key width."""
        if self.sampling == "adaptive" and self.gap > 1:
            samples, positions = self._adaptive_samples(data)
            self._sample_pos = positions.tolist()
        else:
            samples = sample_keys(data, self.gap)
            self._sample_pos = None
        self._n_samples = len(samples)
        self._width = samples.dtype.itemsize
        return samples

    def _build(self, data: TracedArray, space: AddressSpace) -> None:
        samples = self._samples(data)
        # Big-endian byte matrix: column d is the d-th most significant byte.
        key_bytes = (
            samples.astype(f">u{self._width}")
            .view(np.uint8)
            .reshape(len(samples), self._width)
        )
        self._leaf_key = samples.tolist()
        self._build_trie(key_bytes, space)

    def _build_trie(self, kb: np.ndarray, space: AddressSpace) -> None:
        """Build the trie in one pass over the adjacent-sample LCPs.

        Open nodes sit on a stack with strictly increasing split depths.
        Leaf ``i`` is attached, then every open node deeper than the LCP
        of samples ``i`` and ``i + 1`` closes (it has all its children),
        and the finished subtree joins the open node at that LCP, or opens
        one there.  Nodes thus close in post-order, the order a recursive
        builder allocates them in, and their sizes are collected in that
        order for one :meth:`AddressSpace.alloc_many`.
        """
        n, width = kb.shape
        # Sorted unique keys: each adjacent pair differs somewhere.
        lcp = (kb[1:] != kb[:-1]).argmax(axis=1).tolist()
        lcp.append(-1)  # closes every open node after the last leaf
        buf = kb.tobytes()
        prefix, caps, first_child = [], [], [0]
        child_ids: List[int] = []
        child_bytes = bytearray()
        leaves_before: List[int] = []  # leaves allocated before each node
        stack = []  # open nodes: [split depth, first sample, ids, bytes]
        for i in range(n):
            cur, first = ~i, i  # finished subtree and its first sample
            lo = lcp[i]
            while stack and stack[-1][0] > lo:
                d, node_first, ids, cbytes = stack.pop()
                ids.append(cur)
                cbytes.append(buf[first * width + d])
                # The parent splits at the next open depth or at `lo`.
                depth = (max(stack[-1][0], lo) if stack else lo) + 1
                row = node_first * width
                cur, first = len(caps), node_first
                prefix.append(buf[row + depth : row + d])
                caps.append(_CAP_BY_COUNT[len(ids)])
                child_ids += ids
                child_bytes.extend(cbytes)
                first_child.append(len(child_ids))
                leaves_before.append(i + 1)
            if stack and stack[-1][0] == lo:
                stack[-1][2].append(cur)
                stack[-1][3].append(buf[first * width + lo])
            elif lo >= 0:
                stack.append([lo, first, [cur], [buf[first * width + lo]]])

        # Post-order: leaf i, then the nodes that close right after it.
        m = len(caps)
        node_pos = np.asarray(leaves_before, dtype=np.int64) + np.arange(m)
        sizes = np.full(n + m, _LEAF_BYTES, dtype=np.int64)
        cap_arr = np.asarray(caps)
        for cap, size in _KINDS:
            sizes[node_pos[cap_arr == cap]] = size
        bases = np.asarray(space.alloc_many(sizes))
        self._register_bytes(int(sizes.sum()))
        is_leaf = np.ones(n + m, dtype=bool)
        is_leaf[node_pos] = False
        self._root = cur
        self._prefix = prefix
        self._cap = caps
        self._node_addr = bases[node_pos].tolist()
        self._first_child = first_child
        self._child_ids = child_ids
        self._child_bytes = bytes(child_bytes)
        self._leaf_addr = bases[is_leaf].tolist()

    def lookup(self, key, tracer=None):
        from repro.core.bounds import SearchBound
        from repro.memsim.tracer import NULL_TRACER

        if tracer is None:
            tracer = NULL_TRACER
        if self._sample_pos is None:
            return super().lookup(key, tracer)
        n = self.n_keys
        j = self._predecessor(int(key), tracer)
        if j < 0:
            return SearchBound(0, 1)
        lo = self._sample_pos[j]
        hi = (
            self._sample_pos[j + 1]
            if j + 1 < len(self._sample_pos)
            else n
        )
        return SearchBound(lo, min(hi, n) + 1)

    # -- lookup ------------------------------------------------------------

    def _visit_cost(self, node: int, tracer: Tracer) -> None:
        """Charge header + prefix read and the child-array search."""
        if node < 0:
            tracer.read(self._leaf_addr[~node], _HEADER)
            tracer.instr(3)
            return
        addr = self._node_addr[node]
        tracer.read(addr, _HEADER)
        tracer.instr(3 + len(self._prefix[node]))
        cap = self._cap[node]
        if cap == 4:
            tracer.read(addr + _HEADER, 4)
            tracer.instr(4)
        elif cap == 16:
            tracer.read(addr + _HEADER, 16)
            tracer.instr(3)  # SIMD compare + movemask + ctz
        elif cap == 48:
            tracer.read(addr + _HEADER, 1)
            tracer.instr(2)
        else:
            tracer.instr(1)

    def _child_read(self, node: int, slot: int, tracer: Tracer) -> None:
        cap = self._cap[node]
        offset = _HEADER + (0 if cap == 256 else cap)
        tracer.read(self._node_addr[node] + offset + slot * 8, 8)

    def _rightmost_leaf(self, node: int, tracer: Tracer) -> int:
        """Sampled index of the subtree's largest key (walks right spine)."""
        while node >= 0:
            self._visit_cost(node, tracer)
            last = self._first_child[node + 1] - 1
            self._child_read(node, last - self._first_child[node], tracer)
            node = self._child_ids[last]
        tracer.read(self._leaf_addr[~node], _LEAF_BYTES)
        return ~node

    def _predecessor(self, key: int, tracer: Tracer) -> int:
        if key < 0:
            return -1
        kb = int(key).to_bytes(self._width, "big") if key < (1 << (8 * self._width)) else None
        if kb is None:
            # Larger than any storable key: predecessor is the global max.
            return self._rightmost_leaf(self._root, tracer)
        child_ids, child_bytes = self._child_ids, self._child_bytes
        node = self._root
        depth = 0
        best: Optional[int] = None  # largest smaller sibling passed
        while True:
            self._visit_cost(node, tracer)
            if node < 0:
                j = ~node
                tracer.read(self._leaf_addr[j], _LEAF_BYTES)
                tracer.branch("art.leafcmp", key >= self._leaf_key[j])
                if key >= self._leaf_key[j]:
                    return j
                return self._rightmost_leaf(best, tracer) if best is not None else -1

            # Prefix comparison (path compression).
            prefix = self._prefix[node]
            for i, pb in enumerate(prefix):
                cb = kb[depth + i]
                if cb == pb:
                    continue
                tracer.branch("art.prefix", True)
                if cb > pb:
                    return self._rightmost_leaf(node, tracer)
                return self._rightmost_leaf(best, tracer) if best is not None else -1
            depth += len(prefix)

            # Child slot search (cost charged in _visit_cost).
            b = kb[depth]
            start, end = self._first_child[node], self._first_child[node + 1]
            i = bisect_left(child_bytes, b, start, end)
            hit = i < end and child_bytes[i] == b
            if i > start:
                best = child_ids[i - 1]
            tracer.branch("art.childhit", hit)
            if not hit:
                if i > start:
                    self._child_read(node, i - 1 - start, tracer)
                    return self._rightmost_leaf(child_ids[i - 1], tracer)
                return self._rightmost_leaf(best, tracer) if best is not None else -1
            self._child_read(node, i - start, tracer)
            node = child_ids[i]
            depth += 1

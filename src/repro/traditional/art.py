"""Adaptive radix tree (ART), Leis et al. / ICDE'13.

A byte-wise radix trie over the sampled keys with the four adaptive node
kinds of the paper (Node4 / Node16 / Node48 / Node256), path compression,
and lazy expansion (single-key subtrees become leaves immediately).  Keys
are indexed big-endian, one byte per level; 32-bit data gives a 4-level
trie (the tree-structure gain in the paper's Figure 10).

Construction is vectorized over the sorted samples.  One numpy
comparison gives the byte-LCP (length of the common leading bytes) of
every pair of adjacent samples; the LCP of any two samples is the minimum
of the adjacent LCPs between them, so the node that splits at byte ``d``
owns a maximal run of adjacent LCPs ``>= d`` that holds an LCP equal to
``d``.  Per split depth, one ``np.maximum.accumulate`` and one reversed
``np.minimum.accumulate`` find every run's ends.  A leaf's or a node's
parent is the node at its larger adjacent LCP, and sorting the children
by (parent, first sample) lays out every node's child list in byte
order.  Node ids follow the order a recursive builder closes nodes in
(by last sample, deeper first), and one aligned bump
(:meth:`AddressSpace.alloc_many`) gives every leaf and node its address
in that post-order.

The trie is stored as numpy arrays, without a Python object per node:
internal nodes index per-node arrays (split depth, prefix length, first
sample, kind, address, child range) whose children live in two shared
arrays (child ids, child bytes); leaf ``j`` is the id ``~j``, with its
key and address in per-sample arrays.  The batch kernel
(``repro.learned.kernels``) reads these arrays.  The scalar lookup reads
Python lists instead, because comparisons on native ints are several
times faster than on numpy scalars; it builds them on its first call,
so an index measured only on the batched path never holds them.

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
from typing import Optional

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

#: Per node kind: the bytes the child-array search reads after the
#: header (0: none, Node256 indexes directly) and its instructions
#: (Node16: SIMD compare + movemask + ctz).
_SEARCH_READ = {4: 4, 16: 16, 48: 1, 256: 0}
_SEARCH_INSTR = {4: 4, 16: 3, 48: 2, 256: 1}


def _kind_for(n_children: int):
    for cap, size in _KINDS:
        if n_children <= cap:
            return cap, size
    raise AssertionError("more than 256 children is impossible")


_CAP_BY_COUNT = np.array([0] + [_kind_for(c)[0] for c in range(1, 257)])
_SIZE_BY_CAP = np.zeros(257, dtype=np.int64)
_SIZE_BY_CAP[[cap for cap, _ in _KINDS]] = [size for _, size in _KINDS]


def _key_bytes(samples: np.ndarray, width: int) -> np.ndarray:
    """Big-endian byte matrix: column d is the d-th most significant byte."""
    return (
        samples.astype(f">u{width}").view(np.uint8).reshape(len(samples), width)
    )


def _lcp_nodes(lcp: np.ndarray):
    """The trie's nodes from the adjacent-sample LCPs, in close order.

    The node splitting at byte ``d`` owns a maximal run of adjacent LCPs
    ``>= d`` holding an LCP equal to ``d``.  Returns each node's split
    depth, first and last sample, and for each adjacent pair the node
    that splits it.
    """
    pos = np.arange(len(lcp))
    runs = []  # (split depth, first sample, last sample) per depth
    owner = np.empty(len(lcp), dtype=np.int64)
    m = 0
    for d in np.unique(lcp).tolist():
        # A run of LCPs >= d ends at the nearest LCP < d on either side.
        below = lcp < d
        left = np.where(below, pos, -1)
        np.maximum.accumulate(left, out=left)
        right = np.where(below, pos, len(lcp))
        np.minimum.accumulate(right[::-1], out=right[::-1])
        at = np.flatnonzero(lcp == d)
        new = np.concatenate(([True], left[at[1:]] != left[at[:-1]]))
        owner[at] = m + np.cumsum(new) - 1
        heads = at[new]
        runs.append((np.full(len(heads), d), left[heads] + 1, right[heads]))
        m += len(heads)
    if not runs:  # one sample: no nodes
        return pos, pos, pos, owner
    depth, first, last = (np.concatenate(c) for c in zip(*runs))
    order = np.lexsort((-depth, last))
    rank = np.empty(m, dtype=np.int64)
    rank[order] = np.arange(m)
    return depth[order], first[order], last[order], rank[owner]


class _Lists:
    """The trie as Python lists and bytes, for the scalar lookup."""

    __slots__ = ("prefix", "cap", "node_addr", "first_child", "child_ids",
                 "child_bytes", "leaf_key", "leaf_addr")

    def __init__(self, art: "ARTIndex"):
        width = art._width
        buf = _key_bytes(art._leaf_key, width).tobytes()
        # Node i's prefix ends at its split depth in its first sample.
        ends = (art._node_first * width + art._node_depth).tolist()
        self.prefix = [
            buf[e - p : e] for e, p in zip(ends, art._prefix_len.tolist())
        ]
        self.cap = art._cap.tolist()
        self.node_addr = art._node_addr.tolist()
        self.first_child = art._first_child.tolist()
        self.child_ids = art._child_ids.tolist()
        self.child_bytes = art._child_bytes.tobytes()
        self.leaf_key = art._leaf_key.tolist()
        self.leaf_addr = art._leaf_addr.tolist()


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
        self._sample_pos: Optional[np.ndarray] = None
        # Flat trie.  Node ids >= 0 index the per-node arrays; leaf j is ~j.
        empty = np.zeros(0, dtype=np.int64)
        self._root = 0
        self._node_depth = empty  # the byte the node's children differ in
        self._prefix_len = empty  # compressed bytes just above that byte
        self._node_first = empty  # first sample under the node
        self._cap = empty
        self._node_addr = empty
        #: Node i's children are _child_ids/_child_bytes[_first_child[i]:
        #: _first_child[i + 1]], in increasing byte order.
        self._first_child = np.zeros(1, dtype=np.int64)
        self._child_ids = empty
        self._child_bytes = np.zeros(0, dtype=np.uint8)
        self._leaf_key = empty
        self._leaf_addr = empty
        #: The scalar lookup's lists, built on its first call.
        self._lists: Optional[_Lists] = None

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
            samples, self._sample_pos = self._adaptive_samples(data)
        else:
            samples = sample_keys(data, self.gap)
            self._sample_pos = None
        self._n_samples = len(samples)
        self._width = samples.dtype.itemsize
        return samples

    def _build(self, data: TracedArray, space: AddressSpace) -> None:
        samples = self._samples(data)
        self._leaf_key = samples
        self._build_trie(_key_bytes(samples, self._width), space)

    def _build_trie(self, kb: np.ndarray, space: AddressSpace) -> None:
        """Build the trie from the adjacent-sample LCPs, with numpy.

        Node ids are in close order -- by last sample, deeper first --
        which is the post-order a recursive builder allocates in: leaf
        ``j``, then the nodes whose last sample is ``j``.
        """
        n = len(kb)
        # Sorted unique keys: each adjacent pair differs somewhere.
        lcp = (kb[1:] != kb[:-1]).argmax(axis=1)
        depth, first, last, owner = _lcp_nodes(lcp)
        m = len(depth)

        # lcp_pad[j] / owner_pad[j]: the LCP of samples j - 1 and j and
        # the node splitting them (-1 past either end).  Samples hang off
        # the node at their larger adjacent LCP.  (Each temporary is
        # dropped once used, which keeps the build's peak memory low.)
        lcp_pad = np.concatenate(([-1], lcp, [-1]))
        owner_pad = np.concatenate(([-1], owner, [-1]))
        del lcp, owner
        left, right = lcp_pad[:-1], lcp_pad[1:]
        leaf_parent = np.where(left >= right, owner_pad[:-1], owner_pad[1:])
        left, right = lcp_pad[first], lcp_pad[last + 1]
        node_parent = np.where(
            left >= right, owner_pad[first], owner_pad[last + 1]
        )
        prefix_len = depth - np.maximum(left, right) - 1
        del lcp_pad, owner_pad, left, right

        # Entry e < n is leaf e, entry n + i is node i.  Each node lists
        # its children by first sample, which is byte order; the root,
        # the one entry without a parent, sorts first and is dropped.
        up = np.concatenate((leaf_parent, node_parent))
        first_of = np.concatenate((np.arange(n), first))
        entry = np.argsort(up * n + first_of)[1:]
        del leaf_parent, node_parent
        up = up[entry]
        counts = np.bincount(up, minlength=m)
        caps = _CAP_BY_COUNT[counts]

        # Post-order: leaf j, then the nodes whose last sample is j.
        node_slot = last + 1 + np.arange(m)
        leaf_slot = np.arange(n)
        leaf_slot += np.searchsorted(last, leaf_slot)
        sizes = np.full(n + m, _LEAF_BYTES, dtype=np.int64)
        sizes[node_slot] = _SIZE_BY_CAP[caps]
        bases = space.alloc_many(sizes)
        self._register_bytes(int(sizes.sum()))

        self._root = m - 1 if m else ~0
        self._node_depth = depth
        self._prefix_len = prefix_len
        self._node_first = first
        self._cap = caps
        self._node_addr = bases[node_slot]
        self._first_child = np.concatenate(([0], np.cumsum(counts)))
        self._child_ids = np.where(entry < n, ~entry, entry - n)
        self._child_bytes = kb[first_of[entry], depth[up]]
        self._leaf_addr = bases[leaf_slot]
        self._lists = None

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
        pos = self._sample_pos
        lo = int(pos[j])
        hi = int(pos[j + 1]) if j + 1 < len(pos) else n
        return SearchBound(lo, min(hi, n) + 1)

    # -- lookup ------------------------------------------------------------
    #
    # The helpers below run only inside _predecessor, which builds the
    # lists they read.

    def _visit_cost(self, node: int, tracer: Tracer) -> None:
        """Charge header + prefix read and the child-array search."""
        t = self._lists
        if node < 0:
            tracer.read(t.leaf_addr[~node], _HEADER)
            tracer.instr(3)
            return
        addr = t.node_addr[node]
        tracer.read(addr, _HEADER)
        tracer.instr(3 + len(t.prefix[node]))
        cap = t.cap[node]
        if _SEARCH_READ[cap]:
            tracer.read(addr + _HEADER, _SEARCH_READ[cap])
        tracer.instr(_SEARCH_INSTR[cap])

    def _child_read(self, node: int, slot: int, tracer: Tracer) -> None:
        t = self._lists
        cap = t.cap[node]
        offset = _HEADER + (0 if cap == 256 else cap)
        tracer.read(t.node_addr[node] + offset + slot * 8, 8)

    def _rightmost_leaf(self, node: int, tracer: Tracer) -> int:
        """Sampled index of the subtree's largest key (walks right spine)."""
        t = self._lists
        while node >= 0:
            self._visit_cost(node, tracer)
            last = t.first_child[node + 1] - 1
            self._child_read(node, last - t.first_child[node], tracer)
            node = t.child_ids[last]
        tracer.read(t.leaf_addr[~node], _LEAF_BYTES)
        return ~node

    def _predecessor(self, key: int, tracer: Tracer) -> int:
        if key < 0:
            return -1
        t = self._lists
        if t is None:
            t = self._lists = _Lists(self)
        kb = int(key).to_bytes(self._width, "big") if key < (1 << (8 * self._width)) else None
        if kb is None:
            # Larger than any storable key: predecessor is the global max.
            return self._rightmost_leaf(self._root, tracer)
        child_ids, child_bytes = t.child_ids, t.child_bytes
        node = self._root
        depth = 0
        best: Optional[int] = None  # largest smaller sibling passed
        while True:
            self._visit_cost(node, tracer)
            if node < 0:
                j = ~node
                tracer.read(t.leaf_addr[j], _LEAF_BYTES)
                tracer.branch("art.leafcmp", key >= t.leaf_key[j])
                if key >= t.leaf_key[j]:
                    return j
                return self._rightmost_leaf(best, tracer) if best is not None else -1

            # Prefix comparison (path compression).
            prefix = t.prefix[node]
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
            start, end = t.first_child[node], t.first_child[node + 1]
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

"""Fast succinct trie (FST), the index core of SuRF (Zhang et al.).

A byte-trie over the sampled keys in the LOUDS-sparse encoding: one label
byte per edge in breadth-first order, a ``has_child`` bitvector marking
internal edges, a ``louds`` bitvector marking each node's first edge, and
a value per leaf edge.  Child navigation is
``select1(louds, rank1(has_child, pos) + 1)``; leaf edges map to value
slot ``pos - rank1(has_child, pos)``.  Rank uses a per-word directory,
select a sampled hint plus scan -- and lookups charge the tracer for the
directory/word/bitmap reads those operations perform.

Unlike the approximate SuRF filter, this is an exact index: each leaf
stores its full key (SuRF-Real with complete suffix), so predecessor
searches are precise.  As the paper observes (Figure 8), the byte-per
-level navigation that makes FST shine on long string keys is pure
overhead on 64-bit integers.
"""

from __future__ import annotations

from collections import deque
from typing import List, Tuple

import numpy as np

from repro.core.interface import Capabilities
from repro.core.registry import register_index
from repro.memsim.memory import AddressSpace
from repro.memsim.tracer import Tracer
from repro.traditional.base import SampledIndex, sample_keys

_RANK_INSTR = 4  # shift, mask, popcount, add
_SELECT_INSTR = 5


@register_index
class FSTIndex(SampledIndex):
    """LOUDS-sparse succinct byte-trie over every ``gap``-th key."""

    name = "FST"
    capabilities = Capabilities(updates=True, ordered=True, kind="Trie")

    def __init__(self, gap: int = 1):
        super().__init__(gap)
        self._width = 8
        # Per-edge arrays (breadth-first order).
        self._labels: List[int] = []
        self._has_child: List[int] = []
        self._louds: List[int] = []
        # Shadow navigation arrays (semantically derived from rank/select;
        # lookups still charge the succinct operations' reads).
        self._child_start: List[int] = []
        self._child_end: List[int] = []
        self._value_idx: List[int] = []
        self._values: List[int] = []  # sampled index per leaf edge
        self._leaf_keys: List[int] = []  # full key per leaf edge
        # Simulated base addresses.
        self._addr = {}

    # -- construction -----------------------------------------------------

    def _build(self, data: np.ndarray, space: AddressSpace) -> None:
        samples = sample_keys(data, self.gap)
        self._n_samples = len(samples)
        self._width = samples.dtype.itemsize
        kb = (
            samples.astype(f">u{self._width}")
            .view(np.uint8)
            .reshape(len(samples), self._width)
        )
        keys_py = [int(k) for k in samples]

        labels: List[int] = []
        has_child: List[int] = []
        louds: List[int] = []
        child_node_of_edge: List[int] = []  # node id an internal edge leads to
        values: List[int] = []
        leaf_keys: List[int] = []
        value_idx: List[int] = []
        node_edge_range: List[Tuple[int, int]] = []

        queue = deque()
        queue.append((0, len(keys_py), 0))
        while queue:
            lo, hi, depth = queue.popleft()
            node_start = len(labels)
            col = kb[lo:hi, depth]
            split_bytes, starts = np.unique(col, return_index=True)
            bounds = list(starts) + [hi - lo]
            for i, byte in enumerate(split_bytes):
                s, e = lo + bounds[i], lo + bounds[i + 1]
                labels.append(int(byte))
                louds.append(1 if i == 0 else 0)
                if e - s == 1:
                    has_child.append(0)
                    value_idx.append(len(values))
                    values.append(s)
                    leaf_keys.append(keys_py[s])
                    child_node_of_edge.append(-1)
                else:
                    has_child.append(1)
                    value_idx.append(-1)
                    # Child node id assigned in BFS order.
                    child_node_of_edge.append(
                        len(node_edge_range) + len(queue) + 1
                    )
                    queue.append((s, e, depth + 1))
            node_edge_range.append((node_start, len(labels)))

        # node_edge_range was appended in BFS pop order == node id order.
        n_edges = len(labels)
        self._labels = labels
        self._has_child = has_child
        self._louds = louds
        self._values = values
        self._leaf_keys = leaf_keys
        self._value_idx = value_idx
        self._child_start = [0] * n_edges
        self._child_end = [0] * n_edges
        self._node_range = node_edge_range
        for pos in range(n_edges):
            child = child_node_of_edge[pos]
            if child >= 0:
                self._child_start[pos], self._child_end[pos] = node_edge_range[
                    child
                ]

        # Simulated memory layout of the succinct structure.
        n_words = -(-n_edges // 64)
        n_leaves = len(values)
        self._addr = {
            "labels": space.alloc(n_edges),
            "hc_bits": space.alloc(n_words * 8),
            "louds_bits": space.alloc(n_words * 8),
            "hc_rank": space.alloc(n_words * 4),
            "louds_sel": space.alloc(n_words * 4),
            "values": space.alloc(n_leaves * 4),
            "leaf_keys": space.alloc(n_leaves * self._width),
        }
        self._register_bytes(
            n_edges + 2 * n_words * 8 + 2 * n_words * 4 + n_leaves * (4 + self._width)
        )

    # -- charged succinct operations ----------------------------------------

    def _charge_label_scan(self, lo: int, hi: int, tracer: Tracer) -> None:
        span = hi - lo
        tracer.read(self._addr["labels"] + lo, span)
        tracer.instr(2 + -(-span // 16))  # SIMD compare per 16 labels

    def _charge_rank(self, base_key: str, pos: int, tracer: Tracer) -> None:
        word = pos // 64
        tracer.read(self._addr["hc_rank"] + word * 4, 4)
        tracer.read(self._addr[base_key] + word * 8, 8)
        tracer.instr(_RANK_INSTR)

    def _charge_select(self, pos_hint: int, tracer: Tracer) -> None:
        word = pos_hint // 64
        tracer.read(self._addr["louds_sel"] + word * 4, 4)
        tracer.read(self._addr["louds_bits"] + word * 8, 8)
        tracer.instr(_SELECT_INSTR)

    def _charge_leaf(self, vidx: int, tracer: Tracer) -> None:
        tracer.read(self._addr["values"] + vidx * 4, 4)
        tracer.read(self._addr["leaf_keys"] + vidx * self._width, self._width)
        tracer.instr(2)

    # -- lookup ------------------------------------------------------------

    def _descend(self, pos: int, tracer: Tracer) -> Tuple[int, int]:
        """Child node edge range of internal edge ``pos`` (charged)."""
        self._charge_rank("hc_bits", pos, tracer)
        self._charge_select(self._child_start[pos], tracer)
        return self._child_start[pos], self._child_end[pos]

    def _subtree_max(self, pos: int, tracer: Tracer) -> int:
        """Sampled index of the largest key under edge ``pos``."""
        while self._has_child[pos]:
            tracer.branch("fst.max.internal", True)
            lo, hi = self._descend(pos, tracer)
            pos = hi - 1
            self._charge_label_scan(hi - 1, hi, tracer)
        tracer.branch("fst.max.internal", False)
        self._charge_rank("hc_bits", pos, tracer)
        vidx = self._value_idx[pos]
        self._charge_leaf(vidx, tracer)
        return self._values[vidx]

    def _predecessor(self, key: int, tracer: Tracer) -> int:
        if key >= (1 << (8 * self._width)):
            return self._subtree_max_of_root(tracer)
        kb = int(key).to_bytes(self._width, "big")
        lo, hi = self._node_range[0]
        best = -1  # edge position of largest smaller sibling passed
        for depth in range(self._width):
            b = kb[depth]
            self._charge_label_scan(lo, hi, tracer)
            slot = -1
            smaller = -1
            for pos in range(lo, hi):
                lab = self._labels[pos]
                if lab == b:
                    slot = pos
                elif lab < b:
                    smaller = pos
                else:
                    break
            if smaller >= 0:
                best = smaller
            tracer.branch("fst.childhit", slot >= 0)
            if slot < 0:
                if smaller >= 0:
                    return self._subtree_max(smaller, tracer)
                return self._subtree_max(best, tracer) if best >= 0 else -1
            self._charge_rank("hc_bits", slot, tracer)
            if not self._has_child[slot]:
                vidx = self._value_idx[slot]
                self._charge_leaf(vidx, tracer)
                leaf_key = self._leaf_keys[vidx]
                tracer.branch("fst.leafcmp", key >= leaf_key)
                if key >= leaf_key:
                    return self._values[vidx]
                return self._subtree_max(best, tracer) if best >= 0 else -1
            self._charge_select(self._child_start[slot], tracer)
            lo, hi = self._child_start[slot], self._child_end[slot]
        raise AssertionError("trie deeper than key width")

    def _subtree_max_of_root(self, tracer: Tracer) -> int:
        lo, hi = self._node_range[0]
        return self._subtree_max(hi - 1, tracer)

"""Recursive, one-object-per-node ART: the oracle for the flat builder.

This is the original construction of :class:`repro.traditional.art.ARTIndex`:
one ``np.unique`` split and one :class:`_Node` per trie node, allocated in
post-order, and a lookup walk over node objects.  The product builder
works on whole numpy arrays and stores the trie flat;
``tests/test_art_flat.py`` checks that the two give the same nodes,
addresses, sizes and tracer event streams.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.memsim.memory import AddressSpace, TracedArray
from repro.memsim.tracer import Tracer
from repro.traditional.art import _HEADER, _LEAF_BYTES, ARTIndex, _kind_for


class _Node:
    __slots__ = (
        "prefix",
        "child_bytes",
        "children",
        "addr",
        "is_leaf",
        "leaf_idx",
        "leaf_key",
        "kind_cap",
    )

    def __init__(self):
        self.prefix: bytes = b""
        self.child_bytes: List[int] = []
        self.children: List["_Node"] = []
        self.addr = 0
        self.is_leaf = False
        self.leaf_idx = -1
        self.leaf_key = 0
        self.kind_cap = 4


class RecursiveART(ARTIndex):
    """ARTIndex with the recursive builder and the object-walking lookup."""

    def _build(self, data: TracedArray, space: AddressSpace) -> None:
        samples = self._samples(data)
        key_bytes = (
            samples.astype(f">u{self._width}")
            .view(np.uint8)
            .reshape(len(samples), self._width)
        )
        keys_py = [int(k) for k in samples]
        self._root = self._build_node(key_bytes, keys_py, 0, len(keys_py), 0, space)

    def _build_node(self, kb, keys, lo, hi, depth, space) -> _Node:
        node = _Node()
        if hi - lo == 1:
            node.is_leaf = True
            node.leaf_idx = lo
            node.leaf_key = keys[lo]
            node.addr = space.alloc(_LEAF_BYTES)
            self._register_bytes(_LEAF_BYTES)
            return node

        # Path compression: the group's common prefix beyond `depth` (the
        # group is sorted, so comparing first and last suffices).
        first, last = kb[lo], kb[hi - 1]
        d = depth
        while d < self._width and first[d] == last[d]:
            d += 1
        node.prefix = bytes(first[depth:d])

        # Split children by the byte at position d (sorted within group).
        col = kb[lo:hi, d]
        split_bytes, starts = np.unique(col, return_index=True)
        bounds = list(starts) + [hi - lo]
        for i, byte in enumerate(split_bytes):
            child = self._build_node(
                kb, keys, lo + bounds[i], lo + bounds[i + 1], d + 1, space
            )
            node.child_bytes.append(int(byte))
            node.children.append(child)

        cap, size = _kind_for(len(node.children))
        node.kind_cap = cap
        node.addr = space.alloc(size)
        self._register_bytes(size)
        return node

    def walk(self):
        """Pre-order (addr, kind, prefix, child bytes, leaf index) tuples."""
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield (node.addr, "leaf", b"", b"", node.leaf_idx)
                continue
            yield (
                node.addr,
                node.kind_cap,
                node.prefix,
                bytes(node.child_bytes),
                -1,
            )
            stack.extend(reversed(node.children))

    # -- lookup ------------------------------------------------------------

    def _visit_cost(self, node: _Node, tracer: Tracer) -> None:
        tracer.read(node.addr, _HEADER)
        tracer.instr(3 + len(node.prefix))
        if node.is_leaf:
            return
        cap = node.kind_cap
        if cap == 4:
            tracer.read(node.addr + _HEADER, 4)
            tracer.instr(4)
        elif cap == 16:
            tracer.read(node.addr + _HEADER, 16)
            tracer.instr(3)
        elif cap == 48:
            tracer.read(node.addr + _HEADER, 1)
            tracer.instr(2)
        else:
            tracer.instr(1)

    def _child_read(self, node: _Node, slot: int, tracer: Tracer) -> None:
        offset = _HEADER + (0 if node.kind_cap == 256 else node.kind_cap)
        tracer.read(node.addr + offset + slot * 8, 8)

    def _rightmost_leaf(self, node: _Node, tracer: Tracer) -> int:
        while not node.is_leaf:
            self._visit_cost(node, tracer)
            slot = len(node.children) - 1
            self._child_read(node, slot, tracer)
            node = node.children[slot]
        tracer.read(node.addr, _LEAF_BYTES)
        return node.leaf_idx

    def _predecessor(self, key: int, tracer: Tracer) -> int:
        if key < 0:
            return -1
        kb = int(key).to_bytes(self._width, "big") if key < (1 << (8 * self._width)) else None
        if kb is None:
            return self._rightmost_leaf(self._root, tracer)
        node = self._root
        depth = 0
        best: Optional[_Node] = None
        while True:
            self._visit_cost(node, tracer)
            prefix = node.prefix if not node.is_leaf else b""
            for i, pb in enumerate(prefix):
                cb = kb[depth + i]
                if cb == pb:
                    continue
                tracer.branch("art.prefix", True)
                if cb > pb:
                    return self._rightmost_leaf(node, tracer)
                return self._rightmost_leaf(best, tracer) if best else -1
            depth += len(prefix)

            if node.is_leaf:
                tracer.read(node.addr, _LEAF_BYTES)
                tracer.branch("art.leafcmp", key >= node.leaf_key)
                if key >= node.leaf_key:
                    return node.leaf_idx
                return self._rightmost_leaf(best, tracer) if best else -1

            b = kb[depth]
            slot = -1
            smaller = -1
            for i, cb in enumerate(node.child_bytes):
                if cb == b:
                    slot = i
                elif cb < b:
                    smaller = i
                else:
                    break
            if smaller >= 0:
                best = node.children[smaller]
            tracer.branch("art.childhit", slot >= 0)
            if slot < 0:
                if smaller >= 0:
                    self._child_read(node, smaller, tracer)
                    return self._rightmost_leaf(node.children[smaller], tracer)
                return self._rightmost_leaf(best, tracer) if best else -1
            self._child_read(node, slot, tracer)
            node = node.children[slot]
            depth += 1

"""Bucketized cuckoo hash map (the paper's SIMD CuckooMap baseline).

Two hash functions, four slots per bucket: a lookup reads at most two
buckets and compares each bucket's keys with one SIMD operation.  Matching
the paper's implementation, keys must fit in 32 bits (Section 4.2, Table
2: "The SIMD Cuckoo implementation only supports 32-bit keys") and the
table runs at a load factor of 0.99.

The build inserts keys one at a time with random-walk eviction.  Each
kick draws two values from the build's generator: ``rng.integers(0, 2)``
picks the bucket and ``rng.integers(0, 4)`` the victim slot.  Each of
those calls consumes one 32-bit draw and returns its top 1 or 2 bits
(Lemire's method never rejects a power-of-two range), so the build reads
them from blocks of ``rng.integers(0, 1 << 32, size=k, dtype=np.uint64)``
instead, in order and across retries: the same stream, without a
generator call per kick.  ``tests/test_hashing.py`` checks the
equivalence against live calls.

The batch kernel is ``learned/kernels.py``'s ``_cuckoo_bounds``; the
scalar :meth:`CuckooMapIndex.lookup` below is its oracle and builds the
Python lists it reads on its first call.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.core.bounds import SearchBound
from repro.core.interface import Capabilities, SortedDataIndex
from repro.core.registry import register_index
from repro.memsim.memory import AddressSpace, TracedArray
from repro.memsim.tracer import NULL_TRACER, Tracer

_SLOTS = 4
_BUCKET_KEY_BYTES = _SLOTS * 4
_BUCKET_BYTES = _SLOTS * 8  # 4-byte key + 4-byte position per slot
_HASH_INSTR = 8
_SIMD_CMP_INSTR = 3
_MASK64 = (1 << 64) - 1
_MULT1 = 0x9E3779B97F4A7C15
_MULT2 = 0xC2B2AE3D27D4EB4F
_ADD2 = 0x165667B1
_DRAW_BLOCK = 1 << 16


def kick_draws(rng: np.random.Generator) -> Iterator[int]:
    """The generator's 32-bit draws, in order, read from pre-drawn blocks.

    ``next(draws) >> 31`` equals a live ``rng.integers(0, 2)`` and
    ``next(draws) >> 30`` a live ``rng.integers(0, 4)``.
    """
    while True:
        yield from rng.integers(
            0, 1 << 32, size=_DRAW_BLOCK, dtype=np.uint64
        ).tolist()


@register_index
class CuckooMapIndex(SortedDataIndex):
    """Two-choice, four-slot cuckoo hash map for 32-bit keys."""

    name = "CuckooMap"
    capabilities = Capabilities(updates=True, ordered=False, kind="Hash")
    point_only = True

    def __init__(self, load_factor: float = 0.99, max_kicks: int = 2000):
        super().__init__()
        if not 0.05 <= load_factor <= 0.995:
            raise ValueError("load_factor must be in [0.05, 0.995]")
        self.load_factor = load_factor
        self.max_kicks = max_kicks
        #: Bucket x slot -> key, and -> position (-1 marks an empty slot).
        self._keys = np.zeros((0, _SLOTS), dtype=np.uint64)
        self._pos = np.zeros((0, _SLOTS), dtype=np.int64)
        self._n_buckets = 0
        self._base = 0
        #: The scalar lookup's lists, built on its first call.
        self._lists: Optional[Tuple[list, list]] = None

    def _h1(self, key: int) -> int:
        return ((key * _MULT1) & _MASK64) % self._n_buckets

    def _h2(self, key: int) -> int:
        return ((key * _MULT2 + _ADD2) & _MASK64) % self._n_buckets

    def _buckets(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`_h1` and :meth:`_h2` of each key, as int64 buckets."""
        keys = keys.astype(np.uint64)
        nb = np.uint64(self._n_buckets)
        # uint64 arithmetic wraps mod 2^64, like the scalar ``& _MASK64``.
        b1 = keys * np.uint64(_MULT1) % nb
        b2 = (keys * np.uint64(_MULT2) + np.uint64(_ADD2)) % nb
        return b1.astype(np.int64), b2.astype(np.int64)

    def _build(self, data: TracedArray, space: AddressSpace) -> None:
        if int(data.values.max()) >= (1 << 32):
            raise ValueError("CuckooMap supports only 32-bit keys (as the paper's)")
        n = len(data)
        n_buckets = max(int(np.ceil(n / (self.load_factor * _SLOTS))), 2)
        draws = kick_draws(np.random.default_rng(7))
        while True:
            self._n_buckets = n_buckets
            table = self._try_build(data.values, draws)
            if table is not None:
                break
            n_buckets = int(n_buckets * 1.05) + 1
        pos = np.array(table, dtype=np.int64).reshape(n_buckets, _SLOTS)
        self._pos = pos
        self._keys = np.where(pos >= 0, data.values[pos], 0).astype(np.uint64)
        self._lists = None
        self._base = space.alloc(self._n_buckets * _BUCKET_BYTES)
        self._register_bytes(self._n_buckets * _BUCKET_BYTES)

    def _try_build(self, keys: np.ndarray, draws) -> Optional[List[int]]:
        """Insert every key in data order; the flat slot -> position
        table, or None when a key runs out of kicks.

        A bucket's slots fill left to right and a kick only swaps, so a
        bucket's first empty slot is its fill count.
        """
        h1, h2 = (b.tolist() for b in self._buckets(keys))
        table = [-1] * (self._n_buckets * _SLOTS)
        fill = [0] * self._n_buckets
        max_kicks = self.max_kicks
        for position in range(len(keys)):
            cur = position
            for _ in range(max_kicks):
                b1, b2 = h1[cur], h2[cur]
                f = fill[b1]
                if f < _SLOTS:
                    table[b1 * _SLOTS + f] = cur
                    fill[b1] = f + 1
                    break
                f = fill[b2]
                if f < _SLOTS:
                    table[b2 * _SLOTS + f] = cur
                    fill[b2] = f + 1
                    break
                # Random-walk eviction from a randomly chosen candidate
                # bucket (alternating choices reach higher load factors
                # than always evicting from the same side).
                b = b2 if next(draws) >> 31 else b1
                slot = b * _SLOTS + (next(draws) >> 30)
                table[slot], cur = cur, table[slot]
            else:
                return None
        return table

    def lookup(self, key: int, tracer: Tracer = NULL_TRACER) -> SearchBound:
        key = int(key)
        if self._lists is None:
            keys = self._keys.astype(object)
            keys[self._pos < 0] = -1
            self._lists = (keys.tolist(), self._pos.tolist())
        keys, pos = self._lists
        tracer.instr(_HASH_INSTR)
        b1 = self._h1(key)
        tracer.read(self._base + b1 * _BUCKET_BYTES, _BUCKET_KEY_BYTES)
        tracer.instr(_SIMD_CMP_INSTR)
        slots = keys[b1]
        hit = key in slots
        tracer.branch("cuckoo.b1", hit)
        if hit:
            s = slots.index(key)
            tracer.read(self._base + b1 * _BUCKET_BYTES + _BUCKET_KEY_BYTES + s * 4, 4)
            p = pos[b1][s]
            return SearchBound(p, p + 1)
        b2 = self._h2(key)
        tracer.read(self._base + b2 * _BUCKET_BYTES, _BUCKET_KEY_BYTES)
        tracer.instr(_SIMD_CMP_INSTR)
        slots = keys[b2]
        hit = key in slots
        tracer.branch("cuckoo.b2", hit)
        if hit:
            s = slots.index(key)
            tracer.read(self._base + b2 * _BUCKET_BYTES + _BUCKET_KEY_BYTES + s * 4, 4)
            p = pos[b2][s]
            return SearchBound(p, p + 1)
        return SearchBound(0, self.n_keys + 1)

    @classmethod
    def size_sweep_configs(cls, n_keys: int) -> List[dict]:
        return [{}]

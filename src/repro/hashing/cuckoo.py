"""Bucketized cuckoo hash map (the paper's SIMD CuckooMap baseline).

Two hash functions, four slots per bucket: a lookup reads at most two
buckets and compares each bucket's keys with one SIMD operation.  Matching
the paper's implementation, keys must fit in 32 bits (Section 4.2, Table
2: "The SIMD Cuckoo implementation only supports 32-bit keys") and the
table runs at a load factor of 0.99.
"""

from __future__ import annotations

from typing import List

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
_EMPTY = -1


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
        self._keys: List[List[int]] = []
        self._pos: List[List[int]] = []
        self._n_buckets = 0
        self._base = 0

    def _h1(self, key: int) -> int:
        return ((key * 0x9E3779B97F4A7C15) & _MASK64) % self._n_buckets

    def _h2(self, key: int) -> int:
        return ((key * 0xC2B2AE3D27D4EB4F + 0x165667B1) & _MASK64) % self._n_buckets

    def _build(self, data: TracedArray, space: AddressSpace) -> None:
        if int(data.values.max()) >= (1 << 32):
            raise ValueError("CuckooMap supports only 32-bit keys (as the paper's)")
        n = len(data)
        n_buckets = max(int(np.ceil(n / (self.load_factor * _SLOTS))), 2)
        rng = np.random.default_rng(7)
        while not self._try_build(data.as_list(), n_buckets, rng):
            n_buckets = int(n_buckets * 1.05) + 1
        self._base = space.alloc(self._n_buckets * _BUCKET_BYTES)
        self._register_bytes(self._n_buckets * _BUCKET_BYTES)

    def _try_build(self, keys, n_buckets: int, rng) -> bool:
        self._n_buckets = n_buckets
        self._keys = [[_EMPTY] * _SLOTS for _ in range(n_buckets)]
        self._pos = [[0] * _SLOTS for _ in range(n_buckets)]
        for position, key in enumerate(keys):
            if not self._insert(key, position, rng):
                return False
        return True

    def _insert(self, key: int, position: int, rng) -> bool:
        cur_key, cur_pos = key, position
        for _ in range(self.max_kicks):
            b1, b2 = self._h1(cur_key), self._h2(cur_key)
            for b in (b1, b2):
                slots = self._keys[b]
                for s in range(_SLOTS):
                    if slots[s] == _EMPTY:
                        slots[s] = cur_key
                        self._pos[b][s] = cur_pos
                        return True
            # Random-walk eviction from a randomly chosen candidate bucket
            # (alternating choices reach higher load factors than always
            # evicting from the same side).
            b = b2 if rng.integers(0, 2) else b1
            victim = int(rng.integers(0, _SLOTS))
            self._keys[b][victim], cur_key = cur_key, self._keys[b][victim]
            self._pos[b][victim], cur_pos = cur_pos, self._pos[b][victim]
        return False

    def lookup(self, key: int, tracer: Tracer = NULL_TRACER) -> SearchBound:
        key = int(key)
        tracer.instr(_HASH_INSTR)
        b1 = self._h1(key)
        tracer.read(self._base + b1 * _BUCKET_BYTES, _BUCKET_KEY_BYTES)
        tracer.instr(_SIMD_CMP_INSTR)
        slots = self._keys[b1]
        hit = key in slots
        tracer.branch("cuckoo.b1", hit)
        if hit:
            s = slots.index(key)
            tracer.read(self._base + b1 * _BUCKET_BYTES + _BUCKET_KEY_BYTES + s * 4, 4)
            p = self._pos[b1][s]
            return SearchBound(p, p + 1)
        b2 = self._h2(key)
        tracer.read(self._base + b2 * _BUCKET_BYTES, _BUCKET_KEY_BYTES)
        tracer.instr(_SIMD_CMP_INSTR)
        slots = self._keys[b2]
        hit = key in slots
        tracer.branch("cuckoo.b2", hit)
        if hit:
            s = slots.index(key)
            tracer.read(self._base + b2 * _BUCKET_BYTES + _BUCKET_KEY_BYTES + s * 4, 4)
            p = self._pos[b2][s]
            return SearchBound(p, p + 1)
        return SearchBound(0, self.n_keys + 1)

    @classmethod
    def size_sweep_configs(cls, n_keys: int) -> List[dict]:
        return [{}]

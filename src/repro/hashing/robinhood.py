"""Robin Hood hash table (the paper's RobinHash baseline).

Open addressing with linear probing and Robin Hood displacement: on
insert, the entry farther from its home slot wins the slot.  Lookups can
stop as soon as the probed entry's displacement is smaller than the
lookup's, which keeps probe sequences short even at high load -- though
the paper (and this implementation) runs it at a load factor of 0.25,
which they found maximized lookup performance.

Hash tables index *every* key (sampling would break point lookups) and
support only present-key lookups; an absent key returns the trivial full
bound.  This is the documented ``point_only`` exception of the benchmark.
"""

from __future__ import annotations

from typing import List

from repro.core.bounds import SearchBound
from repro.core.interface import Capabilities, SortedDataIndex
from repro.core.registry import register_index
from repro.memsim.memory import AddressSpace, TracedArray
from repro.memsim.tracer import NULL_TRACER, Tracer

_SLOT_BYTES = 16  # key + position
_HASH_INSTR = 6
_PROBE_INSTR = 4
_MULT = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


@register_index
class RobinHashIndex(SortedDataIndex):
    """Robin Hood hash map from key to position."""

    name = "RobinHash"
    capabilities = Capabilities(updates=True, ordered=False, kind="Hash")
    point_only = True

    def __init__(self, load_factor: float = 0.25):
        super().__init__()
        if not 0.05 <= load_factor <= 0.97:
            raise ValueError("load_factor must be in [0.05, 0.97]")
        self.load_factor = load_factor
        self._shift = 64
        self._keys: List[int] = []
        self._pos: List[int] = []
        self._base = 0
        self._capacity = 0

    def _hash(self, key: int) -> int:
        return ((key * _MULT) & _MASK64) >> self._shift

    def _build(self, data: TracedArray, space: AddressSpace) -> None:
        n = len(data)
        capacity = 4
        while capacity * self.load_factor < n:
            capacity *= 2
        self._capacity = capacity
        self._shift = 64 - capacity.bit_length() + 1
        self._keys = [-1] * capacity
        self._pos = [0] * capacity

        keys = self._keys
        pos_arr = self._pos
        mask = capacity - 1
        for position, key in enumerate(data.as_list()):
            slot = self._hash(key)
            dist = 0
            cur_key, cur_pos = key, position
            while True:
                existing = keys[slot]
                if existing == -1:
                    keys[slot] = cur_key
                    pos_arr[slot] = cur_pos
                    break
                their_dist = (slot - self._hash(existing)) & mask
                if their_dist < dist:
                    # Robin Hood: displace the richer entry.
                    keys[slot], cur_key = cur_key, keys[slot]
                    pos_arr[slot], cur_pos = cur_pos, pos_arr[slot]
                    dist = their_dist
                slot = (slot + 1) & mask
                dist += 1

        self._base = space.alloc(capacity * _SLOT_BYTES)
        self._register_bytes(capacity * _SLOT_BYTES)

    def lookup(self, key: int, tracer: Tracer = NULL_TRACER) -> SearchBound:
        key = int(key)
        tracer.instr(_HASH_INSTR)
        mask = self._capacity - 1
        slot = self._hash(key)
        dist = 0
        keys = self._keys
        while True:
            tracer.read(self._base + slot * _SLOT_BYTES, _SLOT_BYTES)
            tracer.instr(_PROBE_INSTR)
            existing = keys[slot]
            found = existing == key
            tracer.branch("robinhash.hit", found)
            if found:
                p = self._pos[slot]
                return SearchBound(p, p + 1)
            if existing == -1:
                return SearchBound(0, self.n_keys + 1)
            their_dist = (slot - self._hash(existing)) & mask
            early_out = their_dist < dist
            tracer.branch("robinhash.early", early_out)
            if early_out:
                return SearchBound(0, self.n_keys + 1)
            slot = (slot + 1) & mask
            dist += 1

    @classmethod
    def size_sweep_configs(cls, n_keys: int) -> List[dict]:
        return [{}]

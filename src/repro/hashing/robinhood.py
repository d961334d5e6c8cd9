"""Robin Hood hash table (the paper's RobinHash baseline).

Open addressing with linear probing and Robin Hood displacement: on
insert, the entry farther from its home slot wins the slot.  Lookups can
stop as soon as the probed entry's displacement is smaller than the
lookup's, which keeps probe sequences short even at high load -- though
the paper (and this implementation) runs it at a load factor of 0.25,
which they found maximized lookup performance.

The table is built with numpy and holds the layout that inserting the
keys one at a time, in data order, gives (``tests/robinhash_reference.py``
keeps that loop as the oracle).  Two facts of the insertion rule, where a
carried key takes the slot of the first resident strictly closer to its
own home, make that possible:

* Within each maximal run of occupied slots, keys sit in home order,
  each at ``max(home, previous slot + 1)``: one sort by (home, data
  position) and a cumulative max.
* Runs never interact, and a run's slots do not depend on the insertion
  order.  Only the order among keys with equal homes can differ from
  that layout.  An insertion from an earlier home that passes such a
  group moves the group's first member to its end; with the group in
  insertion order that changes nothing until the group has two members.
  So only runs where a key placed before an equal-home group was
  inserted after the group's second member are re-inserted one key at
  a time, with the scalar rule.

Hash tables index *every* key (sampling would break point lookups) and
support only present-key lookups; an absent key returns the trivial full
bound.  This is the documented ``point_only`` exception of the benchmark.
The batch kernel is ``learned/kernels.py``'s ``_robinhash_bounds``; the
scalar :meth:`RobinHashIndex.lookup` below is its oracle and builds the
Python lists it reads on its first call.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

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


def _layout(homes: np.ndarray, capacity: int) -> Tuple[np.ndarray, np.ndarray]:
    """Robin Hood slots for keys inserted in index order.

    Returns ``(slots, order)``: the key at position ``order[i]`` sits in
    slot ``slots[i]``.  ``homes`` holds each key's home slot.
    """
    n = len(homes)
    # Start the table after a slot that no run carries past: after the
    # minimum of the running (keys homed so far - slots so far).  Then no
    # run wraps, and the linear layout below is the cyclic one.
    excess = np.cumsum(np.bincount(homes, minlength=capacity) - 1)
    start = (int(np.argmin(excess)) + 1) % capacity
    # Sort by (home, index): one sort of both packed into an int64.
    bits = n.bit_length()
    i = np.arange(n)
    packed = np.sort((((homes - start) % capacity) << bits) | i)
    order = packed & ((1 << bits) - 1)
    home = packed >> bits
    slots = i + np.maximum.accumulate(home - i)

    # Equal-home groups whose order may differ from insertion order: a
    # key earlier in the run was inserted after the group's second member.
    leads = np.ones(n, dtype=bool)
    leads[1:] = home[1:] != home[:-1]
    second = np.flatnonzero(leads[:-1] & ~leads[1:]) + 1
    if len(second):
        run_start = np.ones(n, dtype=bool)
        run_start[1:] = slots[1:] != slots[:-1] + 1
        run = np.cumsum(run_start) - 1
        # The latest insertion in each run so far (runs are ascending, so
        # an offset of run * n keeps the running max inside the run).
        latest = np.maximum.accumulate(order + run * n) - run * n
        before = np.maximum(second - 2, 0)  # the key just before the group
        late = (second >= 2) & (run[before] == run[second])
        late &= latest[before] > order[second]
        redo = np.zeros(run[-1] + 1, dtype=bool)
        redo[run[second[late]]] = True
        rows = np.flatnonzero(redo[run])
        if len(rows):
            # The runs to redo, end to end: each key's home as an index
            # into ``rows``.  No chain leaves its run, so one table holds
            # them all.
            head = np.flatnonzero(run_start)[run[rows]]
            home_row = np.searchsorted(rows, head) + home[rows] - slots[head]
            order[rows] = _reinsert(order[rows], home_row)
    return (slots + start) % capacity, order


def _reinsert(order: np.ndarray, home: np.ndarray) -> np.ndarray:
    """Keys ``order`` inserted one at a time in ascending order, each from
    its ``home`` slot, into a table of ``len(order)`` slots."""
    table: List[int] = [-1] * len(order)
    homes = [0] * len(order)
    by_index = np.argsort(order)
    for key, h in zip(order[by_index].tolist(), home[by_index].tolist()):
        slot, dist = h, 0
        while True:
            resident = table[slot]
            if resident == -1:
                table[slot] = key
                homes[slot] = h
                break
            their_dist = slot - homes[slot]
            if their_dist < dist:
                table[slot], key = key, resident
                homes[slot], h = h, homes[slot]
                dist = their_dist
            slot += 1
            dist += 1
    return np.array(table, dtype=order.dtype)


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
        #: Slot -> key, and slot -> position (-1 marks an empty slot: keys
        #: span all of uint64, so no key value can).
        self._keys = np.zeros(0, dtype=np.uint64)
        self._pos = np.zeros(0, dtype=np.int64)
        self._base = 0
        self._capacity = 0
        #: The scalar lookup's lists, built on its first call.
        self._lists: Optional[Tuple[list, list]] = None

    def _hash(self, key: int) -> int:
        return ((key * _MULT) & _MASK64) >> self._shift

    def _homes(self, keys: np.ndarray) -> np.ndarray:
        """:meth:`_hash` of each key, as int64 slots."""
        product = keys.astype(np.uint64) * np.uint64(_MULT)  # wraps mod 2^64
        return (product >> np.uint64(self._shift)).astype(np.int64)

    def _build(self, data: TracedArray, space: AddressSpace) -> None:
        n = len(data)
        capacity = 4
        while capacity * self.load_factor < n:
            capacity *= 2
        self._capacity = capacity
        self._shift = 64 - capacity.bit_length() + 1

        keys = data.values.astype(np.uint64)
        slots, order = _layout(self._homes(keys), capacity)
        self._keys = np.zeros(capacity, dtype=np.uint64)
        self._keys[slots] = keys[order]
        self._pos = np.full(capacity, -1, dtype=np.int64)
        self._pos[slots] = order
        self._lists = None

        self._base = space.alloc(capacity * _SLOT_BYTES)
        self._register_bytes(capacity * _SLOT_BYTES)

    def lookup(self, key: int, tracer: Tracer = NULL_TRACER) -> SearchBound:
        key = int(key)
        if self._lists is None:
            keys = self._keys.astype(object)
            keys[self._pos < 0] = -1
            self._lists = (keys.tolist(), self._pos.tolist())
        keys, pos = self._lists
        tracer.instr(_HASH_INSTR)
        mask = self._capacity - 1
        slot = self._hash(key)
        dist = 0
        while True:
            tracer.read(self._base + slot * _SLOT_BYTES, _SLOT_BYTES)
            tracer.instr(_PROBE_INSTR)
            existing = keys[slot]
            found = existing == key
            tracer.branch("robinhash.hit", found)
            if found:
                p = pos[slot]
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

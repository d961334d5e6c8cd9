"""Key-at-a-time Robin Hood insertion: the oracle for the numpy builder.

This is the original construction of
:class:`repro.hashing.robinhood.RobinHashIndex`: every key, in data
order, probes from its home slot and takes the slot of the first
resident strictly closer to its own home, carrying that resident on.
The product builder lays the table out with numpy;
``tests/test_hashing.py`` checks that the two give the same table, slot
for slot.
"""

from __future__ import annotations

import numpy as np

from repro.hashing.robinhood import _SLOT_BYTES, RobinHashIndex
from repro.memsim.memory import AddressSpace, TracedArray


class LoopRobinHash(RobinHashIndex):
    """RobinHashIndex built by inserting one key at a time."""

    def _build(self, data: TracedArray, space: AddressSpace) -> None:
        n = len(data)
        capacity = 4
        while capacity * self.load_factor < n:
            capacity *= 2
        self._capacity = capacity
        self._shift = 64 - capacity.bit_length() + 1
        keys = [-1] * capacity
        pos_arr = [-1] * capacity

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

        self._keys = np.array([max(k, 0) for k in keys], dtype=np.uint64)
        self._pos = np.array(pos_arr, dtype=np.int64)
        self._lists = None
        self._base = space.alloc(capacity * _SLOT_BYTES)
        self._register_bytes(capacity * _SLOT_BYTES)

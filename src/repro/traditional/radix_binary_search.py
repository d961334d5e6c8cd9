"""Radix binary search (RBS): a radix lookup table over key prefixes.

RBS stores, for each ``radix_bits``-bit prefix ``p`` of the key space, the
first data position whose key prefix is >= ``p`` (exactly the radix table
the RS index builds over its spline points, but over the data directly;
Section 4.1.1).  A lookup is a shift plus two adjacent table reads.

Like the paper, this structure collapses on the ``face`` dataset: ~100
outliers near 2**64 stretch the prefix space so nearly every key shares
the prefix 0.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.bounds import SearchBound
from repro.core.interface import Capabilities, SortedDataIndex
from repro.core.registry import register_index
from repro.memsim.memory import AddressSpace, TracedArray
from repro.memsim.tracer import NULL_TRACER, Tracer

_LOOKUP_INSTR = 4  # shift, clamp, bound arithmetic


@register_index
class RadixBinarySearchIndex(SortedDataIndex):
    """Radix table of ``2**radix_bits + 1`` position offsets."""

    name = "RBS"
    capabilities = Capabilities(updates=False, ordered=True, kind="Lookup table")

    def __init__(self, radix_bits: int = 16):
        super().__init__()
        if not 1 <= radix_bits <= 28:
            raise ValueError("radix_bits must be in [1, 28]")
        self.radix_bits = int(radix_bits)
        self._shift = 0
        self._table: TracedArray = None

    def _build(self, data: TracedArray, space: AddressSpace) -> None:
        max_key = int(data.values[-1])
        self._shift = max(max_key.bit_length() - self.radix_bits, 0)
        prefixes = data.values >> np.uint64(self._shift)
        size = (1 << self.radix_bits) + 1
        table = np.searchsorted(prefixes, np.arange(size, dtype=np.uint64))
        self._table = self._register(
            TracedArray.allocate(space, table.astype(np.uint32), name="rbs.table")
        )

    def lookup(self, key: int, tracer: Tracer = NULL_TRACER) -> SearchBound:
        n = self.n_keys
        tracer.instr(_LOOKUP_INSTR)
        prefix = int(key) >> self._shift
        max_prefix = (1 << self.radix_bits) - 1
        if prefix < 0:
            prefix = 0
        elif prefix > max_prefix:
            prefix = max_prefix
        lo = self._table.get(prefix, tracer)
        hi = self._table.get(prefix + 1, tracer)
        # Keys with a smaller prefix are < key; keys with a larger prefix
        # are > key, so LB(key) lies in [lo, hi].
        return SearchBound(lo, min(hi, n) + 1)

    @classmethod
    def size_sweep_configs(cls, n_keys: int) -> List[dict]:
        """Table widths from tiny to ~n entries, scaled with the dataset
        (the paper's largest RBS tables hold about one entry per 8 keys)."""
        import math

        log_n = max(int(math.log2(max(n_keys, 16))), 8)
        bits = range(max(log_n - 12, 4), log_n - 1)
        return [{"radix_bits": b} for b in bits]

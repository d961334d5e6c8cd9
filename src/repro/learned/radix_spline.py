"""RadixSpline (RS) index, Kipf et al. / Section 3.2.

A greedy linear spline approximates the CDF; a radix table over the top
``radix_bits`` of the key space narrows the binary search for the spline
segment containing a lookup key.  Lookup: one radix-table read, a short
binary search on the spline keys, one interpolation -- and the error bound
is the spline fitting epsilon.

The radix table indexes *prefixes of the full key range*, so the ~100
enormous outliers in the ``face`` dataset render it nearly useless there,
exactly as the paper reports for the related RBS baseline.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.bounds import SearchBound
from repro.core.interface import Capabilities, SortedDataIndex
from repro.core.registry import register_index

from repro.memsim.memory import AddressSpace, TracedArray
from repro.memsim.tracer import NULL_TRACER, Tracer

_PREFIX_INSTR = 3  # shift + clamp
_INTERP_INSTR = 8  # two subtracts, divide, fma, bound arithmetic
_SEARCH_STEP_INSTR = 5


@register_index
class RadixSplineIndex(SortedDataIndex):
    """RS index with spline error ``epsilon`` and ``radix_bits`` prefix bits."""

    name = "RS"
    capabilities = Capabilities(updates=False, ordered=True, kind="Learned")

    def __init__(self, epsilon: int = 32, radix_bits: int = 18):
        super().__init__()
        if epsilon < 1:
            raise ValueError("epsilon must be >= 1")
        if not 1 <= radix_bits <= 30:
            raise ValueError("radix_bits must be in [1, 30]")
        self.epsilon = int(epsilon)
        self.radix_bits = int(radix_bits)
        self._shift = 0
        self._n_knots = 0
        #: Interleaved (key, position) records, one knot per 16 bytes, as
        #: in the RS paper ("spline points themselves are represented as
        #: key / index pairs"): searching and interpolating touch adjacent
        #: bytes, not two separate arrays.
        self._spline: TracedArray = None
        self._radix_table: TracedArray = None

    # -- construction -----------------------------------------------------

    def _build(self, data: TracedArray, space: AddressSpace) -> None:
        from repro.learned.fitting_fast import fit_spline_fast

        knots = fit_spline_fast(data.values, float(self.epsilon))
        self._n_knots = len(knots)
        keys = np.array([k for k, _ in knots], dtype=np.uint64)
        records = np.empty(2 * len(knots), dtype=np.uint64)
        records[0::2] = keys
        records[1::2] = np.array([p for _, p in knots], dtype=np.uint64)

        # Shift so that the largest key's prefix fills radix_bits.
        max_key = int(data.values[-1])
        self._shift = max(max_key.bit_length() - self.radix_bits, 0)
        prefixes = keys >> np.uint64(self._shift)
        table_size = (1 << self.radix_bits) + 1
        # table[p] = first spline index with prefix >= p.
        table = np.searchsorted(prefixes, np.arange(table_size, dtype=np.uint64))
        self._spline = self._register(
            TracedArray.allocate(space, records, name="rs.spline")
        )
        self._radix_table = self._register(
            TracedArray.allocate(
                space, table.astype(np.uint32), name="rs.radix_table"
            )
        )

    # -- lookup ------------------------------------------------------------

    def lookup(self, key: int, tracer: Tracer = NULL_TRACER) -> SearchBound:
        tracer.phase("model")  # radix-table probe + interpolation
        key = int(key)
        n = self.n_keys
        spline = self._spline
        n_knots = self._n_knots

        tracer.instr(_PREFIX_INSTR)
        prefix = key >> self._shift
        max_prefix = (1 << self.radix_bits) - 1
        if prefix < 0:
            prefix = 0
        elif prefix > max_prefix:
            prefix = max_prefix

        lo = self._radix_table.get(prefix, tracer)
        hi = self._radix_table.get(prefix + 1, tracer)
        # Binary search in [lo, hi] for the first spline key >= lookup key:
        # RS's in-structure search, distinct from its model arithmetic.
        tracer.phase("search")
        hi = min(hi + 1, n_knots)
        while lo < hi:
            mid = (lo + hi) // 2
            tracer.instr(_SEARCH_STEP_INSTR)
            goes_right = spline.get(2 * mid, tracer) < key
            tracer.branch("rs.search", goes_right)
            if goes_right:
                lo = mid + 1
            else:
                hi = mid

        tracer.phase("model")
        if lo == 0:
            # Key at or below the first knot: position 0 is the answer.
            return SearchBound(0, min(2, n + 1))
        if lo >= n_knots:
            # Key above the last knot: lower bound is past the last key.
            return SearchBound(max(n - 1, 0), n + 1)

        k0, p0, k1, p1 = spline.get_block(2 * (lo - 1), 4, tracer)
        tracer.instr(_INTERP_INSTR)
        if k1 == k0:
            pred = p0
        else:
            pred = p0 + (p1 - p0) * (float(key - k0) / float(k1 - k0))

        b_lo = max(int(pred) - self.epsilon - 1, 0)
        b_hi = min(int(pred) + self.epsilon + 2, n + 1)
        if b_hi <= b_lo:
            b_hi = b_lo + 1
        return SearchBound(b_lo, b_hi)

    # -- diagnostics ---------------------------------------------------------

    @property
    def n_spline_points(self) -> int:
        return self._n_knots

    def mean_log2_error(self) -> float:
        import math

        return math.log2(2.0 * self.epsilon + 2.0)

    @classmethod
    def size_sweep_configs(cls, n_keys: int) -> List[dict]:
        """~10 configurations from minimum to maximum size (Figure 7).

        Radix-table widths scale with the dataset (the RS paper pairs a
        ~2**25 table with 200M keys, i.e. log2(n) - 3); pairing small
        epsilon with wide tables mirrors its recommended tuning.
        """
        import math

        log_n = max(int(math.log2(max(n_keys, 16))), 8)
        pairs = [
            (4096, log_n - 10),
            (2048, log_n - 9),
            (1024, log_n - 8),
            (512, log_n - 7),
            (256, log_n - 6),
            (128, log_n - 5),
            (64, log_n - 4),
            (32, log_n - 3),
            (16, log_n - 3),
            (8, log_n - 2),
        ]
        return [
            {"epsilon": eps, "radix_bits": max(bits, 4)}
            for eps, bits in pairs
            if eps < max(n_keys // 4, 8)
        ]

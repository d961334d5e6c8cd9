"""The index interface every structure in the benchmark implements."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.core.bounds import SearchBound
from repro.memsim.memory import AddressSpace, TracedArray
from repro.memsim.tracer import NULL_TRACER, Tracer


@dataclass(frozen=True)
class Capabilities:
    """Capability row for the paper's Table 1."""

    updates: bool
    ordered: bool
    kind: str  # "Learned", "Tree", "Trie", "Hash", "Hybrid hash/trie", ...


class SortedDataIndex(abc.ABC):
    """An approximate index over a sorted integer array.

    Lifecycle: construct with hyperparameters, then :meth:`build` against a
    :class:`~repro.memsim.TracedArray` of sorted keys that lives in some
    :class:`~repro.memsim.AddressSpace`.  The index allocates its own
    internal arrays from the same space (so the cache simulator sees every
    structure at distinct addresses) and registers them for size
    accounting.

    ``lookup(key, tracer)`` must return a bound containing ``LB(key)`` for
    *every* integer key, present or absent (hash tables are the documented
    exception; see :attr:`point_only`).
    """

    #: Registry name, e.g. "RMI"; set by subclasses.
    name: str = "abstract"
    capabilities: Capabilities = Capabilities(updates=False, ordered=True, kind="?")
    #: True for structures that only support lookups of present keys.
    point_only: bool = False

    def __init__(self) -> None:
        self._arrays: List[TracedArray] = []
        self._extra_bytes: int = 0
        self._data: Optional[TracedArray] = None
        self.build_seconds: float = 0.0
        #: Seconds of work this build reused from an earlier one instead
        #: of repeating it (RMI's root fit, see ``models.fit_root``);
        #: ``build`` charges them to ``build_seconds``.
        self.reused_seconds: float = 0.0

    # -- construction -----------------------------------------------------

    @abc.abstractmethod
    def _build(self, data: TracedArray, space: AddressSpace) -> None:
        """Populate internal structures from the sorted key array."""

    def build(
        self,
        data: Union[TracedArray, Sequence, np.ndarray],
        space: Optional[AddressSpace] = None,
    ) -> "SortedDataIndex":
        """Build the index; returns self.

        ``data`` may be a raw sorted sequence for convenience, in which
        case a private address space is created.
        """
        import time

        if not isinstance(data, TracedArray):
            if space is None:
                space = AddressSpace()
            arr = np.asarray(data)
            if arr.dtype != np.uint32:  # keep 32-bit data 32-bit
                arr = arr.astype(np.uint64)
            data = TracedArray.allocate(space, arr, name="data")
        elif space is None:
            raise ValueError(
                "an AddressSpace is required when building from a TracedArray"
            )
        self._data = data
        self.reused_seconds = 0.0
        start = time.perf_counter()
        self._build(data, space)
        self.build_seconds = time.perf_counter() - start + self.reused_seconds
        return self

    # -- lookup ------------------------------------------------------------

    @abc.abstractmethod
    def lookup(self, key: int, tracer: Tracer = NULL_TRACER) -> SearchBound:
        """Return a valid search bound for ``key``."""

    # -- accounting --------------------------------------------------------

    def _register(self, arr: TracedArray) -> TracedArray:
        """Record an internal array for size accounting; returns it."""
        self._arrays.append(arr)
        return arr

    def _register_bytes(self, nbytes: int) -> None:
        """Record non-array overhead (headers, scalars) for size accounting."""
        self._extra_bytes += nbytes

    def size_bytes(self) -> int:
        """In-memory footprint of the index (excluding the data array)."""
        return sum(a.nbytes for a in self._arrays) + self._extra_bytes

    def size_mb(self) -> float:
        return self.size_bytes() / (1024.0 * 1024.0)

    @property
    def data(self) -> TracedArray:
        if self._data is None:
            raise RuntimeError(f"{self.name} has not been built")
        return self._data

    @property
    def n_keys(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        built = self._data is not None
        size = f", {self.size_mb():.3f} MB" if built else " (unbuilt)"
        return f"<{type(self).__name__}{size}>"

"""Simulated byte-addressed memory: address allocation and traced arrays.

Indexes allocate their internal arrays from an :class:`AddressSpace` so
that the cache simulator sees realistic addresses: adjacent array elements
share cache lines, distinct structures do not alias each other, and the
in-memory footprint of a structure is exactly the sum of its allocations.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

_ALIGN = 64


class AddressSpace:
    """Bump allocator over a simulated byte address space."""

    def __init__(self, base: int = 1 << 20):
        self._next = base
        self._total = 0  # bytes reserved, alignment padding excluded

    def alloc(self, nbytes: int, align: int = _ALIGN) -> int:
        """Reserve ``nbytes`` (aligned) and return the base address."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        base = -(-self._next // align) * align
        self._next = base + nbytes
        self._total += nbytes
        return base

    def alloc_many(self, sizes: Sequence[int]) -> np.ndarray:
        """Reserve one block per entry of ``sizes``, in order.

        Returns the int64 array of bases.  Equivalent to
        ``[alloc(s) for s in sizes]`` -- same bases, same next address,
        same total -- but done in one vectorized bump: every base after
        the first is aligned, so each next base is the previous one plus
        its size rounded up to the alignment, and the bases are one
        ``np.cumsum``.  Nothing is reserved if any size is negative or
        ``sizes`` is not flat.
        """
        steps = np.asarray(sizes, dtype=np.int64)
        if steps.ndim != 1:
            raise ValueError("sizes must be one-dimensional")
        if not len(steps):
            return np.zeros(0, dtype=np.int64)
        if steps.min() < 0:
            raise ValueError("nbytes must be non-negative")
        first = -(-self._next // _ALIGN) * _ALIGN
        aligned = -(-steps[:-1] // _ALIGN) * _ALIGN
        bases = first + np.concatenate(([0], np.cumsum(aligned)))
        self._next = int(bases[-1] + steps[-1])
        self._total += int(steps.sum())
        return bases

    def total_allocated(self) -> int:
        """Bytes reserved so far (alignment padding excluded)."""
        return self._total


class TracedArray:
    """A numpy-backed array living at a simulated address.

    ``get(i, tracer)`` charges the tracer for the load and returns the
    element as a native Python scalar (a plain list mirror is kept because
    Python-level comparisons on native ints are several times faster than
    on numpy scalars, and traced lookups are executed element-at-a-time).
    The mirror is built on the first element read, so arrays that are
    only touched, or only read through ``values``, never pay for it.

    ``values`` exposes the raw numpy array for vectorized, untraced use
    (e.g. building other structures, or batch validity checks).  It must
    not be mutated once the array is allocated: a mirror already built
    would not see the change.
    """

    __slots__ = ("values", "base", "itemsize", "name", "_py")

    def __init__(self, values: np.ndarray, base: int, name: str = "array"):
        if values.ndim != 1:
            raise ValueError("TracedArray is one-dimensional")
        self.values = values
        self.base = base
        self.itemsize = values.dtype.itemsize
        self.name = name
        # The ``_py`` slot stays unset until ``as_list`` fills it.  ``get``
        # catches the unset slot itself: a class ``__getattr__`` would
        # stop CPython 3.11 from specializing attribute loads on the
        # class, doubling the cost of ``get``.

    @classmethod
    def allocate(
        cls,
        space: AddressSpace,
        values: Union[np.ndarray, Sequence],
        name: str = "array",
        dtype: Optional[np.dtype] = None,
    ) -> "TracedArray":
        arr = np.asarray(values, dtype=dtype)
        return cls(arr, space.alloc(arr.nbytes), name=name)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def nbytes(self) -> int:
        return self.values.nbytes

    def addr(self, i: int) -> int:
        return self.base + i * self.itemsize

    def as_list(self) -> list:
        """The values as native Python scalars: the mirror ``get`` reads.

        Built on the first call and kept, so callers must not mutate it.
        """
        try:
            return self._py
        except AttributeError:
            self._py = py = self.values.tolist()
            return py

    def get(self, i: int, tracer) -> Union[int, float]:
        """Read element ``i``, charging ``tracer`` for the load."""
        tracer.read(self.base + i * self.itemsize, self.itemsize)
        try:
            return self._py[i]
        except AttributeError:
            return self.as_list()[i]

    def get_untraced(self, i: int) -> Union[int, float]:
        return self.as_list()[i]

    def touch(self, i: int, tracer) -> None:
        """Charge a load of element ``i`` without returning it."""
        tracer.read(self.base + i * self.itemsize, self.itemsize)

    def get_block(self, start: int, count: int, tracer) -> list:
        """Read ``count`` consecutive elements as one contiguous access.

        Used for multi-field records (e.g. an RMI leaf's slope/intercept/
        error) that occupy adjacent bytes: the tracer sees a single read
        spanning the record, touching one or two cache lines.
        """
        tracer.read(self.base + start * self.itemsize, count * self.itemsize)
        return self.as_list()[start : start + count]

"""Validity checking: every index must bound the true lower bound.

The paper requires an index to return a search bound containing ``LB(x)``
for every possible lookup key (Section 2).  ``validate_index`` checks an
index against arbitrary probe keys, including absent keys and keys outside
the data range, and reports the first violation.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.core.interface import SortedDataIndex


@dataclass
class ValidationFailure:
    key: int
    true_position: int
    bound_lo: int
    bound_hi: int

    def __str__(self) -> str:
        return (
            f"key {self.key}: LB position {self.true_position} outside "
            f"bound [{self.bound_lo}, {self.bound_hi})"
        )


def validate_index(
    index: SortedDataIndex,
    probe_keys: Iterable[int],
    require_present: bool = False,
) -> Optional[ValidationFailure]:
    """Check bound validity for each probe key; return first failure or None.

    ``require_present`` restricts checking to keys present in the data
    (used for point-only structures such as hash tables).
    """
    keys = index.data.as_list()
    key_set = set(keys) if require_present else None
    for key in probe_keys:
        key = int(key)  # accept numpy scalars without overflow surprises
        if key_set is not None and key not in key_set:
            continue
        true_pos = bisect.bisect_left(keys, key)
        bound = index.lookup(key)
        if not bound.contains(true_pos):
            return ValidationFailure(key, true_pos, bound.lo, bound.hi)
    return None

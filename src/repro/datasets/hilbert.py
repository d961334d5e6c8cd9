"""Vectorized 2-D Hilbert curve encoder.

Used by the ``osm`` dataset generator: OpenStreetMap cell IDs are positions
along a space-filling curve over the Earth's surface, and the paper
attributes the dataset's difficulty to exactly this projection ("an
artifact of the technique used to project the Earth into one-dimensional
space (a Hilbert curve)").  We therefore generate clustered 2-D points and
encode them with a real Hilbert curve rather than sampling some arbitrary
rough distribution.
"""

from __future__ import annotations

import numpy as np


def _level_tables():
    """Digit and next state of one curve level, by ``state << 2 | xb << 1 | yb``.

    The classic rotate-and-accumulate loop reads the coordinates' bits
    (rx, ry) at each level, adds the digit ``(3 * rx) ^ ry``, and when
    ry is 0 complements the low bits of both coordinates if rx is 1,
    then swaps them.  A state is what those moves have done so far to
    the original bits ``(xb, yb)``: bit 0 says they are swapped, bit 1
    that both are complemented.  The two moves commute, so the next
    state XORs them in.
    """
    digit = np.zeros(16, dtype=np.uint64)
    step = np.zeros(16, dtype=np.uint8)
    for state in range(4):
        swapped, complemented = state & 1, state >> 1
        for xb in (0, 1):
            for yb in (0, 1):
                rx, ry = (yb, xb) if swapped else (xb, yb)
                rx ^= complemented
                ry ^= complemented
                i = state << 2 | xb << 1 | yb
                digit[i] = (3 * rx) ^ ry
                if ry == 0:
                    step[i] = (swapped ^ 1) | (complemented ^ rx) << 1
                else:
                    step[i] = state
    return digit, step


_DIGIT, _STEP = _level_tables()


def hilbert_d_from_xy(order: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Map integer grid coordinates to Hilbert-curve distance.

    Parameters
    ----------
    order:
        Curve order; the grid is ``2**order`` on a side and distances fit
        in ``2 * order`` bits.  Must satisfy ``1 <= order <= 31``.
    x, y:
        Integer arrays in ``[0, 2**order)``.

    Returns
    -------
    np.ndarray of uint64 distances along the curve.

    The classic iterative rotate-and-accumulate algorithm, run as a
    four-state machine over the coordinates' bits from the top level
    down (see :func:`_level_tables`), vectorized over numpy arrays.
    """
    if not 1 <= order <= 31:
        raise ValueError(f"order must be in [1, 31], got {order}")
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    side = np.int64(1) << order
    if x.min(initial=0) < 0 or y.min(initial=0) < 0:
        raise ValueError("coordinates must be non-negative")
    if x.max(initial=0) >= side or y.max(initial=0) >= side:
        raise ValueError(f"coordinates must be < 2**order = {side}")

    d = np.zeros(x.shape, dtype=np.uint64)
    state = np.zeros(x.shape, dtype=np.uint8)
    two = np.uint64(2)
    for level in range(order - 1, -1, -1):
        i = (state << 2) | (((x >> level) & 1) << 1 | (y >> level) & 1).astype(
            np.uint8
        )
        d <<= two
        d |= _DIGIT[i]
        state = _STEP[i]
    return d


def hilbert_xy_from_d(order: int, d: np.ndarray) -> tuple:
    """Inverse mapping (distance -> grid coordinates); used for testing."""
    if not 1 <= order <= 31:
        raise ValueError(f"order must be in [1, 31], got {order}")
    t = np.asarray(d, dtype=np.int64).copy()
    x = np.zeros(t.shape, dtype=np.int64)
    y = np.zeros(t.shape, dtype=np.int64)
    s = np.int64(1)
    side = np.int64(1) << order
    while s < side:
        rx = 1 & (t // 2)
        ry = 1 & (t ^ rx)

        swap = ry == 0
        flip = swap & (rx == 1)
        x_f = x[flip]
        y_f = y[flip]
        x[flip] = s - 1 - x_f
        y[flip] = s - 1 - y_f
        x_s = x[swap]
        x[swap] = y[swap]
        y[swap] = x_s

        x += s * rx
        y += s * ry
        t //= 4
        s <<= 1
    return x, y

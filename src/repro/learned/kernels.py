"""Vectorized batch-predict kernels for the learned and baseline indexes.

The scalar ``lookup`` methods of RMI, PGM and RadixSpline are pure
arithmetic over a handful of array reads -- exactly the shape numpy
vectorizes.  So are the SOSD baselines' descents: binary search (BS),
radix binary search (RBS), the BTree, IBTree and FAST trees, and ART's
trie descent, in which each key is descending, walking a rightmost
spine, or done, and every live key visits one node per step.  So are
the hash tables' probes: RobinHash's linear probing, one slot per key
and step, and CuckooMap's two buckets.  Each kernel here maps a batch
of lookup keys to the same ``(lo, hi)`` search-bound arrays the scalar
path produces, *bit for bit*: every float operation is performed in the
same order on the same IEEE-754 doubles (``models.py`` already
guarantees scalar/batch parity for the model evaluations themselves),
integer truncation uses ``astype(int64)`` whose truncate-toward-zero
matches Python ``int()``, and unsigned key differences reproduce
Python's exact big-int-to-float rounding via uint64 wrap arithmetic.
Where float64 cannot reproduce the scalar arithmetic (IBTree's big-int
interpolation), the kernel evaluates the scalar expression per key.

Alongside the bounds, a kernel can synthesize the *event stream* of each
lookup into an :class:`EventSink` -- the same reads/instrs/branches the
scalar lookup would emit, in the same per-key order.  That is sound for
the same reason trace record-replay is sound (tracer calls return
``None``; see ``repro.memsim.trace``): the stream is a pure function of
the index contents and the key.  The harness's batched measure path
(``bench/harness.py``) compiles those streams into replay plans
(:meth:`BatchLookups.plan`, through
:func:`~repro.memsim.trace.compile_plan`) and replays them on the fast
engine (``FastEngine.replay``), so a measured cell is one kernel call
plus two plan replays instead of N Python lookups.

Event columns: keys proceed through the synthesized control flow in
lockstep, one column per step; keys not executing a step (shorter binary
searches, early returns) are simply inactive in that column.  A key's
chronological event order is its active columns in column order, so the
per-key stream equals the scalar stream exactly.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.learned.pgm import PGMIndex, _REC as _PGM_REC
from repro.learned.pgm import _PRED_INSTR, _SEARCH_STEP_INSTR
from repro.learned.radix_spline import RadixSplineIndex
from repro.learned.radix_spline import _INTERP_INSTR, _PREFIX_INSTR
from repro.learned.rmi import RMIIndex, _REC as _RMI_REC
from repro.learned.rmi import _BOUND_INSTR, _ROUTE_INSTR
from repro.memsim.engine import SiteInterner
from repro.memsim.trace import K_BRANCH, K_INSTR, K_READ, Trace, compile_plan

if TYPE_CHECKING:  # imported where used; see _kernel_table
    from repro.hashing.cuckoo import CuckooMapIndex
    from repro.hashing.robinhood import RobinHashIndex
    from repro.traditional.art import ARTIndex
    from repro.traditional.base import SampledIndex
    from repro.traditional.binary_search import BinarySearchIndex
    from repro.traditional.btree import BTreeIndex, IBTreeIndex
    from repro.traditional.fast import FASTIndex
    from repro.traditional.radix_binary_search import RadixBinarySearchIndex

#: Last-mile searches the batched path can synthesize.
BATCH_SEARCHES = ("binary", "linear")

_BINARY_STEP_INSTR = 5  # must match search/last_mile.py
_LINEAR_STEP_INSTR = 3  # must match search/last_mile.py
_LOOP_INSTR = 4  # must match bench/harness.py

#: Guard against int64 overflow in float->int truncation.  Scalar
#: ``int()`` handles any finite float; predictions here are clamped to
#: position ranges (<= n), so +-2^62 is unreachable and the clip is
#: behavior-preserving.
_I64_LO, _I64_HI = float(-(1 << 62)), float(1 << 62)


def _trunc(x: np.ndarray) -> np.ndarray:
    """``int(x)`` per element: truncate toward zero, like C casts do."""
    return np.clip(x, _I64_LO, _I64_HI).astype(np.int64)


class EventSink:
    """Per-key synthesized event streams, grouped by kind as they arrive.

    Instructions are summed per key at once.  Read columns keep their
    order, and branch columns their order within each site; that is all
    a replay's counters depend on (``repro.memsim.trace``).
    """

    __slots__ = ("n", "instr", "reads", "sites")

    def __init__(self, n: int):
        self.n = n
        #: Per-key instruction totals.
        self.instr = np.zeros(n, dtype=np.int64)
        #: (addr, size, mask) per read column; operands scalar or (n,)
        #: arrays, mask None meaning all-active.
        self.reads: List[tuple] = []
        #: Site id -> its (taken, mask) columns, in order.
        self.sites: Dict[int, List[tuple]] = {}

    def emit(self, kind, a, b, mask=None) -> None:
        """Append one column.  Array operands are copied, so a kernel may
        update its arrays in place (``live &= ~hit``) after emitting.
        A branch column's ``a`` is a scalar site id."""
        if kind == K_INSTR:
            self.instr += a if mask is None else np.where(mask, a, 0)
        elif kind == K_READ:
            self.reads.append((_snapshot(a), _snapshot(b), _snapshot(mask)))
        else:
            self.sites.setdefault(a, []).append((_snapshot(b), _snapshot(mask)))


def _block(n: int, cols, dtype) -> np.ndarray:
    """Stack scalar or (n,) columns into one (n, len(cols)) array."""
    out = np.empty((n, len(cols)), dtype=dtype)
    for j, col in enumerate(cols):
        out[:, j] = True if col is None else col
    return out


def _snapshot(operand):
    return operand.copy() if isinstance(operand, np.ndarray) else operand


class _NullSink:
    """Sink for bounds-only kernel calls (no event synthesis)."""

    __slots__ = ()

    def emit(self, kind, a, b, mask=None) -> None:
        pass


NULL_SINK = _NullSink()


def _vec_search_loop(
    sink,
    keys_u64: np.ndarray,
    values: np.ndarray,
    base: int,
    itemsize: int,
    lo: np.ndarray,
    hi: np.ndarray,
    site_id: int,
    le: bool,
    stride: int = 1,
    step_instr: int = _SEARCH_STEP_INSTR,
) -> np.ndarray:
    """Lockstep lower-bound binary search; returns the final ``lo``.

    Replicates the scalar loop's per-step events (instr, probe read,
    branch) for every key still active.  ``le`` selects the comparison
    (``values[mid] <= key`` for PGM's segment search, ``< key`` for
    last-mile/RS lower bound); ``stride`` addresses interleaved records
    (RS spline (key, pos) pairs).
    """
    lo = lo.astype(np.int64, copy=True)
    hi = hi.astype(np.int64, copy=True)
    active = lo < hi
    while active.any():
        mid = (lo + hi) >> 1
        probe = stride * np.where(active, mid, 0)
        v = values[probe]
        right = (v <= keys_u64) if le else (v < keys_u64)
        sink.emit(K_INSTR, step_instr, 0, mask=active)
        sink.emit(K_READ, base + (stride * mid) * itemsize, itemsize, mask=active)
        sink.emit(K_BRANCH, site_id, right, mask=active)
        go = active & right
        lo = np.where(go, mid + 1, lo)
        hi = np.where(active & ~right, mid, hi)
        active = lo < hi
    return lo


# -- per-family bound kernels -------------------------------------------------


def _rmi_bounds(index: RMIIndex, keys: np.ndarray, sink, sites) -> Tuple:
    n = index.n_keys
    kf = keys.astype(np.float64)
    rp = index._root_params
    sink.emit(K_READ, rp.base, len(rp) * rp.itemsize)
    sink.emit(K_INSTR, index.root.eval_instr + _ROUTE_INSTR, 0)
    raw = index.root.predict_batch(keys) * index._route_scale
    if np.isnan(raw).any():
        raise ValueError("RMI root prediction is NaN")  # scalar int() raises too
    b = index.branching
    bucket = np.clip(_trunc(np.clip(raw, -1.0, float(b))), 0, b - 1)

    recs = index._records
    sink.emit(
        K_READ, recs.base + bucket * (_RMI_REC * recs.itemsize),
        _RMI_REC * recs.itemsize,
    )
    sink.emit(K_INSTR, _BOUND_INSTR, 0)
    r = recs.values.reshape(-1, _RMI_REC)[bucket]
    slope, intercept = r[:, 0], r[:, 1]
    err, min_pos, max_pos_plus1 = r[:, 2], r[:, 3], r[:, 4]
    pred = slope * kf + intercept
    pred = np.where(
        pred < min_pos, min_pos, np.where(pred > max_pos_plus1, max_pos_plus1, pred)
    )
    e = _trunc(err)
    ip = _trunc(pred)
    lo = ip - e
    hi = ip + e + 2
    range_lo = _trunc(min_pos)
    range_hi = _trunc(max_pos_plus1) + 1
    lo = np.maximum(lo, range_lo)
    hi = np.minimum(hi, range_hi)
    bad = hi <= lo
    lo = np.where(bad, range_lo, lo)
    hi = np.where(bad, range_hi, hi)
    lo = np.maximum(lo, 0)
    hi = np.minimum(hi, n + 1)
    hi = np.where(hi <= lo, lo + 1, hi)
    return lo, hi


def _signed_diff_f64(keys_u64: np.ndarray, ref_u64: np.ndarray) -> np.ndarray:
    """Exact float64 of the signed int difference ``key - ref``.

    Python's ``float(key - ref)`` rounds the exact big-int difference to
    nearest; uint64->float64 conversion rounds identically, and negation
    is sign-flip-exact, so taking the non-wrapped direction matches bit
    for bit.
    """
    ge = keys_u64 >= ref_u64
    fwd = (keys_u64 - ref_u64).astype(np.float64)
    bwd = (ref_u64 - keys_u64).astype(np.float64)
    return np.where(ge, fwd, -bwd)


def _pgm_bounds(index: PGMIndex, keys: np.ndarray, sink, sites) -> Tuple:
    n = index.n_keys
    site = sites.intern("pgm.search")
    levels = index._levels
    root = levels[0]
    zeros = np.zeros(len(keys), dtype=np.int64)
    seg = _vec_search_loop(
        sink, keys, root.keys.values, root.keys.base, root.keys.itemsize,
        zeros, zeros + root.n_segments, site, le=True,
    )
    seg = np.maximum(seg - 1, 0)

    eps_i = index.epsilon_internal
    for depth, level in enumerate(levels):
        lk, lp = level.keys, level.params
        sink.emit(K_READ, lk.base + seg * lk.itemsize, lk.itemsize)
        sink.emit(
            K_READ, lp.base + seg * (_PGM_REC * lp.itemsize),
            _PGM_REC * lp.itemsize,
        )
        sink.emit(K_INSTR, _PRED_INSTR, 0)
        r = lp.values.reshape(-1, _PGM_REC)[seg]
        slope, intercept, last_pos_plus1 = r[:, 0], r[:, 1], r[:, 2]
        first_key = lk.values[seg]
        pred = intercept + slope * _signed_diff_f64(keys, first_key)
        pred = np.where(
            pred < intercept,
            intercept,
            np.where(pred > last_pos_plus1, last_pos_plus1, pred),
        )
        ip = _trunc(pred)
        if depth == len(levels) - 1:
            lo = np.maximum(ip - index.epsilon - 1, 0)
            hi = np.minimum(ip + index.epsilon + 2, n + 1)
            hi = np.where(hi <= lo, lo + 1, hi)
            return lo, hi
        nxt = levels[depth + 1]
        seg = _vec_search_loop(
            sink, keys, nxt.keys.values, nxt.keys.base, nxt.keys.itemsize,
            np.maximum(ip - eps_i - 2, 0),
            np.minimum(ip + eps_i + 2, nxt.n_segments),
            site, le=True,
        )
        seg = np.maximum(seg - 1, 0)
    raise AssertionError("unreachable")


def _prefix_step(
    sink, keys: np.ndarray, table, shift: int, radix_bits: int, instr: int
) -> Tuple:
    """Radix-table step shared by RS and RBS: ``table[p]``, ``table[p + 1]``
    for each key's clamped ``radix_bits``-bit prefix ``p``."""
    sink.emit(K_INSTR, instr, 0)
    max_prefix = (1 << radix_bits) - 1
    # Clamp in uint64 *before* the signed cast: an unshifted 64-bit key
    # would overflow int64.
    prefix = np.minimum(
        keys >> np.uint64(shift), np.uint64(max_prefix)
    ).astype(np.int64)
    sink.emit(K_READ, table.base + prefix * table.itemsize, table.itemsize)
    sink.emit(K_READ, table.base + (prefix + 1) * table.itemsize, table.itemsize)
    return (
        table.values[prefix].astype(np.int64),
        table.values[prefix + 1].astype(np.int64),
    )


def _rs_bounds(index: RadixSplineIndex, keys: np.ndarray, sink, sites) -> Tuple:
    n = index.n_keys
    site = sites.intern("rs.search")
    spline = index._spline
    n_knots = index._n_knots

    lo, hi = _prefix_step(
        sink, keys, index._radix_table, index._shift, index.radix_bits,
        _PREFIX_INSTR,
    )
    hi = np.minimum(hi + 1, n_knots)
    lo = _vec_search_loop(
        sink, keys, spline.values, spline.base, spline.itemsize,
        lo, hi, site, le=False, stride=2,
    )

    early0 = lo == 0
    early_hi = lo >= n_knots
    normal = ~early0 & ~early_hi
    lo_c = np.maximum(lo, 1)
    sink.emit(
        K_READ, spline.base + 2 * (lo - 1) * spline.itemsize,
        4 * spline.itemsize, mask=normal,
    )
    sink.emit(K_INSTR, _INTERP_INSTR, 0, mask=normal)
    sp = spline.values
    # Gather indices are clamped into range for the masked-out early
    # rows; their values never feed a live lane.
    lo_g = np.minimum(lo_c, n_knots - 1)
    k0 = sp[2 * (lo_c - 1)]
    p0 = sp[2 * (lo_c - 1) + 1]
    k1 = sp[2 * lo_g]
    p1 = sp[2 * lo_g + 1]
    same = k1 == k0
    # For normal rows key > k0 and k1 >= key, so both differences are
    # non-negative; the conversions round exactly like Python float().
    num = (keys - k0).astype(np.float64)
    den = np.where(same, 1.0, (k1 - k0).astype(np.float64))
    p0f = p0.astype(np.float64)
    interp = p0f + (p1 - p0).astype(np.float64) * (num / den)
    pred = np.where(same, p0f, interp)
    ip = _trunc(pred)
    b_lo = np.maximum(ip - index.epsilon - 1, 0)
    b_hi = np.minimum(ip + index.epsilon + 2, n + 1)
    b_hi = np.where(b_hi <= b_lo, b_lo + 1, b_hi)
    out_lo = np.where(early0, 0, np.where(early_hi, max(n - 1, 0), b_lo))
    out_hi = np.where(early0, min(2, n + 1), np.where(early_hi, n + 1, b_hi))
    return out_lo, out_hi


# -- baseline kernels ----------------------------------------------------------


def _bs_bounds(index: BinarySearchIndex, keys: np.ndarray, sink, sites) -> Tuple:
    m = len(keys)
    return (
        np.zeros(m, dtype=np.int64),
        np.full(m, index.n_keys + 1, dtype=np.int64),
    )


def _rbs_bounds(
    index: RadixBinarySearchIndex, keys: np.ndarray, sink, sites
) -> Tuple:
    from repro.traditional.radix_binary_search import _LOOKUP_INSTR

    lo, hi = _prefix_step(
        sink, keys, index._table, index._shift, index.radix_bits, _LOOKUP_INSTR
    )
    return lo, np.minimum(hi, index.n_keys) + 1


def _sampled_bounds(index: SampledIndex, j: np.ndarray) -> Tuple:
    """``SampledIndex.lookup``'s bound for each predecessor sample ``j``."""
    gap = index.gap
    miss = j < 0
    lo = np.where(miss, 0, j * gap)
    hi = np.where(miss, 1, np.minimum((j + 1) * gap, index.n_keys) + 1)
    return lo, hi


def _tree_descend(index, keys: np.ndarray, sink, node_pred, descend_instr):
    """The implicit k-ary trees' ``_predecessor``, level by level.

    ``node_pred(level, lo, hi, mask)`` is the vectorized node search:
    the predecessor index in ``[lo, hi)``, or ``lo - 1``.  A key whose
    root search finds no predecessor returns -1 there and is masked out
    of the levels below (its ``lo``/``hi`` are zeroed, ``mask`` clears
    it; ``mask`` is None while every key is still descending).
    """
    levels = index._levels
    fanout = index.fanout
    root = levels[-1]
    zeros = np.zeros(len(keys), dtype=np.int64)
    pos = node_pred(root, zeros, zeros + len(root), None)
    alive = pos >= 0
    mask = None if alive.all() else alive
    for depth in range(len(levels) - 2, -1, -1):
        level = levels[depth]
        sink.emit(K_INSTR, descend_instr, 0, mask=mask)
        lo = pos * fanout
        hi = np.minimum(lo + fanout, len(level))
        if mask is not None:
            lo = np.where(mask, lo, 0)
            hi = np.where(mask, hi, 0)
        pos = node_pred(level, lo, hi, mask)
    return pos if mask is None else np.where(mask, pos, -1)


def _btree_bounds(index: BTreeIndex, keys: np.ndarray, sink, sites) -> Tuple:
    from repro.traditional.btree import _DESCEND_INSTR, _NODE_SEARCH_STEP_INSTR

    site = sites.intern("btree.node")

    def node_pred(level, lo, hi, mask):
        # Masked keys have lo == hi, so the search never activates them.
        return _vec_search_loop(
            sink, keys, level.values, level.base, level.itemsize, lo, hi,
            site, le=True, step_instr=_NODE_SEARCH_STEP_INSTR,
        ) - 1

    return _sampled_bounds(
        index, _tree_descend(index, keys, sink, node_pred, _DESCEND_INSTR)
    )


def _fast_bounds(index: FASTIndex, keys: np.ndarray, sink, sites) -> Tuple:
    instr = 12 * index._simd_ops_per_node + 10
    lanes = np.arange(index.fanout)

    def node_pred(level, lo, hi, mask):
        # One blocked read of the node, the SIMD sequence, and the count
        # of node keys <= the probe (a node holds at most `fanout` keys).
        isz = level.itemsize
        sink.emit(K_READ, level.base + lo * isz, (hi - lo) * isz, mask=mask)
        sink.emit(K_INSTR, instr, 0, mask=mask)
        cols = lo[:, None] + lanes
        inside = cols < hi[:, None]
        node = level.values[np.minimum(cols, len(level) - 1)]
        count = np.count_nonzero(inside & (node <= keys[:, None]), axis=1)
        return lo + count - 1

    return _sampled_bounds(
        index, _tree_descend(index, keys, sink, node_pred, 2)
    )


def _ibtree_bounds(index: IBTreeIndex, keys: np.ndarray, sink, sites) -> Tuple:
    from repro.traditional.btree import _DESCEND_INSTR, _INTERP_PROBE_INSTR

    s_low = sites.intern("ibtree.low")
    s_high = sites.intern("ibtree.high")
    s_scan = sites.intern("ibtree.scan")
    everyone = np.ones(len(keys), dtype=bool)

    def node_pred(level, lo, hi, mask):
        vals, base, isz = level.values, level.base, level.itemsize
        live = everyone if mask is None else mask
        first = vals[lo]
        sink.emit(K_READ, base + lo * isz, isz, mask=mask)
        low = keys < first
        sink.emit(K_BRANCH, s_low, low, mask=mask)
        on = live & ~low
        last_i = np.maximum(hi - 1, 0)
        last = vals[last_i]
        sink.emit(K_READ, base + last_i * isz, isz, mask=on)
        high = keys >= last
        sink.emit(K_BRANCH, s_high, high, mask=on)
        pos = np.where(low, lo - 1, hi - 1)
        inner = on & ~high
        if not inner.any():
            return pos

        # The interpolation probe, per key, in the scalar code's own
        # expression: `int * int / int` is exact big-int arithmetic
        # rounded once, which float64 cannot reproduce.
        sink.emit(K_INSTR, _INTERP_PROBE_INSTR, 0, mask=inner)
        rows = np.flatnonzero(inner)
        found = []
        for l, h, k, f, la in zip(
            lo[rows].tolist(), hi[rows].tolist(), keys[rows].tolist(),
            first[rows].tolist(), last[rows].tolist(),
        ):
            span = la - f
            p = l + int((h - 1 - l) * (k - f) / span) if span else l
            found.append(min(max(p, l), h - 2))
        probe = lo.copy()
        probe[rows] = found
        sink.emit(K_READ, base + probe * isz, isz, mask=inner)

        # Fix-up scans in lockstep: a forward key reads pos + 1 and steps
        # while it is <= the key; a backward key reads pos and steps down
        # until it is.
        fwd = inner & (vals[probe] <= keys)
        bwd = inner & ~fwd
        pos = np.where(fwd, probe, np.where(bwd, probe - 1, pos))
        active = (fwd & (pos + 1 < hi)) | (bwd & (pos > lo))
        while active.any():
            at = np.where(fwd, pos + 1, pos)
            le = vals[np.where(active, at, 0)] <= keys
            sink.emit(K_INSTR, 2, 0, mask=active)
            sink.emit(K_READ, base + at * isz, isz, mask=active)
            sink.emit(K_BRANCH, s_scan, le, mask=active)
            up = active & fwd & le
            down = active & bwd & ~le
            pos = pos + up - down
            active = (up & (pos + 1 < hi)) | (down & (pos > lo))
        # The scalar backward scan closes with an untraced check that
        # `level[pos] <= key`; it always holds here, since the scan
        # stops at such a key or at `lo`, whose key `first` is <= key.
        return pos

    return _sampled_bounds(
        index, _tree_descend(index, keys, sink, node_pred, _DESCEND_INSTR)
    )


def _art_predecessor(index: ARTIndex, keys: np.ndarray, sink, sites):
    """ART's ``_predecessor`` for the whole batch, one node per step.

    Each key is descending, walking a rightmost spine
    (``_rightmost_leaf``) or done.  A step visits one node per live key:
    the ``_visit_cost`` columns (spine keys skip them at a leaf), the
    leaf read, the ``art.leafcmp``/``art.prefix``/``art.childhit``
    branches, then one ``_child_read`` column.  A key that leaves the
    descent starts its spine walk in the next step, at the node the
    scalar lookup hands to ``_rightmost_leaf``.
    """
    from repro.traditional.art import (
        _HEADER, _LEAF_BYTES, _SEARCH_INSTR, _SEARCH_READ,
    )

    s_leaf = sites.intern("art.leafcmp")
    s_prefix = sites.intern("art.prefix")
    s_child = sites.intern("art.childhit")
    search_read = np.zeros(257, dtype=np.int64)
    search_instr = np.zeros(257, dtype=np.int64)
    for cap in _SEARCH_READ:
        search_read[cap] = _SEARCH_READ[cap]
        search_instr[cap] = _SEARCH_INSTR[cap]

    width = index._width
    leaf_addr = index._leaf_addr
    leaf_key = index._leaf_key.astype(np.uint64)
    # Keys wider than the trie's keys start on the root's spine.
    spine = np.zeros(len(keys), dtype=bool)
    if width < 8:
        spine = keys >= np.uint64(1 << (8 * width))
    desc = ~spine
    if index._root < 0:  # one sample: the root is its leaf
        sink.emit(K_READ, leaf_addr[0], _HEADER, mask=desc)
        sink.emit(K_INSTR, 3, 0, mask=desc)
        sink.emit(K_READ, leaf_addr[0], _LEAF_BYTES)
        ge = keys >= leaf_key[0]
        sink.emit(K_BRANCH, s_leaf, ge, mask=desc)
        return np.where(spine | ge, 0, -1)

    cap_of, node_addr = index._cap, index._node_addr
    first_child, child_ids = index._first_child, index._child_ids
    # Child slots sorted by (parent, byte): one searchsorted finds them.
    child_key = np.repeat(
        np.arange(len(cap_of)) * 256, np.diff(first_child)
    ) + index._child_bytes
    n_child = len(child_key)

    k = len(keys)
    node = np.full(k, index._root, dtype=np.int64)
    best = np.zeros(k, dtype=np.int64)
    has_best = np.zeros(k, dtype=bool)
    j = np.full(k, -1, dtype=np.int64)
    while True:
        inner = node >= 0
        ni = np.where(inner, node, 0)
        li = np.where(inner, 0, ~node)
        cap = cap_of[ni]
        addr = np.where(inner, node_addr[ni], leaf_addr[li])

        # _visit_cost: header, prefix instructions, child-array search.
        visit = desc | (spine & inner)
        at_node = visit & inner
        sink.emit(K_READ, addr, _HEADER, mask=visit)
        sink.emit(
            K_INSTR, np.where(inner, 3 + index._prefix_len[ni], 3), 0,
            mask=visit,
        )
        sink.emit(
            K_READ, addr + _HEADER, search_read[cap],
            mask=at_node & (cap != 256),
        )
        sink.emit(K_INSTR, search_instr[cap], 0, mask=at_node)

        # Leaves: the full-key read, then a descending key's compare.
        at_leaf = (desc | spine) & ~inner
        sink.emit(K_READ, addr, _LEAF_BYTES, mask=at_leaf)
        d_leaf = desc & ~inner
        ge = keys >= leaf_key[li]
        sink.emit(K_BRANCH, s_leaf, ge, mask=d_leaf)

        # Prefix: the key already matches the node's first sample above
        # the prefix, so comparing the bytes above the split depth
        # compares the prefix.  Two shifts, since depth 0 shifts by 64.
        d_in = desc & inner
        depth = index._node_depth[ni]
        above = (8 * (width - depth) - 8).astype(np.uint64)
        kp = (keys >> above) >> np.uint64(8)
        sp = (leaf_key[index._node_first[ni]] >> above) >> np.uint64(8)
        bad = d_in & (kp != sp)
        sink.emit(K_BRANCH, s_prefix, 1, mask=bad)

        # Child slot: the first child byte >= the key's byte at depth.
        go = d_in & ~bad
        byte = (keys >> (8 * (width - 1 - depth)).astype(np.uint64)) & np.uint64(255)
        target = ni * 256 + byte.astype(np.int64)
        i = np.searchsorted(child_key, target)
        start, end = first_child[ni], first_child[ni + 1]
        hit = (i < end) & (child_key[np.minimum(i, n_child - 1)] == target)
        smaller = go & (i > start)
        best = np.where(smaller, child_ids[i - 1], best)
        has_best |= smaller
        sink.emit(K_BRANCH, s_child, hit, mask=go)

        # _child_read: the hit or the smaller sibling, or the spine's
        # last child.
        walk = spine & inner
        slot = np.where(walk, end - 1, np.where(hit, i, i - 1))
        sink.emit(
            K_READ,
            node_addr[ni] + _HEADER + np.where(cap == 256, 0, cap)
            + (slot - start) * 8,
            8,
            mask=walk | (go & (hit | smaller)),
        )

        # Next state.  A failed compare or a missed child falls back to
        # the best smaller sibling's spine, or to -1 without one.
        done = (d_leaf & ge) | (spine & ~inner)
        j = np.where(done, ~node, j)
        fall = (d_leaf & ~ge) | (bad & (kp < sp)) | (go & ~hit)
        descend = go & hit
        node = np.where(
            descend | walk, child_ids[np.minimum(slot, n_child - 1)],
            np.where(fall, best, node),
        )
        spine = walk | (bad & (kp > sp)) | (fall & has_best)
        desc = descend
        if not (desc.any() or spine.any()):
            return j


def _art_bounds(index: ARTIndex, keys: np.ndarray, sink, sites) -> Tuple:
    j = _art_predecessor(index, keys, sink, sites)
    pos = index._sample_pos
    if pos is None:
        return _sampled_bounds(index, j)
    # Adaptive sampling: ARTIndex.lookup's bound between sample positions.
    n = index.n_keys
    miss = j < 0
    jc = np.maximum(j, 0)
    nxt = np.append(pos, n)[jc + 1]
    lo = np.where(miss, 0, pos[jc])
    hi = np.where(miss, 1, np.minimum(nxt, n) + 1)
    return lo, hi


def _robinhash_bounds(
    index: RobinHashIndex, keys: np.ndarray, sink, sites
) -> Tuple:
    """Linear probing in lockstep, one slot per step: the slot read, the
    compare, ``robinhash.hit``, then ``robinhash.early`` on a full slot
    that holds another key.  A key stops at its own key, an empty slot,
    or a resident closer to its home than the key is to its own."""
    from repro.hashing.robinhood import _HASH_INSTR, _PROBE_INSTR, _SLOT_BYTES

    s_hit = sites.intern("robinhash.hit")
    s_early = sites.intern("robinhash.early")
    n, mask = index.n_keys, index._capacity - 1
    table_keys, table_pos = index._keys, index._pos
    sink.emit(K_INSTR, _HASH_INSTR, 0)
    slot = index._homes(keys)
    lo = np.zeros(len(keys), dtype=np.int64)
    hi = np.full(len(keys), n + 1, dtype=np.int64)
    active = np.ones(len(keys), dtype=bool)
    dist = 0
    while True:
        sink.emit(
            K_READ, index._base + slot * _SLOT_BYTES, _SLOT_BYTES, mask=active
        )
        sink.emit(K_INSTR, _PROBE_INSTR, 0, mask=active)
        pos = table_pos[slot]
        full = pos >= 0
        found = active & full & (table_keys[slot] == keys)
        sink.emit(K_BRANCH, s_hit, found, mask=active)
        lo = np.where(found, pos, lo)
        hi = np.where(found, pos + 1, hi)
        probed = active & full & ~found
        early = ((slot - index._homes(table_keys[slot])) & mask) < dist
        sink.emit(K_BRANCH, s_early, early, mask=probed)
        active = probed & ~early
        if not active.any():
            return lo, hi
        slot = (slot + 1) & mask
        dist += 1


def _cuckoo_bounds(
    index: CuckooMapIndex, keys: np.ndarray, sink, sites
) -> Tuple:
    """Bucket one for every key, bucket two for the keys it missed: per
    bucket the key read, the SIMD compare, ``cuckoo.b1``/``cuckoo.b2``,
    and the position read on a hit."""
    from repro.hashing.cuckoo import (
        _BUCKET_BYTES, _BUCKET_KEY_BYTES, _HASH_INSTR, _SIMD_CMP_INSTR,
    )

    n = index.n_keys
    lo = np.zeros(len(keys), dtype=np.int64)
    hi = np.full(len(keys), n + 1, dtype=np.int64)
    live = np.ones(len(keys), dtype=bool)
    sink.emit(K_INSTR, _HASH_INSTR, 0)
    for name, bucket in zip(("cuckoo.b1", "cuckoo.b2"), index._buckets(keys)):
        addr = index._base + bucket * _BUCKET_BYTES
        sink.emit(K_READ, addr, _BUCKET_KEY_BYTES, mask=live)
        sink.emit(K_INSTR, _SIMD_CMP_INSTR, 0, mask=live)
        pos = index._pos[bucket]
        match = (index._keys[bucket] == keys[:, None]) & (pos >= 0)
        hit = match.any(axis=1)
        sink.emit(K_BRANCH, sites.intern(name), hit, mask=live)
        got = live & hit
        s = match.argmax(axis=1)  # the first matching slot
        sink.emit(K_READ, addr + _BUCKET_KEY_BYTES + s * 4, 4, mask=got)
        p = pos[np.arange(len(keys)), s]
        lo = np.where(got, p, lo)
        hi = np.where(got, p + 1, hi)
        live = live & ~hit  # a new array: the sink keeps each mask
    return lo, hi


def _kernel_table() -> dict:
    """Index class -> kernel.

    The baseline classes are imported here, not at module level: the
    harness imports this module at start-up, and importing them there
    would load every traditional index before the first build does.  A
    caller that holds a baseline index has imported them already.
    """
    from repro.hashing.cuckoo import CuckooMapIndex
    from repro.hashing.robinhood import RobinHashIndex
    from repro.traditional.art import ARTIndex
    from repro.traditional.binary_search import BinarySearchIndex
    from repro.traditional.btree import BTreeIndex, IBTreeIndex
    from repro.traditional.fast import FASTIndex
    from repro.traditional.radix_binary_search import RadixBinarySearchIndex

    return {
        RMIIndex: _rmi_bounds,
        PGMIndex: _pgm_bounds,
        RadixSplineIndex: _rs_bounds,
        BinarySearchIndex: _bs_bounds,
        RadixBinarySearchIndex: _rbs_bounds,
        BTreeIndex: _btree_bounds,
        IBTreeIndex: _ibtree_bounds,
        FASTIndex: _fast_bounds,
        ARTIndex: _art_bounds,
        RobinHashIndex: _robinhash_bounds,
        CuckooMapIndex: _cuckoo_bounds,
    }


def supports(index) -> bool:
    """Whether a batch kernel exists for this index (exact class match)."""
    return type(index) in _kernel_table()


def batch_bounds(
    index,
    keys: np.ndarray,
    sink=NULL_SINK,
    sites: Optional[SiteInterner] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Batch of ``index.lookup`` bounds: ``(lo, hi)`` int64 arrays.

    Bit-identical to calling ``index.lookup(key)`` per key.  When a real
    :class:`EventSink` is passed, the model-phase event stream of every
    key is synthesized into it (site names are interned into ``sites``).
    """
    keys = np.ascontiguousarray(keys, dtype=np.uint64)
    if sites is None:
        sites = SiteInterner()
    try:
        kernel = _kernel_table()[type(index)]
    except KeyError:
        raise TypeError(f"no batch kernel for {type(index).__name__}") from None
    return kernel(index, keys, sink, sites)


class _Scan(NamedTuple):
    """Each row's linear last-mile scan, kept as a run of words."""

    at: int  #: read columns before the scan
    site: int  #: ``lastmile.linear``'s site id
    base: int  #: the data array's address (64-byte aligned)
    itemsize: int
    start: np.ndarray  #: per row: the scan's first word (its ``lo``)
    steps: np.ndarray  #: per row: words read
    found: np.ndarray  #: per row: whether the last word stopped the scan


class BatchLookups:
    """Synthesized full-lookup event streams for a batch of keys.

    Covers the harness's entire per-lookup sequence: index model phase,
    last-mile search, loop-body instructions, payload touch.  Rows are
    the key batch.  The kernel columns are grouped once into per-row
    instruction totals, one ``(rows, read columns)`` address/size/valid
    block, and one outcome/valid block per branch site; :meth:`plan`
    compiles a sequence of row lookups from them.  A linear last-mile
    scan is kept as its run (below), not as columns.  :meth:`trace_for`
    gives one row's events as a :class:`Trace`, the tests' oracle.
    """

    __slots__ = ("pos", "lo", "hi", "lg", "instr", "addr", "size", "valid",
                 "sites", "scan")

    def __init__(self, pos, lo, hi, sink: EventSink, scan=None):
        self.pos = pos
        self.lo = lo
        self.hi = hi
        width = (hi - lo).tolist()
        #: Per-row ``log2(len(bound))`` as Python floats (the harness
        #: accumulates these in lookup order, like the scalar loop).
        self.lg = [math.log2(w) if w > 0 else 0.0 for w in width]
        n = sink.n
        self.instr = sink.instr
        self.addr = _block(n, [c[0] for c in sink.reads], np.int64)
        self.size = _block(n, [c[1] for c in sink.reads], np.int64)
        self.valid = _block(n, [c[2] for c in sink.reads], bool)
        self.sites = {
            sid: (_block(n, [c[0] for c in cols], bool),
                  _block(n, [c[1] for c in cols], bool))
            for sid, cols in sink.sites.items()
        }
        #: The rows' linear last-mile scans, else None.
        self.scan = scan

    def _reads(self, idx: np.ndarray):
        """The rows' reads in order, as :func:`compile_plan` takes them:
        ``(addr, size, per-row read counts, runs, repeats)``."""
        valid = self.valid[idx]
        addr = self.addr[idx]
        size = self.size[idx]
        if self.scan is None:
            return addr[valid], size[valid], valid.sum(axis=1), None, 0
        at, base, isz = self.scan.at, self.scan.base, self.scan.itemsize
        start = self.scan.start[idx]
        words = self.scan.steps[idx]
        head = words > 0
        first = (base + start * isz) >> 6
        last = (base + (start + words - 1) * isz) >> 6
        run = head & (last > first)
        # A word never crosses a line (bases are 64-byte aligned), so a
        # scan reads each line's first word, then repeats the line: its
        # other words are pure L1 hits, like K_REPEAT reads.
        repeats = int((words - np.where(head, last - first + 1, 0)).sum())
        # The scan as two more columns: the read of its first line, and
        # a read of its last line standing for the run after the first.
        valid = np.insert(valid, [at, at], np.column_stack([head, run]), axis=1)
        addr = np.insert(
            addr, [at, at], np.column_stack([first << 6, last << 6]), axis=1
        )
        size = np.insert(size, [at, at], isz, axis=1)
        per_row = valid.sum(axis=1)
        # Each run's read: its row's offset, then the reads before it.
        run_at = np.cumsum(per_row) - per_row + valid[:, : at + 1].sum(axis=1)
        runs = (run_at[run], (first + 1)[run])
        return addr[valid], size[valid], per_row, runs, repeats

    def _outcomes(self, idx: np.ndarray):
        """(site id, outcomes in order) for every site the rows branch at."""
        out = [
            (sid, taken[idx][valid[idx]])
            for sid, (taken, valid) in self.sites.items()
        ]
        if self.scan is not None:
            # Each scan step stops at its word or goes on; only a found
            # key's last step stops.
            steps = self.scan.steps[idx]
            taken = np.zeros(int(steps.sum()), dtype=bool)
            taken[(np.cumsum(steps) - 1)[self.scan.found[idx]]] = True
            out.append((self.scan.site, taken))
        return out

    def plan(self, rows, cold: bool = False):
        """The compiled replay plan of these row lookups, in order.

        ``cold`` compiles a cold-cache window: the engine flushes its
        caches before each row (see :func:`compile_plan`).
        """
        idx = np.asarray(rows, dtype=np.int64)
        addr, size, per_row, runs, repeats = self._reads(idx)
        return compile_plan(
            int(self.instr[idx].sum()),
            repeats,
            addr,
            size,
            self._outcomes(idx),
            np.cumsum(per_row) - per_row if cold else None,
            runs,
        )

    def trace_for(self, row: int) -> Trace:
        """One row's events: its instructions, its reads in order (a
        scan's every word), then each site's branches in order."""
        idx = np.array([row])
        valid = self.valid[row]
        addr = self.addr[row][valid]
        size = self.size[row][valid]
        scan = self.scan
        if scan is not None:
            at = int(np.count_nonzero(self.valid[row, : scan.at]))
            words = scan.base + (
                scan.start[row] + np.arange(scan.steps[row])
            ) * scan.itemsize
            addr = np.concatenate([addr[:at], words, addr[at:]])
            size = np.concatenate(
                [size[:at], np.full(len(words), scan.itemsize), size[at:]]
            )
        sites = self._outcomes(idx)
        return Trace(
            np.concatenate([
                [K_INSTR],
                np.full(len(addr), K_READ),
                *(np.full(len(t), K_BRANCH) for _, t in sites),
            ]),
            np.concatenate([
                [self.instr[row]], addr, *(np.full(len(t), s) for s, t in sites)
            ]),
            np.concatenate([[0], size, *(t for _, t in sites)]),
        )


def batch_lookups(
    index,
    data,
    payloads,
    keys: np.ndarray,
    search: str,
    sites: SiteInterner,
) -> BatchLookups:
    """Synthesize complete lookup event streams + results for ``keys``.

    ``search`` must be in :data:`BATCH_SEARCHES`.  The per-key stream is
    exactly what ``bench.harness.measure``'s ``one_lookup`` feeds the
    tracer (phase markers are never recorded), so replaying it is
    counter-identical to executing the lookup.

    A linear scan (``last_mile.linear_search``) reads the words from its
    bound's ``lo`` up to where it stops, each with an instruction charge
    and a ``lastmile.linear`` branch.  Its stop position, word count and
    whether it found the key follow from one ``searchsorted``, so no
    step is synthesized: :meth:`BatchLookups.plan` turns it into one
    read per line, repeats, and a run of outcomes.
    """
    if search not in BATCH_SEARCHES:
        raise ValueError(f"no batched synthesis for search {search!r}")
    keys = np.ascontiguousarray(keys, dtype=np.uint64)
    n = len(data)
    sink = EventSink(len(keys))
    lo, hi = batch_bounds(index, keys, sink, sites)
    end = np.minimum(hi, n)

    scan = None
    if search == "binary":
        # Last-mile binary search over the data array
        # (last_mile.binary_search).
        pos = _vec_search_loop(
            sink, keys, data.values, data.base, data.itemsize,
            lo, end, sites.intern("lastmile.binary"), le=False,
            step_instr=_BINARY_STEP_INSTR,
        )
    else:
        # The scan stops at the first word >= the key in [lo, end), or
        # at end; an empty bound (lo >= end) returns lo unread.
        pos = np.minimum(
            np.maximum(np.searchsorted(data.values, keys), lo),
            np.maximum(end, lo),
        )
        found = pos < end
        steps = pos - lo + found
        sink.emit(K_INSTR, _LINEAR_STEP_INSTR * steps, 0)
        scan = _Scan(
            len(sink.reads), sites.intern("lastmile.linear"), data.base,
            data.itemsize, lo, steps, found,
        )

    # Harness loop tail: bookkeeping instructions + payload read.
    sink.emit(K_INSTR, _LOOP_INSTR, 0)
    sink.emit(
        K_READ, payloads.base + pos * payloads.itemsize, payloads.itemsize,
        mask=pos < n,
    )
    return BatchLookups(pos, lo, hi, sink, scan)

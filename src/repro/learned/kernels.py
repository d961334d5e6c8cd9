"""Vectorized batch-predict kernels for the learned and baseline indexes.

The scalar ``lookup`` methods of RMI, PGM and RadixSpline are pure
arithmetic over a handful of array reads -- exactly the shape numpy
vectorizes.  So are the SOSD baselines' descents: binary search (BS),
radix binary search (RBS), and the BTree, IBTree and FAST trees.  Each
kernel here maps a batch of lookup keys to the same ``(lo, hi)``
search-bound arrays the scalar path produces, *bit for bit*: every
float operation is performed in the same order on the same IEEE-754
doubles (``models.py`` already guarantees scalar/batch parity for the
model evaluations themselves), integer truncation uses
``astype(int64)`` whose truncate-toward-zero matches Python ``int()``,
and unsigned key differences reproduce Python's exact big-int-to-float
rounding via uint64 wrap arithmetic.  Where float64 cannot reproduce
the scalar arithmetic (IBTree's big-int interpolation), the kernel
evaluates the scalar expression per key.

Alongside the bounds, a kernel can synthesize the *event stream* of each
lookup into an :class:`EventSink` -- the same reads/instrs/branches the
scalar lookup would emit, in the same per-key order.  That is sound for
the same reason trace record-replay is sound (tracer calls return
``None``; see ``repro.memsim.trace``): the stream is a pure function of
the index contents and the key.  The harness's batched measure path
(``bench/harness.py``) turns those streams into
:class:`~repro.memsim.trace.Trace` objects and replays them on the fast
engine (``FastEngine.replay``), so a measured cell is one kernel call
plus compiled-plan replays instead of N Python lookups.

Event columns: keys proceed through the synthesized control flow in
lockstep, one column per step; keys not executing a step (shorter binary
searches, early returns) are simply inactive in that column.  A key's
chronological event order is its active columns in column order, so the
per-key stream equals the scalar stream exactly.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.learned.pgm import PGMIndex, _REC as _PGM_REC
from repro.learned.pgm import _PRED_INSTR, _SEARCH_STEP_INSTR
from repro.learned.radix_spline import RadixSplineIndex
from repro.learned.radix_spline import _INTERP_INSTR, _PREFIX_INSTR
from repro.learned.rmi import RMIIndex, _REC as _RMI_REC
from repro.learned.rmi import _BOUND_INSTR, _ROUTE_INSTR
from repro.memsim.engine import SiteInterner
from repro.memsim.trace import K_BRANCH, K_INSTR, K_READ, Trace

if TYPE_CHECKING:  # imported where used; see _kernel_table
    from repro.traditional.base import SampledIndex
    from repro.traditional.binary_search import BinarySearchIndex
    from repro.traditional.btree import BTreeIndex, IBTreeIndex
    from repro.traditional.fast import FASTIndex
    from repro.traditional.radix_binary_search import RadixBinarySearchIndex

#: Last-mile searches the batched path can synthesize.
BATCH_SEARCHES = ("binary",)

_BINARY_STEP_INSTR = 5  # must match search/last_mile.py
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
    """Column-wise accumulator for per-key synthesized event streams."""

    __slots__ = ("n", "_cols")

    def __init__(self, n: int):
        self.n = n
        #: (kind, a, b, mask) per column; a/b scalar or (n,) array,
        #: mask None meaning all-active.
        self._cols: List[tuple] = []

    def emit(self, kind, a, b, mask=None) -> None:
        self._cols.append((kind, a, b, mask))

    def matrices(self):
        """Stack columns into (n, steps) kinds/a/b/valid matrices."""
        n, s = self.n, len(self._cols)
        kinds = np.empty((n, s), dtype=np.uint8)
        a = np.empty((n, s), dtype=np.int64)
        b = np.empty((n, s), dtype=np.int64)
        valid = np.empty((n, s), dtype=bool)
        for j, (kind, ca, cb, mask) in enumerate(self._cols):
            kinds[:, j] = kind
            a[:, j] = ca
            b[:, j] = cb
            valid[:, j] = True if mask is None else mask
        return kinds, a, b, valid


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


def _kernel_table() -> dict:
    """Index class -> kernel.

    The baseline classes are imported here, not at module level: the
    harness imports this module at start-up, and importing them there
    would load every traditional index before the first build does.  A
    caller that holds a baseline index has imported them already.
    """
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


class BatchLookups:
    """Synthesized full-lookup event streams for a batch of keys.

    Covers the harness's entire per-lookup sequence: index model phase,
    last-mile search, loop-body instructions, payload touch.  Rows are
    the key batch; :meth:`mega_trace` concatenates per-row streams into
    one replayable :class:`Trace` (row order = lookup order), and
    :meth:`trace_for` gives a single row's trace (cached, so its replay
    plan is built once).
    """

    __slots__ = ("pos", "lo", "hi", "lg", "_kinds", "_a", "_b", "_valid",
                 "_row_traces")

    def __init__(self, pos, lo, hi, lg, kinds, a, b, valid):
        self.pos = pos
        self.lo = lo
        self.hi = hi
        #: Per-row ``log2(len(bound))`` as Python floats (the harness
        #: accumulates these in lookup order, like the scalar loop).
        self.lg = lg
        self._kinds = kinds
        self._a = a
        self._b = b
        self._valid = valid
        self._row_traces: Dict[int, Trace] = {}

    def mega_trace(self, rows) -> Trace:
        """One Trace for a sequence of row lookups, in order."""
        idx = np.asarray(rows, dtype=np.int64)
        mask = self._valid[idx]
        return Trace(
            self._kinds[idx][mask], self._a[idx][mask], self._b[idx][mask]
        )

    def trace_for(self, row: int) -> Trace:
        t = self._row_traces.get(row)
        if t is None:
            mask = self._valid[row]
            t = Trace(
                self._kinds[row][mask], self._a[row][mask], self._b[row][mask]
            )
            self._row_traces[row] = t
        return t


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
    """
    if search not in BATCH_SEARCHES:
        raise ValueError(f"no batched synthesis for search {search!r}")
    keys = np.ascontiguousarray(keys, dtype=np.uint64)
    n = len(data)
    sink = EventSink(len(keys))
    lo, hi = batch_bounds(index, keys, sink, sites)

    # Last-mile binary search over the data array (last_mile.binary_search).
    site = sites.intern("lastmile.binary")
    pos = _vec_search_loop(
        sink, keys, data.values, data.base, data.itemsize,
        lo, np.minimum(hi, n), site, le=False,
        step_instr=_BINARY_STEP_INSTR,
    )

    # Harness loop tail: bookkeeping instructions + payload read.
    sink.emit(K_INSTR, _LOOP_INSTR, 0)
    sink.emit(
        K_READ, payloads.base + pos * payloads.itemsize, payloads.itemsize,
        mask=pos < n,
    )

    width = (hi - lo).tolist()
    lg = [math.log2(w) if w > 0 else 0.0 for w in width]
    kinds, a, b, valid = sink.matrices()
    return BatchLookups(pos, lo, hi, lg, kinds, a, b, valid)

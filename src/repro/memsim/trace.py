"""Traces: a lookup's event stream as typed arrays, and its replay plan.

A measured lookup is a sequence of ``read``/``instr``/``branch`` calls
into the tracer.  All three return ``None``, so index code cannot
observe simulator state -- the event stream for a given (index, key,
search function) is a pure function of the index contents, independent
of cache/TLB/predictor state.  That makes replay sound: re-running a
recorded stream through an engine produces byte-identical counters to
re-executing the index Python, without paying for the index Python.

:class:`Trace` is the input of :meth:`FastEngine.replay
<repro.memsim.engine.FastEngine>`.  The batched measure path builds its
traces from kernel-synthesized streams (``repro.learned.kernels``);
:class:`TraceRecorder` captures the same format from live index code,
which is how tests record oracle streams for
:meth:`ReferenceEngine.replay <repro.memsim.engine.ReferenceEngine.replay>`.

Events are stored as three parallel typed arrays (kind: uint8;
two int64 operands); :meth:`Trace.lists` materializes plain-int lists
once for the reference engine's event loop, and :meth:`Trace.plan`
compiles the arrays once into the fast engine's replay plan.

The plan exploits three exact order-independence properties of the
simulator:

* ``instr``/``K_REPEAT`` events and the per-event counter increments of
  reads and branches are pure sums: one ``np.sum`` per kind replaces the
  per-event loop entirely.
* Branch-predictor state is per-site: grouping branch events by site
  and pre-computing, for each site, the misprediction count and final
  2-bit state *for every possible initial state* turns replay into one
  table lookup per site.  For long traces the per-site automaton is
  evaluated with a segmented prefix scan over clamp-function
  compositions (``min(B, max(A, x+T))`` triples, log-depth doubling)
  instead of a Python loop.
* Cache and TLB state change only on reads, and the recorder's MRU
  invariant identifies reads that are *provably* pure L1 hits with zero
  state change (the fast engine's ``ultra_line`` shortcut).  Vectorized
  address decomposition (``>> 6``/``>> 12`` over the whole event array)
  classifies those up front, so the replay loop visits only the
  genuinely state-changing reads, driven by precomputed
  line/page/same-page lists.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.memsim.cache import LINE_SIZE
from repro.memsim.engine import SiteInterner
from repro.memsim.tlb import PAGE_SHIFT
from repro.memsim.tracer import NULL_TRACER, Tracer

# The recorder's repeat-detection shifts (>> 6, >> 12) assume these
# geometry constants, exactly like the fast engine does.
assert LINE_SIZE == 1 << 6 and PAGE_SHIFT == 12

#: Event kinds in a :class:`Trace` (the ``kinds`` array).
K_READ, K_INSTR, K_BRANCH, K_REPEAT = 0, 1, 2, 3


class Trace:
    """One recorded event stream as parallel typed arrays.

    ``kinds[i]`` selects the event; ``a[i]``/``b[i]`` are its operands:
    read -> (addr, size); instr -> (n, 0); branch -> (site id, taken);
    repeat -> (addr, count).  Site ids resolve through the
    :class:`SiteInterner` the recorder was given -- replaying engines
    must share it.

    A *repeat* event stands for ``count`` single-line reads of a line
    the recorder proved were pure L1 hits (see
    :meth:`TraceRecorder.read`); engines may replay it as three counter
    increments per read with zero state changes, or literally as
    ``count`` one-byte reads of ``addr`` -- both are exact.
    """

    __slots__ = ("kinds", "a", "b", "_lists", "_plan")

    def __init__(self, kinds, a, b):
        self.kinds = np.asarray(kinds, dtype=np.uint8)
        self.a = np.asarray(a, dtype=np.int64)
        self.b = np.asarray(b, dtype=np.int64)
        self._lists: Optional[Tuple[list, list, list]] = None
        #: Compiled replay plan, built by the first :meth:`plan` call.
        #: A trace is immutable, so the plan never invalidates.
        self._plan: Optional[_TracePlan] = None

    def __len__(self) -> int:
        return len(self.kinds)

    @property
    def nbytes(self) -> int:
        return self.kinds.nbytes + self.a.nbytes + self.b.nbytes

    def lists(self) -> Tuple[list, list, list]:
        """(kinds, a, b) as plain-int lists, materialized once."""
        if self._lists is None:
            self._lists = (
                self.kinds.tolist(),
                self.a.tolist(),
                self.b.tolist(),
            )
        return self._lists

    def plan(self) -> _TracePlan:
        """The compiled form :meth:`FastEngine.replay` runs, built once."""
        if self._plan is None:
            self._plan = _build_plan(self)
        return self._plan

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Trace({len(self)} events, {self.nbytes} bytes)"


#: Below this many branch events the 4-state Python simulation beats the
#: numpy segmented scan's fixed overhead.
_SCAN_MIN_EVENTS = 256


class _TracePlan:
    """One trace compiled for replay (a pure function of the trace)."""

    __slots__ = (
        "n_read",
        "rep_total",
        "instr_total",
        "n_branch",
        "n_ultra",
        "site_tables",
        "max_sid",
        "hard_first",
        "hard_last",
        "hard_page",
        "hard_same_page",
        "read0_single",
        "read0_first",
        "last_cand",
        "last_page",
    )


def _site_tables_python(sids: List[int], takens: List[int]):
    """Per-site (misses, final-state) tables via direct 4-state simulation."""
    groups: Dict[int, List[int]] = {}
    for sid, taken in zip(sids, takens):
        groups.setdefault(sid, []).append(taken)
    tables = []
    for sid, outs in groups.items():
        states = [0, 1, 2, 3]
        miss = [0, 0, 0, 0]
        for o in outs:
            for j in range(4):
                s = states[j]
                if o:
                    if s < 2:
                        miss[j] += 1
                    states[j] = s + 1 if s < 3 else 3
                else:
                    if s >= 2:
                        miss[j] += 1
                    states[j] = s - 1 if s > 0 else 0
        tables.append((sid, tuple(miss), tuple(states)))
    return tables


def _site_tables_scan(sids: np.ndarray, takens: np.ndarray):
    """Per-site tables via a segmented prefix scan of clamp compositions.

    A branch outcome ``d`` (+1 taken / -1 not-taken) acts on the 2-bit
    state as ``x -> min(3, max(0, x + d))``.  Compositions of such maps
    stay in the 3-parameter family ``x -> min(B, max(A, x + T))`` with

        compose(earlier=(t1,a1,b1), later=(t2,a2,b2)) =
            (t1 + t2, max(a2, a1 + t2), min(b2, max(a2, b1 + t2)))

    so the prefix composition over each site's outcome subsequence is a
    Hillis-Steele doubling scan (log-depth, all numpy).  Evaluating the
    scan at every position for each of the four initial states yields the
    per-event predictor state, hence exact misprediction counts.
    """
    order = np.argsort(sids, kind="stable")
    s_sorted = sids[order]
    t_sorted = takens[order] != 0
    m = len(s_sorted)
    # Segment ids: one segment per site, events in original order.
    seg_start = np.empty(m, dtype=bool)
    seg_start[0] = True
    seg_start[1:] = s_sorted[1:] != s_sorted[:-1]
    seg = np.cumsum(seg_start) - 1

    d = np.where(t_sorted, 1, -1).astype(np.int64)
    T = d.copy()
    A = np.zeros(m, dtype=np.int64)
    B = np.full(m, 3, dtype=np.int64)
    shift = 1
    while shift < m:
        ok = np.zeros(m, dtype=bool)
        ok[shift:] = seg[shift:] == seg[:-shift]
        t1 = T[:-shift][ok[shift:]]
        a1 = A[:-shift][ok[shift:]]
        b1 = B[:-shift][ok[shift:]]
        t2 = T[shift:][ok[shift:]]
        a2 = A[shift:][ok[shift:]]
        b2 = B[shift:][ok[shift:]]
        T[shift:][ok[shift:]] = t1 + t2
        A[shift:][ok[shift:]] = np.maximum(a2, a1 + t2)
        B[shift:][ok[shift:]] = np.minimum(b2, np.maximum(a2, b1 + t2))
        shift *= 2

    n_seg = int(seg[-1]) + 1
    ends = np.nonzero(np.append(seg_start[1:], True))[0]
    site_of_seg = s_sorted[ends]
    miss_mat = np.empty((4, n_seg), dtype=np.int64)
    final_mat = np.empty((4, n_seg), dtype=np.int64)
    for s0 in range(4):
        after = np.minimum(B, np.maximum(A, s0 + T))
        pre = np.empty(m, dtype=np.int64)
        pre[0] = s0
        pre[1:] = np.where(seg_start[1:], s0, after[:-1])
        miss = (pre >= 2) != t_sorted
        miss_mat[s0] = np.bincount(seg, weights=miss, minlength=n_seg).astype(
            np.int64
        )
        final_mat[s0] = after[ends]
    return [
        (int(site_of_seg[k]), tuple(int(x) for x in miss_mat[:, k]),
         tuple(int(x) for x in final_mat[:, k]))
        for k in range(n_seg)
    ]


def _build_plan(trace) -> _TracePlan:
    """Compile a trace: vectorized decomposition + per-site branch tables."""
    kinds = trace.kinds
    a = trace.a
    b = trace.b
    p = _TracePlan()
    m_rep = kinds == K_REPEAT
    m_ins = kinds == K_INSTR
    m_br = kinds == K_BRANCH
    m_rd = kinds == K_READ
    p.rep_total = int(b[m_rep].sum())
    p.instr_total = int(a[m_ins].sum())
    p.n_branch = int(np.count_nonzero(m_br))

    addr = a[m_rd]
    size = b[m_rd]
    n_read = p.n_read = int(addr.shape[0])
    if n_read:
        first = addr >> 6
        last = (addr + size - 1) >> 6
        page = addr >> 12
        single = first == last
        cross = (last >> 6) != page
        # The line a follow-up single-line read may repeat as a pure L1
        # hit: the read's own MRU line, when it lies in the translated
        # page (the fast engine's `ultra_line` rule, vectorized).
        cand = np.where(single, first, np.where(~cross, last, -1))
        iu = np.zeros(n_read, dtype=bool)
        sp = np.zeros(n_read, dtype=bool)
        if n_read > 1:
            iu[1:] = single[1:] & (cand[:-1] >= 0) & (first[1:] == cand[:-1])
            sp[1:] = page[1:] == page[:-1]
        p.n_ultra = int(np.count_nonzero(iu))
        hard = ~iu
        p.hard_first = first[hard].tolist()
        p.hard_last = last[hard].tolist()
        p.hard_page = page[hard].tolist()
        p.hard_same_page = sp[hard].tolist()
        p.read0_single = bool(single[0])
        p.read0_first = int(first[0])
        p.last_cand = int(cand[-1])
        p.last_page = int(page[-1])
    else:
        p.n_ultra = 0
        p.hard_first = []
        p.hard_last = []
        p.hard_page = []
        p.hard_same_page = []
        p.read0_single = False
        p.read0_first = -1
        p.last_cand = -1
        p.last_page = -1

    sids = a[m_br]
    takens = b[m_br]
    if p.n_branch == 0:
        p.site_tables = []
        p.max_sid = -1
    else:
        p.max_sid = int(sids.max())
        if p.n_branch < _SCAN_MIN_EVENTS:
            p.site_tables = _site_tables_python(sids.tolist(), takens.tolist())
        else:
            p.site_tables = _site_tables_scan(sids, takens)
    return p


class TraceRecorder(Tracer):
    """Tee tracer: forwards every event to ``inner`` while recording it.

    Wrap the measuring tracer during a lookup's first execution, then
    :meth:`finish` yields the :class:`Trace`; later executions replay it
    through any engine instead of re-walking the index code.

    The recorder run-length-compresses repeated same-line reads into
    ``K_REPEAT`` events.  A read qualifies when it touches exactly the
    single line the previous read left MRU in L1, on the page the
    previous read left MRU in the TLB -- a purely address-based test, so
    the guarantee holds for any engine state at replay time: each such
    read is exactly ``reads+1, instructions+1, l1_hits+1`` and changes
    no simulator state.  (Interleaved ``instr``/``branch`` events touch
    neither caches nor TLB, so repeats merge across them; counter sums
    and final state are unaffected by the reordering.)
    """

    __slots__ = ("inner", "sites", "_k", "_a", "_b", "_ultra_line", "_rep")

    def __init__(
        self, inner: Tracer = NULL_TRACER, sites: Optional[SiteInterner] = None
    ):
        self.inner = inner
        self.sites = sites if sites is not None else SiteInterner()
        self._k: List[int] = []
        self._a: List[int] = []
        self._b: List[int] = []
        self._ultra_line = -1  # line a repeat read would qualify against
        self._rep = -1  # index of the open K_REPEAT event, or -1

    def read(self, addr: int, size: int = 8) -> None:
        line = addr >> 6
        if line == self._ultra_line and (addr + size - 1) >> 6 == line:
            i = self._rep
            if i >= 0:
                self._b[i] += 1
            else:
                self._rep = len(self._k)
                self._k.append(K_REPEAT)
                self._a.append(addr)
                self._b.append(1)
        else:
            self._k.append(K_READ)
            self._a.append(addr)
            self._b.append(size)
            last = (addr + size - 1) >> 6
            # The page the engine translates is addr's; the line left
            # MRU is `last`.  Only when they coincide is a repeat of
            # `last` provably a pure L1 + TLB hit.
            self._ultra_line = last if last >> 6 == addr >> 12 else -1
            self._rep = -1
        self.inner.read(addr, size)

    def instr(self, n: int = 1) -> None:
        self._k.append(K_INSTR)
        self._a.append(n)
        self._b.append(0)
        self.inner.instr(n)

    def branch(self, site: str, taken: bool) -> None:
        self._k.append(K_BRANCH)
        self._a.append(self.sites.intern(site))
        self._b.append(1 if taken else 0)
        self.inner.branch(site, taken)

    def __len__(self) -> int:
        return len(self._k)

    def finish(self) -> Trace:
        return Trace(self._k, self._a, self._b)

"""Array-level memsim engine: trace replay as vectorized numpy passes.

:class:`ReferenceEngine` replays a recorded
:class:`~repro.memsim.trace.Trace` one event at a time.
:class:`VectorEngine` instead *compiles* the trace once into a
:class:`_TracePlan` -- a bundle of numpy-derived aggregates and compact
Python lists -- and replays the plan.  The compilation
exploits three exact order-independence properties of the simulator:

* ``instr``/``K_REPEAT`` events and the per-event counter increments of
  reads and branches are pure sums: one ``np.sum`` per kind replaces the
  per-event loop entirely.
* Branch-predictor state is per-site: grouping branch events by site
  (``np.add.at``-style grouped accumulation) and pre-computing, for each
  site, the misprediction count and final 2-bit state *for every
  possible initial state* turns replay into one table lookup per site.
  For long traces the per-site automaton is evaluated with a segmented
  prefix scan over clamp-function compositions (``min(B, max(A, x+T))``
  triples, log-depth doubling) instead of a Python loop.
* Cache and TLB state change only on reads, and the recorder's MRU
  invariant identifies reads that are *provably* pure L1 hits with zero
  state change (the fast engine's ``ultra_line`` shortcut).  Vectorized
  address decomposition (``>> 6``/``>> 12`` over the whole event array)
  classifies those up front, so the only per-event Python left is a lean
  loop over the genuinely state-changing reads, driven by precomputed
  line/page/same-page arrays.

The sequential core (LRU set updates, two-level TLB recency) is
reproduced exactly, not approximated: the loop body is the fast
engine's, minus all the work the plan already did.  Counters are
byte-identical to :class:`ReferenceEngine` for any recorder-produced
trace; ``tests/test_memsim_differential.py`` enforces it.

Plans are cached on the trace (``Trace._plan``), so replaying a trace
again costs the hard-read loop plus a handful of scalar adds.  Per-call
``read``/``instr``/``branch`` are the fast engine's closures -- direct
(non-replay) execution *is* the documented FastEngine fallback
(``docs/vectorized.md``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.memsim.counters import PerfCounters
from repro.memsim.engine import SiteInterner, _build_fast_engine
from repro.memsim.trace import K_BRANCH, K_INSTR, K_READ, K_REPEAT

#: Must match ``TLB.walk_addr`` (asserted against the geometry constants
#: in ``repro.memsim.engine``).
_WALK_BASE = 1 << 44

#: Below this many branch events the 4-state Python simulation beats the
#: numpy segmented scan's fixed overhead.
_SCAN_MIN_EVENTS = 256

#: Sentinels standing in for -inf/+inf clamp parameters (states are 0..3,
#: walks are bounded by the event count, so +-2^40 is unreachable).
_NEG = -(1 << 40)
_POS = 1 << 40


class _TracePlan:
    """One trace compiled for vector replay (pure function of the trace)."""

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


def _vector_replay(ns: dict, trace) -> None:
    """Replay a compiled trace against a fast-engine namespace."""
    plan = trace._plan
    if plan is None:
        plan = _build_plan(trace)
        trace._plan = plan
    (
        l1_sets, n1, l2_sets, n2, l3_sets, n3,
        tlb1, tlb1_cap, tlb2, tlb2_cap, bst,
    ) = ns["_structs"]()
    (ins, br, brm, rd, h1, h2, h3, ll, tm, ul, mp) = ns["_get_hot"]()

    # Order-independent aggregates (each read/branch charges one
    # instruction; repeats and recorder-proven repeat-like reads are pure
    # L1 hits).
    rd += plan.n_read + plan.rep_total
    ins += plan.instr_total + plan.n_read + plan.rep_total + plan.n_branch
    br += plan.n_branch
    h1 += plan.rep_total + plan.n_ultra

    # Branch-table updates: one precomputed (misses, final) lookup per
    # site, indexed by the engine's current 2-bit state for that site.
    if plan.max_sid >= len(bst):
        bst.extend([-1] * (plan.max_sid + 1 - len(bst)))
    for sid, miss, fin in plan.site_tables:
        s = bst[sid]
        j = 2 if s < 0 else s
        brm += miss[j]
        bst[sid] = fin[j]

    if plan.n_read == 0:
        ns["_set_hot"]((ins, br, brm, rd, h1, h2, h3, ll, tm, ul, mp))
        return

    hf = plan.hard_first
    hl = plan.hard_last
    hp = plan.hard_page
    hsp = plan.hard_same_page
    start = 0
    if plan.read0_single and plan.read0_first == ul:
        # The trace's first read repeats the line the engine's previous
        # read left MRU (line in L1, page in TLB): pure L1 hit.
        h1 += 1
        start = 1
    try:
        for i in range(start, len(hf)):
            ln = hf[i]
            last = hl[i]
            page = hp[i]
            if (page == mp) if i == 0 else hsp[i]:
                pass
            else:
                if page in tlb1:
                    tlb1.move_to_end(page)
                elif page in tlb2:
                    tlb2.move_to_end(page)
                    tlb1[page] = True
                    if len(tlb1) > tlb1_cap:
                        tlb1.popitem(False)
                else:
                    tm += 1
                    tlb1[page] = True
                    if len(tlb1) > tlb1_cap:
                        tlb1.popitem(False)
                    tlb2[page] = True
                    if len(tlb2) > tlb2_cap:
                        tlb2.popitem(False)
                    # Page walk: one PTE read through the data caches.
                    wl = (_WALK_BASE + page * 8) >> 6
                    s = l1_sets[wl % n1]
                    if s[0] == wl:
                        h1 += 1
                    elif wl in s:
                        s.remove(wl)
                        s.insert(0, wl)
                        h1 += 1
                    else:
                        s2 = l2_sets[wl % n2]
                        if s2[0] == wl:
                            h2 += 1
                        elif wl in s2:
                            s2.remove(wl)
                            s2.insert(0, wl)
                            h2 += 1
                        else:
                            s3 = l3_sets[wl % n3]
                            if s3[0] == wl:
                                h3 += 1
                            elif wl in s3:
                                s3.remove(wl)
                                s3.insert(0, wl)
                                h3 += 1
                            else:
                                ll += 1
                                s3.insert(0, wl)
                                s3.pop()
                            s2.insert(0, wl)
                            s2.pop()
                        s.insert(0, wl)
                        s.pop()
            while True:
                s = l1_sets[ln % n1]
                if s[0] == ln:
                    h1 += 1
                elif ln in s:
                    s.remove(ln)
                    s.insert(0, ln)
                    h1 += 1
                else:
                    s2 = l2_sets[ln % n2]
                    if s2[0] == ln:
                        h2 += 1
                    elif ln in s2:
                        s2.remove(ln)
                        s2.insert(0, ln)
                        h2 += 1
                    else:
                        s3 = l3_sets[ln % n3]
                        if s3[0] == ln:
                            h3 += 1
                        elif ln in s3:
                            s3.remove(ln)
                            s3.insert(0, ln)
                            h3 += 1
                        else:
                            ll += 1
                            s3.insert(0, ln)
                            s3.pop()
                        s2.insert(0, ln)
                        s2.pop()
                    s.insert(0, ln)
                    s.pop()
                if ln == last:
                    break
                ln += 1
    finally:
        # After any read the MRU shortcuts are that read's candidates.
        ns["_set_hot"](
            (ins, br, brm, rd, h1, h2, h3, ll, tm,
             plan.last_cand, plan.last_page)
        )


class VectorEngine:
    """Fast-engine state behind a compiled (array-level) replay path.

    Per-call ``read``/``instr``/``branch`` are the fast engine's closures
    (the FastEngine fallback); ``replay`` is the vectorized batch path.
    Counter-identical to :class:`ReferenceEngine` either way.
    """

    name = "vector"

    __slots__ = (
        "sites",
        "read",
        "instr",
        "branch",
        "snapshot",
        "flush_caches",
        "replay",
        "n_branch_sites",
        "_ns",
    )

    def __init__(
        self,
        l1: Tuple[int, int] = (32 * 1024, 8),
        l2: Tuple[int, int] = (256 * 1024, 8),
        l3: Tuple[int, int] = (1024 * 1024, 16),
        tlb_entries: Tuple[int, int] = (64, 1536),
        sites: Optional[SiteInterner] = None,
    ):
        self.sites = sites if sites is not None else SiteInterner()
        ns = _build_fast_engine(l1, l2, l3, tlb_entries, self.sites)
        self._ns = ns
        self.read = ns["read"]
        self.instr = ns["instr"]
        self.branch = ns["branch"]
        self.snapshot = ns["snapshot"]
        self.flush_caches = ns["flush_caches"]
        self.n_branch_sites = ns["n_branch_sites"]
        self.replay = lambda trace, _ns=ns: _vector_replay(_ns, trace)

    @property
    def counters(self) -> PerfCounters:
        """Materialized counter snapshot (the hot state is scalars)."""
        return self.snapshot()

    def _no_components(self) -> None:
        raise AttributeError(
            "the vector engine has no reference component objects; construct "
            "PerfTracer(engine=ReferenceEngine()) to inspect caches/predictor/tlb"
        )

    @property
    def caches(self):
        self._no_components()

    @property
    def predictor(self):
        self._no_components()

    @property
    def tlb(self):
        self._no_components()

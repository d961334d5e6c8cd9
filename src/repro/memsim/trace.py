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
  (one stable argsort) and packing each site's outcomes 8 per byte lets
  replay fold them from the site's live 2-bit state one byte at a time,
  through two 1 KiB (state, byte) tables in the engine, so its cost
  scales with the outcomes and the plan stays independent of engine
  state.
* Cache and TLB state change only on reads, and the recorder's MRU
  invariant identifies reads that are *provably* pure L1 hits with zero
  state change (the fast engine's ``ultra_line`` shortcut).  Vectorized
  address decomposition (``>> 6``/``>> 12`` over the whole event array)
  classifies those up front, so the replay loop visits only the
  genuinely state-changing reads, driven by precomputed
  line/page/same-page lists.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

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


class _TracePlan:
    """One trace compiled for replay (a pure function of the trace)."""

    __slots__ = (
        "n_read",
        "rep_total",
        "instr_total",
        "n_branch",
        "n_ultra",
        "branch_sites",
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


def _build_plan(trace) -> _TracePlan:
    """Compile a trace: vectorized decomposition + per-site branch bytes."""
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

    # Per site: (site id, its outcomes packed 8 per byte with the first
    # in bit 0, the 0-7 left over as a list).
    p.branch_sites = []
    p.max_sid = -1
    if p.n_branch:
        sids = a[m_br]
        order = np.argsort(sids, kind="stable")
        sids = sids[order]
        taken = b[m_br][order] != 0
        cuts = [0, *(np.flatnonzero(np.diff(sids)) + 1).tolist(), p.n_branch]
        for lo, hi in zip(cuts, cuts[1:]):
            mid = hi - (hi - lo) % 8
            p.branch_sites.append((
                int(sids[lo]),
                np.packbits(taken[lo:mid], bitorder="little").tobytes(),
                taken[mid:hi].tolist(),
            ))
        p.max_sid = int(sids[-1])
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

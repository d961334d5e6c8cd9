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
compiles the arrays once into the fast engine's replay plan through
:func:`compile_plan`, the one compiler the batch kernels'
``BatchLookups.plan`` shares.

The plan exploits three exact order-independence properties of the
simulator:

* ``instr``/``K_REPEAT`` events and the per-event counter increments of
  reads and branches are pure sums, so the plan keeps only totals.
* Branch-predictor state is per-site: each site's outcomes, packed 8 per
  byte, fold from the site's live 2-bit state one byte at a time,
  through two 1 KiB (state, byte) tables in the engine, so its cost
  scales with the outcomes and the plan stays independent of engine
  state.
* Cache and TLB state change only on reads, and the recorder's MRU
  invariant identifies reads that are *provably* pure L1 hits with zero
  state change (the fast engine's ``ultra_line`` shortcut).  Vectorized
  address decomposition (``>> 6``/``>> 12`` over the whole read array)
  classifies those up front, so replay visits only the genuinely
  state-changing reads: one list of the lines they touch, in order, an
  entry ``~line`` marking a read whose page differs from its
  predecessor's and must be translated first.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.memsim.cache import LINE_SIZE
from repro.memsim.engine import RUN_MARK, SiteInterner
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
            kinds, a, b = self.kinds, self.a, self.b
            m_rd = kinds == K_READ
            m_br = kinds == K_BRANCH
            sids = a[m_br]
            taken = b[m_br] != 0
            self._plan = compile_plan(
                int(a[kinds == K_INSTR].sum()),
                int(b[kinds == K_REPEAT].sum()),
                a[m_rd],
                b[m_rd],
                ((int(s), taken[sids == s]) for s in np.unique(sids)),
            )
        return self._plan

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Trace({len(self)} events, {self.nbytes} bytes)"


class _TracePlan:
    """A compiled event stream (a pure function of its events).

    ``hard`` lists the cache lines the state-changing reads touch, in
    order, one entry per line; ``~line`` (a negative entry) means
    "translate this line's page, ``line >> 6``, first".  Every line of a
    read after its first is a plain entry, since a read translates only
    its first byte's page.  Three entries ``RUN_MARK, a, b`` stand for a
    run of single-line reads of lines ``a`` to ``b`` in turn, each
    translating its page where one starts (a sequential scan's lines
    after its first).  The first read's entry is always plain:
    whether it repeats the live MRU line, or needs its page translated,
    depends on the replaying engine's state.  ``row_starts`` is None for
    one continuous stream; for a cold window it holds the offset in
    ``hard`` at which each row starts, plus ``len(hard)``: the engine
    flushes its caches before each row, so each row's first read
    translates, and its own entry carries the ``~``.

    A plan replays as its own plan (:meth:`plan` returns it), so an
    engine's ``replay`` takes a :class:`Trace` or a compiled plan.
    """

    __slots__ = (
        "n_read",
        "rep_total",
        "instr_total",
        "n_branch",
        "n_ultra",
        "branch_sites",
        "max_sid",
        "hard",
        "row_starts",
        "read0_single",
        "read0_first",
        "last_cand",
        "last_page",
    )

    def plan(self) -> "_TracePlan":
        return self


def compile_plan(
    instr_total: int,
    rep_total: int,
    addr: np.ndarray,
    size: np.ndarray,
    sites,
    row_starts: Optional[np.ndarray] = None,
    runs: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> _TracePlan:
    """Compile one event stream into a replay plan.

    ``instr_total`` and ``rep_total`` are the stream's ``instr`` and
    ``K_REPEAT`` totals; ``addr``/``size`` are its reads in order (int64
    arrays); ``sites`` yields ``(site id, outcomes)`` with each site's
    branch outcomes in order as a bool array.  ``row_starts``, the read
    index at which each row of a cold window starts (ascending, from
    0), makes the plan replay row by row with a cache flush before each
    row: each row's first read then follows a flush, so it is never a
    pure L1 hit and always translates its page.

    ``runs``, a pair ``(at, a)`` of arrays, folds sequential runs into
    the stream: read ``at[j]`` is a single-line read of a run's last
    line ``b``, and stands for single-line reads of lines ``a[j]`` to
    ``b`` in turn (``a[j] <= b``), the line before ``a[j]`` read last.
    Only the run's last line decides how the reads after it classify,
    so the run is compiled as that one read and replays from one
    ``RUN_MARK`` entry.
    """
    p = _TracePlan()
    p.instr_total = instr_total
    p.rep_total = rep_total
    n_read = p.n_read = int(addr.shape[0])
    p.row_starts = None
    if n_read:
        first = addr >> 6
        last = (addr + size - 1) >> 6
        page = addr >> 12
        single = first == last
        # The line a follow-up single-line read may repeat as a pure L1
        # hit: the read's own MRU line, when it lies in the translated
        # page (the fast engine's `ultra_line` rule, vectorized).
        cand = np.where(single, first, np.where((last >> 6) == page, last, -1))
        iu = np.zeros(n_read, dtype=bool)
        sp = np.ones(n_read, dtype=bool)  # no translation encoded
        if n_read > 1:
            iu[1:] = single[1:] & (cand[:-1] >= 0) & (first[1:] == cand[:-1])
            sp[1:] = page[1:] == page[:-1]
        if row_starts is not None:
            inside = row_starts[row_starts < n_read]
            iu[inside] = False
            sp[inside] = False
        p.n_ultra = int(np.count_nonzero(iu))
        hard = ~iu
        entries = first[hard]
        lines = last[hard] - entries + 1  # entries per hard read
        starts = np.cumsum(lines) - lines  # and where each one's begin
        translate = starts[~sp[hard]]
        if (lines > 1).any():
            # One entry per line: each read's lines first..last in turn.
            entries = np.repeat(entries - starts, lines) + np.arange(
                starts[-1] + lines[-1]
            )
        entries[translate] = ~entries[translate]
        if runs is not None and len(runs[0]):
            run_at, run_a = runs
            run_b = first[run_at]
            p.n_read += int((run_b - run_a).sum())
            # A run's read is single-line and never a pure L1 hit (the
            # line before it is read last): its one entry becomes three.
            h = (np.cumsum(hard) - 1)[run_at]
            entries[starts[h]] = RUN_MARK
            entries = np.insert(
                entries, np.repeat(starts[h] + 1, 2),
                np.column_stack([run_a, run_b]).ravel(),
            )
            lines[h] = 3
        p.hard = entries.tolist()
        if row_starts is not None:
            per_read = np.zeros(n_read + 1, dtype=np.int64)
            per_read[1:][hard] = lines
            offsets = np.cumsum(per_read)
            p.row_starts = offsets[row_starts].tolist() + [len(p.hard)]
        p.read0_single = bool(single[0])
        p.read0_first = int(first[0])
        if row_starts is not None and row_starts[-1] >= n_read:
            p.last_cand = p.last_page = -1  # the last row read nothing
        else:
            p.last_cand = int(cand[-1])
            p.last_page = int(page[-1])
    else:
        p.n_ultra = 0
        p.hard = []
        if row_starts is not None:
            p.row_starts = [0] * len(row_starts) + [0]
        p.read0_single = False
        p.read0_first = -1
        p.last_cand = -1
        p.last_page = -1

    # Per site: (site id, its outcomes packed 8 per byte with the first
    # in bit 0, the 0-7 left over as a list).
    p.branch_sites = []
    p.max_sid = -1
    p.n_branch = 0
    for sid, taken in sites:
        k = len(taken)
        if not k:
            continue
        mid = k - k % 8
        p.branch_sites.append((
            sid,
            np.packbits(taken[:mid], bitorder="little").tobytes(),
            taken[mid:].tolist(),
        ))
        p.n_branch += k
        p.max_sid = max(p.max_sid, sid)
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

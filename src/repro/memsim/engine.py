"""Memsim engines: reference (executable spec) and fast.

Every number the benchmark produces flows through the simulated CPU, and
Section 4.3 of the paper argues lookup latency is a linear function of
*counters* (cache misses, branch misses, instructions) -- so only the
counters must be exact, not the per-access object protocol.  That
freedom is what this module exploits:

* :class:`ReferenceEngine` wraps the pure-Python component classes
  (:class:`~repro.memsim.cache.CacheHierarchy`,
  :class:`~repro.memsim.branch.BranchPredictor`,
  :class:`~repro.memsim.tlb.TLB`).  It is the executable specification.
* :class:`FastEngine` re-implements the same state machines as flat
  per-set structures behind closure-bound functions, with interned
  branch sites (integer ids into a flat 2-bit-counter table) and the
  TLB folded into the same machinery.  It takes events one call at a
  time or a recorded :class:`~repro.memsim.trace.Trace` at once, through
  the trace's compiled replay plan.  It must produce byte-identical
  :class:`~repro.memsim.counters.PerfCounters` for any event stream;
  ``tests/test_memsim_differential.py`` enforces that with hypothesis,
  and the committed golden grids must pass under it unchanged.

There is no engine switch.  ``PerfTracer`` always runs a
:class:`FastEngine`: the harness's per-lookup loop sends it per-call
events, and its batched path replays kernel-synthesized traces (see
``docs/memsim.md``).  :class:`ReferenceEngine` is built only by tests,
which pass it to ``PerfTracer(engine=...)`` as the oracle the fast
engine must match.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import islice, repeat
from typing import Dict, List, Optional, Tuple

from repro.memsim.branch import BranchPredictor
from repro.memsim.cache import LINE_SIZE, CacheHierarchy
from repro.memsim.counters import PerfCounters
from repro.memsim.tlb import PAGE_SHIFT, TLB

#: A replay plan entry that starts a run: ``RUN_MARK, a, b`` stands for
#: single-line reads of lines ``a`` to ``b`` in turn (see
#: ``repro.memsim.trace``).  Lines are below ``2**58``, so no line's
#: ``~line`` entry equals it.
RUN_MARK = -(1 << 62)


class SiteInterner:
    """Bijective branch-site-string <-> small-integer-id mapping.

    Shared between a :class:`~repro.memsim.trace.TraceRecorder` and the
    engines that replay its traces, so a site id recorded in a trace
    resolves to the same site everywhere.  Append-only; ids are dense
    from zero.
    """

    __slots__ = ("ids", "names")

    def __init__(self) -> None:
        self.ids: Dict[str, int] = {}
        self.names: List[str] = []

    def intern(self, site: str) -> int:
        sid = self.ids.get(site)
        if sid is None:
            sid = len(self.names)
            self.ids[site] = sid
            self.names.append(site)
        return sid

    def name(self, sid: int) -> str:
        return self.names[sid]

    def __len__(self) -> int:
        return len(self.names)


class ReferenceEngine:
    """The original ``PerfTracer`` logic behind the engine interface.

    Composed from the pure-Python component classes so tests (and
    curious readers) can poke at ``caches`` / ``predictor`` / ``tlb``
    directly.  Every behaviour of :class:`FastEngine` is defined as
    "whatever this class does".
    """

    name = "reference"

    __slots__ = ("counters", "caches", "predictor", "tlb", "sites")

    def __init__(
        self,
        caches: Optional[CacheHierarchy] = None,
        predictor: Optional[BranchPredictor] = None,
        tlb: Optional[TLB] = None,
        sites: Optional[SiteInterner] = None,
    ):
        self.counters = PerfCounters()
        self.caches = caches if caches is not None else CacheHierarchy()
        self.predictor = predictor if predictor is not None else BranchPredictor()
        self.tlb = tlb if tlb is not None else TLB()
        self.sites = sites if sites is not None else SiteInterner()

    def read(self, addr: int, size: int = 8) -> None:
        c = self.counters
        c.reads += 1
        c.instructions += 1  # the load instruction itself
        if not self.tlb.access_addr(addr):
            # Page walk: one PTE read through the data caches.
            c.tlb_misses += 1
            walk_line = TLB.walk_addr(addr) // LINE_SIZE
            level = self.caches.access_line(walk_line)
            if level == 1:
                c.l1_hits += 1
            elif level == 2:
                c.l2_hits += 1
            elif level == 3:
                c.l3_hits += 1
            else:
                c.llc_misses += 1
        first_line = addr // LINE_SIZE
        last_line = (addr + size - 1) // LINE_SIZE
        for line in range(first_line, last_line + 1):
            level = self.caches.access_line(line)
            if level == 1:
                c.l1_hits += 1
            elif level == 2:
                c.l2_hits += 1
            elif level == 3:
                c.l3_hits += 1
            else:
                c.llc_misses += 1

    def instr(self, n: int = 1) -> None:
        self.counters.instructions += n

    def branch(self, site: str, taken: bool) -> None:
        c = self.counters
        c.branches += 1
        c.instructions += 1
        if not self.predictor.predict_and_update(site, taken):
            c.branch_misses += 1

    def snapshot(self) -> PerfCounters:
        return self.counters.copy()

    def flush_caches(self) -> None:
        self.caches.flush()
        self.tlb.flush()

    def n_branch_sites(self) -> int:
        return self.predictor.n_sites()

    def replay(self, trace) -> None:
        """Re-run a recorded event stream (see ``repro.memsim.trace``)."""
        read = self.read
        instr = self.instr
        branch = self.branch
        names = self.sites.names
        for kind, a, b in zip(*trace.lists()):
            if kind == 0:
                read(a, b)
            elif kind == 1:
                instr(a)
            elif kind == 2:
                branch(names[a], b == 1)
            else:
                # K_REPEAT: b single-line re-reads of the MRU line; a
                # 1-byte read reproduces each exactly (same line, page).
                for _ in range(b):
                    read(a, 1)


class FastEngine:
    """Flat-structure engine, counter-identical to the reference.

    Each cache level is a list of per-set way lists prefilled with
    negative sentinel tags, so a set always holds exactly ``assoc``
    entries: a fill is ``insert(0) + pop()`` with no length bookkeeping,
    and the MRU way is always ``ways[0]``.  (The LRU scan/move work thus
    stays in C-speed list primitives -- in CPython that beats the NumPy
    stamp-array layout, whose per-element scalar accesses cost ~100ns
    each; ``docs/memsim.md`` records the measurement.)  Branch sites are
    interned to dense ids indexing a flat 2-bit state list where ``-1``
    stands for the never-seen weak-taken state.  The TLB folds into the
    same machinery as two OrderedDicts plus an MRU-page shortcut.

    Two exact fast paths make warm loops cheap: a repeated
    single-line read of the MRU line on the MRU page is a pure
    ``l1_hits += 1`` (the previous access provably left both MRU, so
    no state can change), and the MRU-page test skips the TLB dicts
    entirely.

    ``replay(trace)`` runs a recorded stream through the same state
    from the trace's compiled plan (:meth:`~repro.memsim.trace.Trace.plan`):
    counter sums are added in one step, each branch site's outcomes fold
    from its live 2-bit state a byte (8 outcomes) at a time through two
    1 KiB tables, and only the reads that can change cache or TLB state
    walk the sets.

    ``flush_caches`` resets, in place, only the sets that hold a line:
    fills insert at the front, so a set holds one exactly when its MRU
    way does.

    ``read``/``instr``/``branch``/``replay`` are closures over shared
    ``nonlocal`` state, bound as instance attributes -- no ``self`` in
    the hot path.
    """

    name = "fast"

    __slots__ = (
        "sites",
        "read",
        "instr",
        "branch",
        "replay",
        "snapshot",
        "flush_caches",
        "n_branch_sites",
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
        self.read = ns["read"]
        self.instr = ns["instr"]
        self.branch = ns["branch"]
        self.replay = ns["replay"]
        self.snapshot = ns["snapshot"]
        self.flush_caches = ns["flush_caches"]
        self.n_branch_sites = ns["n_branch_sites"]

    @property
    def counters(self) -> PerfCounters:
        """Materialized counter snapshot (the fast state is scalars)."""
        return self.snapshot()

    def _no_components(self) -> None:
        raise AttributeError(
            "the fast engine has no reference component objects; construct "
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


def _sets_for(
    size_bytes: int, assoc: int, name: str
) -> Tuple[List[List[int]], List[int]]:
    """One level's empty sets, and the sentinel list each is a copy of."""
    if size_bytes % (assoc * LINE_SIZE) != 0:
        raise ValueError(
            f"{name}: size {size_bytes} not a multiple of assoc*line "
            f"({assoc}*{LINE_SIZE})"
        )
    n_sets = size_bytes // (assoc * LINE_SIZE)
    # Distinct negative sentinels: never equal to a real (non-negative)
    # line tag, so membership tests and fills behave exactly like the
    # reference's grow-then-evict lists.
    empty = list(range(-1, -assoc - 1, -1))
    # Copying one prebuilt list is several times faster than building
    # each set from a range.
    return list(map(list.copy, repeat(empty, n_sets))), empty


def _step(state: int, taken) -> Tuple[int, bool]:
    """One outcome through a 2-bit counter: (next state, mispredicted).

    The rule of :class:`~repro.memsim.branch.BranchPredictor`, which the
    fast engine's per-call ``branch`` inlines.
    """
    if taken:
        return (state + 1 if state < 3 else 3), state < 2
    return (state - 1 if state > 0 else 0), state >= 2


def _run_lines(a: int, b: int) -> List[int]:
    """A run's plan entries: lines ``a`` to ``b``, each line that starts
    a page as ``~line`` (its predecessor lies on the page before)."""
    run = list(range(a, b + 1))
    for start in range((a + 63) & ~63, b + 1, 64):
        run[start - a] = ~start
    return run


def _fold_tables() -> Tuple[bytes, bytes]:
    """The 2-bit state after 8 outcomes, and their mispredictions.

    Both tables are indexed by ``state << 8 | byte``; bit ``i`` of
    ``byte`` is the ``i``-th outcome, the order
    ``np.packbits(..., bitorder="little")`` packs in.  A byte folds as
    its low nibble, then its high one, through tables of 4 outcomes
    indexed by ``state << 4 | nibble``: 256 steps at import, not 8,192.
    """
    after4 = []
    miss4 = []
    for k in range(64):
        s, m = k >> 4, 0
        for i in range(4):
            s, missed = _step(s, k >> i & 1)
            m += missed
        after4.append(s)
        miss4.append(m)
    after = bytearray(1024)
    misses = bytearray(1024)
    for k in range(1024):
        lo = k >> 8 << 4 | k & 15
        hi = after4[lo] << 4 | k >> 4 & 15
        after[k] = after4[hi]
        misses[k] = miss4[lo] + miss4[hi]
    return bytes(after), bytes(misses)


_FOLD_STATE, _FOLD_MISS = _fold_tables()


def _build_fast_engine(l1, l2, l3, tlb_entries, interner):
    """Construct the closure namespace holding all fast-engine state."""
    # The literal shifts below (>> 6, >> 12) assume these geometry
    # constants; fail loudly if someone changes them in one place only.
    assert LINE_SIZE == 1 << 6 and PAGE_SHIFT == 12
    l1_sets, empty1 = _sets_for(l1[0], l1[1], "L1d")
    l2_sets, empty2 = _sets_for(l2[0], l2[1], "L2")
    l3_sets, empty3 = _sets_for(l3[0], l3[1], "L3")
    n1 = len(l1_sets)
    n2 = len(l2_sets)
    n3 = len(l3_sets)
    levels = ((l1_sets, empty1), (l2_sets, empty2), (l3_sets, empty3))
    tlb1_cap, tlb2_cap = tlb_entries
    tlb1: OrderedDict = OrderedDict()
    tlb2: OrderedDict = OrderedDict()
    site_ids = interner.ids
    intern = interner.intern
    bst: List[int] = []  # per-site 2-bit state; -1 == never-seen weak-taken

    walk_base = 1 << 44  # must match TLB.walk_addr

    instr_c = 0
    br_c = 0
    brm_c = 0
    reads_c = 0
    l1h = 0
    l2h = 0
    l3h = 0
    llc = 0
    tlbm = 0
    # Line for which a repeat single-line read is provably a pure L1 hit:
    # the last read left it MRU in its L1 set AND its page (== the read's
    # first page, which is the one the TLB translated) MRU in the L1 TLB.
    # -1 when the last read's MRU line sits outside the translated page.
    ultra_line = -1
    mru_page = -1  # MRU page (guaranteed MRU in the L1 TLB)

    def _fill(ln, s1):
        # L1 missed `ln`; probe L2/L3 and install into every missing level.
        nonlocal l2h, l3h, llc
        s2 = l2_sets[ln % n2]
        if s2[0] == ln:
            l2h += 1
        elif ln in s2:
            s2.remove(ln)
            s2.insert(0, ln)
            l2h += 1
        else:
            s3 = l3_sets[ln % n3]
            if s3[0] == ln:
                l3h += 1
            elif ln in s3:
                s3.remove(ln)
                s3.insert(0, ln)
                l3h += 1
            else:
                llc += 1
                s3.insert(0, ln)
                s3.pop()
            s2.insert(0, ln)
            s2.pop()
        s1.insert(0, ln)
        s1.pop()

    def _walk(page):
        # TLB miss: install `page` in both levels, then read its PTE
        # through the data caches.
        nonlocal tlbm, l1h
        tlbm += 1
        tlb1[page] = True
        if len(tlb1) > tlb1_cap:
            tlb1.popitem(False)
        tlb2[page] = True
        if len(tlb2) > tlb2_cap:
            tlb2.popitem(False)
        wl = (walk_base + page * 8) >> 6
        s = l1_sets[wl % n1]
        if s[0] == wl:
            l1h += 1
        elif wl in s:
            s.remove(wl)
            s.insert(0, wl)
            l1h += 1
        else:
            _fill(wl, s)

    def read(addr, size=8):
        nonlocal reads_c, instr_c, l1h, ultra_line, mru_page
        first = addr >> 6
        last = (addr + size - 1) >> 6
        if first == ultra_line and last == first:
            # Previous read left `first` MRU in its L1 set and its page
            # MRU in the TLB: a repeat is a pure L1 hit, zero state
            # change.
            reads_c += 1
            instr_c += 1
            l1h += 1
            return
        reads_c += 1
        instr_c += 1
        page = addr >> 12
        if page != mru_page:
            if page in tlb1:
                tlb1.move_to_end(page)
            elif page in tlb2:
                tlb2.move_to_end(page)
                tlb1[page] = True
                if len(tlb1) > tlb1_cap:
                    tlb1.popitem(False)
            else:
                _walk(page)
            mru_page = page
        ln = first
        while True:
            s = l1_sets[ln % n1]
            if s[0] == ln:
                l1h += 1
            elif ln in s:
                s.remove(ln)
                s.insert(0, ln)
                l1h += 1
            else:
                _fill(ln, s)
            if ln == last:
                break
            ln += 1
        ultra_line = last if last >> 6 == mru_page else -1

    def instr(n=1):
        nonlocal instr_c
        instr_c += n

    def branch(site, taken):
        nonlocal instr_c, br_c, brm_c
        br_c += 1
        instr_c += 1
        sid = site_ids.get(site)
        if sid is None:
            sid = intern(site)
        if sid >= len(bst):
            bst.extend([-1] * (sid + 1 - len(bst)))
        s = bst[sid]
        if s < 0:
            s = 2
        if taken:
            if s < 2:
                brm_c += 1
            bst[sid] = s + 1 if s < 3 else 3
        else:
            if s >= 2:
                brm_c += 1
            bst[sid] = s - 1 if s > 0 else 0

    def _translate(page):
        # `page` is not the MRU page: look it up in both TLB levels.
        if page in tlb1:
            tlb1.move_to_end(page)
        elif page in tlb2:
            tlb2.move_to_end(page)
            tlb1[page] = True
            if len(tlb1) > tlb1_cap:
                tlb1.popitem(False)
        else:
            _walk(page)

    def _access(entries):
        # A plan's line entries, from an iterator, in order: `~line`
        # translates the line's page first.  Stops after a run's
        # `RUN_MARK, a, b` and returns (a, b), else returns None at the
        # end.  The L2/L3 fill is inlined, with counters in locals;
        # `_walk` still counts its own accesses.
        nonlocal l1h, l2h, l3h, llc
        h1 = h2 = h3 = miss = 0
        run = None
        for ln in entries:
            if ln < 0:
                if ln == RUN_MARK:
                    run = next(entries), next(entries)
                    break
                ln = ~ln
                page = ln >> 6
                if page in tlb1:
                    tlb1.move_to_end(page)
                elif page in tlb2:
                    tlb2.move_to_end(page)
                    tlb1[page] = True
                    if len(tlb1) > tlb1_cap:
                        tlb1.popitem(False)
                else:
                    _walk(page)
            s = l1_sets[ln % n1]
            if s[0] == ln:
                h1 += 1
                continue
            if ln in s:
                s.remove(ln)
                s.insert(0, ln)
                h1 += 1
                continue
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
                    miss += 1
                    s3.insert(0, ln)
                    s3.pop()
                s2.insert(0, ln)
                s2.pop()
            s.insert(0, ln)
            s.pop()
        l1h += h1
        l2h += h2
        l3h += h3
        llc += miss
        return run

    def _lines(entries):
        # All of a plan's entries, each run expanded in turn.  (Nothing
        # here calls itself: a closure that did would keep the engine's
        # sets alive until the cyclic collector ran.)
        entries = iter(entries)
        run = _access(entries)
        while run is not None:
            _access(iter(_run_lines(*run)))
            run = _access(entries)

    def replay(trace):
        nonlocal instr_c, br_c, brm_c, reads_c, l1h, ultra_line, mru_page
        p = trace.plan()
        # Order-independent aggregates: each read and branch charges one
        # instruction; repeats and recorder-proven repeat-like reads are
        # pure L1 hits.
        reads = p.n_read + p.rep_total
        reads_c += reads
        instr_c += p.instr_total + reads + p.n_branch
        br_c += p.n_branch
        l1h += p.rep_total + p.n_ultra
        # Each site's outcomes fold from its live state, 8 per table
        # lookup, then the 0-7 left over one at a time.
        if p.max_sid >= len(bst):
            bst.extend([-1] * (p.max_sid + 1 - len(bst)))
        fold_state = _FOLD_STATE
        fold_miss = _FOLD_MISS
        misses = 0
        for sid, packed, rest in p.branch_sites:
            s = bst[sid]
            if s < 0:
                s = 2
            for byte in packed:
                k = s << 8 | byte
                misses += fold_miss[k]
                s = fold_state[k]
            for taken in rest:
                s, missed = _step(s, taken)
                misses += missed
            bst[sid] = s
        brm_c += misses
        hard = p.hard
        starts = p.row_starts
        if starts is not None:
            # A cold window: a flush before each row; the predictor
            # state folded above is never flushed.
            for i, j in zip(starts, starts[1:]):
                flush_caches()
                _lines(hard[i:j])
        elif not p.n_read:
            return
        elif p.read0_single and p.read0_first == ultra_line:
            # The first read repeats the line the previous read left
            # MRU (line in L1, page in TLB): a pure L1 hit.
            l1h += 1
            _lines(islice(hard, 1, None))
        else:
            # Only the first read's page is compared with live state;
            # the plan marks each later read whose page changes.
            page = p.read0_first >> 6
            if page != mru_page:
                _translate(page)
            _lines(hard)
        # After any read the MRU shortcuts are the last read's.
        ultra_line = p.last_cand
        mru_page = p.last_page

    def snapshot():
        return PerfCounters(
            instr_c, br_c, brm_c, reads_c, l1h, l2h, l3h, llc, tlbm
        )

    def flush_caches():
        nonlocal ultra_line, mru_page
        # Fills insert at the front, so a set holds a line exactly when
        # its MRU way does.  Reset those in place: `_sets` hands the
        # level and set lists out.
        for sets, empty in levels:
            for ways in sets:
                if ways[0] >= 0:
                    ways[:] = empty
        tlb1.clear()
        tlb2.clear()
        ultra_line = -1
        mru_page = -1

    def n_branch_sites():
        return sum(1 for s in bst if s >= 0)

    return {
        "read": read,
        "instr": instr,
        "branch": branch,
        "replay": replay,
        "snapshot": snapshot,
        "flush_caches": flush_caches,
        "n_branch_sites": n_branch_sites,
        # The three cache levels' set lists, for tests.
        "_sets": lambda: (l1_sets, l2_sets, l3_sets),
    }

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
from itertools import repeat
from typing import Dict, List, Optional, Tuple

from repro.memsim.branch import BranchPredictor
from repro.memsim.cache import LINE_SIZE, CacheHierarchy
from repro.memsim.counters import PerfCounters
from repro.memsim.tlb import PAGE_SHIFT, TLB

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
    counter sums and per-site branch tables are added in one step, and
    only the reads that can change cache or TLB state walk the sets.

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
    return _copies(empty, n_sets), empty


def _copies(empty: List[int], n_sets: int) -> List[List[int]]:
    # Copying one prebuilt list is several times faster than building
    # each set from a range.
    return list(map(list.copy, repeat(empty, n_sets)))


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
        # One precomputed (misses, final state) lookup per branch site,
        # indexed by the site's current 2-bit state.
        if p.max_sid >= len(bst):
            bst.extend([-1] * (p.max_sid + 1 - len(bst)))
        for sid, miss, fin in p.site_tables:
            s = bst[sid]
            j = 2 if s < 0 else s
            brm_c += miss[j]
            bst[sid] = fin[j]
        if not p.n_read:
            return
        hf = p.hard_first
        hl = p.hard_last
        hp = p.hard_page
        hsp = p.hard_same_page
        start = 0
        if p.read0_single and p.read0_first == ultra_line:
            # The trace's first read repeats the line the previous read
            # left MRU (line in L1, page in TLB): a pure L1 hit.
            l1h += 1
            start = 1
        for i in range(start, len(hf)):
            ln = hf[i]
            last = hl[i]
            page = hp[i]
            # Only the first read's page is compared with live state;
            # the plan knows whether each later one repeats its
            # predecessor's page.
            if not (hsp[i] if i else page == mru_page):
                if page in tlb1:
                    tlb1.move_to_end(page)
                elif page in tlb2:
                    tlb2.move_to_end(page)
                    tlb1[page] = True
                    if len(tlb1) > tlb1_cap:
                        tlb1.popitem(False)
                else:
                    _walk(page)
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
        # After any read the MRU shortcuts are the last read's.
        ultra_line = p.last_cand
        mru_page = p.last_page

    def snapshot():
        return PerfCounters(
            instr_c, br_c, brm_c, reads_c, l1h, l2h, l3h, llc, tlbm
        )

    def flush_caches():
        nonlocal ultra_line, mru_page
        # Reset in place: `_sets` hands these level lists out.
        l1_sets[:] = _copies(empty1, n1)
        l2_sets[:] = _copies(empty2, n2)
        l3_sets[:] = _copies(empty3, n3)
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

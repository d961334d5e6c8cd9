"""Differential suite: every engine IS the reference engine, counter-wise.

Hypothesis drives random read/instr/branch/flush streams through all
engines (reference, fast, vector) and asserts byte-identical
:class:`PerfCounters` -- not just at the end, but at every intermediate
snapshot.  Streams mix tight spatial locality (repeated lines and
pages, the fast paths' home turf) with scattered addresses (eviction
pressure), because the engines' shortcuts are exactly the places where
a subtle state divergence would hide.

The same property is asserted for record-replay: replaying a recorded
stream must equal executing it directly, on every engine that replays
-- including repeat replays of the *same* trace objects, which reuse
the vector engine's compiled plans.
"""

from __future__ import annotations

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim import (
    Cache,
    CacheHierarchy,
    PerfTracer,
    ReferenceEngine,
    SiteInterner,
    TraceRecorder,
    VectorEngine,
)
from repro.memsim.engine import FastEngine
from repro.memsim.tlb import TLB
from repro.memsim.trace import K_REPEAT

#: Every engine, the reference (the oracle) first.
ENGINES = {
    "reference": ReferenceEngine,
    "fast": FastEngine,
    "vector": VectorEngine,
}
_NAMES = tuple(ENGINES)

#: The engines differentially tested against the reference.
_ALT_ENGINES = _NAMES[1:]

#: The engines that replay recorded traces, the reference first.
_REPLAY_NAMES = ("reference", "vector")


def _tracer(name, sites=None):
    return PerfTracer(engine=ENGINES[name](sites=sites))

_SITES = ["bs.cmp", "btree.descend", "rmi.clamp", "loop"]

# A handful of base addresses reused across events gives the streams
# real temporal locality; small offsets give spatial locality within
# lines and pages; the huge bases exercise distinct TLB pages.
_BASES = [0, 4096, 65536, 1 << 20, (1 << 20) + 64, 1 << 30, (1 << 44) - 8192]


def _events():
    read = st.tuples(
        st.just("read"),
        st.sampled_from(_BASES),
        st.integers(0, 5000),
        st.sampled_from([1, 2, 4, 8, 16, 64, 200]),
    )
    branch = st.tuples(
        st.just("branch"), st.sampled_from(_SITES), st.booleans()
    )
    instr = st.tuples(st.just("instr"), st.integers(1, 12))
    flush = st.tuples(st.just("flush"))
    snapshot = st.tuples(st.just("snapshot"))
    return st.lists(
        st.one_of(read, branch, instr, flush, snapshot), max_size=400
    )


def _apply(tracer, events):
    """Feed the tracer-interface events (read/branch/instr) only."""
    for ev in events:
        if ev[0] == "read":
            tracer.read(ev[1] + ev[2], ev[3])
        elif ev[0] == "branch":
            tracer.branch(ev[1], ev[2])
        elif ev[0] == "instr":
            tracer.instr(ev[1])


def _drive(tracer, events):
    """Apply an event list; return the snapshots taken along the way."""
    snaps = [tracer.snapshot()]
    for ev in events:
        if ev[0] == "flush":
            tracer.flush_caches()
        elif ev[0] == "snapshot":
            snaps.append(tracer.snapshot())
        else:
            _apply(tracer, [ev])
    snaps.append(tracer.snapshot())
    return snaps


@given(_events())
@settings(max_examples=150, deadline=None)
def test_engines_are_counter_identical(events):
    ref_snaps = _drive(_tracer("reference"), events)
    for name in _ALT_ENGINES:
        assert _drive(_tracer(name), events) == ref_snaps, name


def _tiny_reference():
    return PerfTracer(
        engine=ReferenceEngine(
            caches=CacheHierarchy(
                l1=Cache(2 * 64, 2, "L1"),
                l2=Cache(8 * 64, 2, "L2"),
                l3=Cache(16 * 64, 4, "L3"),
            ),
            tlb=TLB(l1_entries=2, l2_entries=4),
        )
    )


_TINY_KW = dict(
    l1=(2 * 64, 2), l2=(8 * 64, 2), l3=(16 * 64, 4), tlb_entries=(2, 4)
)


@given(_events())
@settings(max_examples=60, deadline=None)
def test_engines_identical_under_tiny_geometry(events):
    """Small caches/TLBs put every access on the eviction paths."""
    ref_snaps = _drive(_tiny_reference(), events)
    for eng in (FastEngine(**_TINY_KW), VectorEngine(**_TINY_KW)):
        assert _drive(PerfTracer(engine=eng), events) == ref_snaps, eng.name


@given(_events())
@settings(max_examples=40, deadline=None)
def test_engines_identical_under_degenerate_geometry(events):
    """1-set/1-way caches and a 1-entry TLB: everything evicts, always."""
    ref = PerfTracer(
        engine=ReferenceEngine(
            caches=CacheHierarchy(
                l1=Cache(64, 1, "L1"),
                l2=Cache(2 * 64, 2, "L2"),
                l3=Cache(4 * 64, 4, "L3"),
            ),
            tlb=TLB(l1_entries=1, l2_entries=1),
        )
    )
    kw = dict(l1=(64, 1), l2=(2 * 64, 2), l3=(4 * 64, 4), tlb_entries=(1, 1))
    ref_snaps = _drive(ref, events)
    for eng in (FastEngine(**kw), VectorEngine(**kw)):
        assert _drive(PerfTracer(engine=eng), events) == ref_snaps, eng.name


@given(_events())
@settings(max_examples=60, deadline=None)
def test_replay_equals_direct_execution(events):
    """Record through a recorder, replay on fresh replaying engines."""
    sites = SiteInterner()
    recorder = TraceRecorder(sites=sites)
    # Flushes and snapshots are measurement-loop concerns, not lookup
    # events; a trace holds only the tracer-visible stream.
    stream = [e for e in events if e[0] in ("read", "branch", "instr")]
    _apply(recorder, stream)
    trace = recorder.finish()

    direct = _tracer("reference", sites)
    _apply(direct, stream)
    expected = direct.snapshot()

    for name in _REPLAY_NAMES:
        t = _tracer(name, sites)
        t.replay(trace)
        assert t.snapshot() == expected, name
        # A second fresh engine replaying the same trace object reuses
        # the vector engine's compiled plan; still byte-identical.
        t2 = _tracer(name, sites)
        t2.replay(trace)
        assert t2.snapshot() == expected, name


@given(_events(), _events())
@settings(max_examples=40, deadline=None)
def test_replay_composes_with_live_events(events, events2):
    """Interleaving replays with direct calls keeps engines in lockstep."""
    stream = [e for e in events if e[0] in ("read", "branch", "instr")]
    stream2 = [e for e in events2 if e[0] in ("read", "branch", "instr")]
    sites = SiteInterner()
    recorder = TraceRecorder(sites=sites)
    _apply(recorder, stream)
    trace = recorder.finish()
    recorder2 = TraceRecorder(sites=sites)
    _apply(recorder2, stream2)
    trace2 = recorder2.finish()

    results = []
    for name in _REPLAY_NAMES:
        t = _tracer(name, sites)
        t.replay(trace)  # from pristine state
        snaps = [t.snapshot()]
        t.replay(trace2)  # chained replay
        snaps.append(t.snapshot())
        _apply(t, stream)  # live events between replays...
        t.replay(trace)  # ...so this replays against warmed state
        snaps.append(t.snapshot())
        t.flush_caches()
        t.replay(trace)  # and again from cold, twice
        t.flush_caches()
        t.replay(trace)
        snaps.append(t.snapshot())
        results.append(snaps)
    for name, snaps in zip(_REPLAY_NAMES[1:], results[1:]):
        assert snaps == results[0], name


@given(st.integers(1, 9), st.integers(0, 64), st.booleans())
@settings(max_examples=60, deadline=None)
def test_repeat_compression_boundaries(run_len, offset, branch_between):
    """K_REPEAT runs -- across instr/branch gaps and page boundaries.

    A repeated same-line read run-length-compresses into one K_REPEAT
    event; a read on a different line (here: across the page boundary)
    must break the run.  Replay of the compressed trace is exact on
    every engine.
    """
    sites = SiteInterner()
    recorder = TraceRecorder(sites=sites)
    stream = [("read", 0, offset, 8)]
    for _ in range(run_len):
        stream.append(("read", 0, offset, 1))
        if branch_between:
            stream.append(("branch", "loop", True))
            stream.append(("instr", 2))
    # Same line again, then break the run across the page boundary.
    stream.append(("read", 0, offset, 1))
    stream.append(("read", 4096 - 32, 0, 64))
    stream.append(("read", 0, offset, 1))
    _apply(recorder, stream)
    trace = recorder.finish()
    assert K_REPEAT in trace.kinds.tolist()

    direct = _tracer("reference", sites)
    _apply(direct, stream)
    expected = direct.snapshot()
    for name in _REPLAY_NAMES:
        t = _tracer(name, sites)
        t.replay(trace)
        assert t.snapshot() == expected, name


def test_vector_replay_resolves_leading_repeat_against_live_state():
    """A trace whose first read repeats the engine's MRU line.

    The vector plan cannot classify the first read at compile time (it
    depends on the replaying engine's state), so it is resolved at
    replay time -- both ways.
    """
    sites = SiteInterner()
    recorder = TraceRecorder(sites=sites)
    _apply(recorder, [("read", 4096, 0, 8), ("read", 4096, 8, 8)])
    trace = recorder.finish()
    for warm_addr in (4096, 1 << 20):  # MRU-matching and not
        snaps = []
        for name in _REPLAY_NAMES:
            t = _tracer(name, sites)
            t.read(warm_addr, 8)
            t.replay(trace)
            snaps.append(t.snapshot())
        assert snaps[1] == snaps[0], warm_addr


def test_branch_site_count_matches_across_engines():
    events = [("branch", s, t) for s in _SITES for t in (True, False, True)]
    engines = [cls() for cls in ENGINES.values()]
    for _, site, taken in events:
        for e in engines:
            e.branch(site, taken)
    assert {e.n_branch_sites() for e in engines} == {len(_SITES)}


@pytest.mark.parametrize("engine", _NAMES)
def test_multiline_and_page_crossing_reads(engine):
    """Deterministic spot-check: a read spanning lines and pages."""
    t = _tracer(engine)
    t.read(4096 - 32, 64)  # crosses a line AND a page boundary
    c = t.counters
    assert c.reads == 1
    assert c.l1_hits + c.l2_hits + c.l3_hits + c.llc_misses == 3  # walk + 2
    assert c.tlb_misses == 1  # only the first page is translated

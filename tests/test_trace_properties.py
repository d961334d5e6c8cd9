"""Property tests for trace recording and the TraceStore budget.

Two families:

* Recorder compression round-trip -- the recorder's ``K_REPEAT``
  run-length compression is lossless with respect to everything the
  simulator observes: event *counts* reconstruct exactly, and replaying
  the compressed trace yields byte-identical counters to the
  uncompressed event stream (on every engine; the differential suite
  covers engine equivalence, here we pin the compression itself).
* TraceStore invariants -- the event budget is never exceeded under
  either full-budget policy, FIFO eviction is deterministic in the put
  sequence, and an oversized trace is always declined.
"""

from __future__ import annotations

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim import (
    PerfTracer,
    ReferenceEngine,
    SiteInterner,
    TraceRecorder,
    TraceStore,
)
from repro.memsim.trace import K_BRANCH, K_INSTR, K_READ, K_REPEAT, Trace

_SITES = ["a.cmp", "b.descend", "c.clamp"]
_BASES = [0, 4096, 65536, 1 << 20, (1 << 20) + 64, 1 << 30]


def _streams():
    read = st.tuples(
        st.just("read"),
        st.sampled_from(_BASES),
        st.integers(0, 300),
        st.sampled_from([1, 2, 8, 24, 64, 200]),
    )
    branch = st.tuples(
        st.just("branch"), st.sampled_from(_SITES), st.booleans()
    )
    instr = st.tuples(st.just("instr"), st.integers(1, 9))
    return st.lists(st.one_of(read, branch, instr), max_size=250)


def _apply(tracer, stream):
    for ev in stream:
        if ev[0] == "read":
            tracer.read(ev[1] + ev[2], ev[3])
        elif ev[0] == "branch":
            tracer.branch(ev[1], ev[2])
        else:
            tracer.instr(ev[1])


# ---------------------------------------------------------------------------
# Recorder compression round-trip
# ---------------------------------------------------------------------------


@given(_streams())
@settings(max_examples=120, deadline=None)
def test_recorder_event_counts_round_trip(stream):
    """Compressed event counts reconstruct the original call counts."""
    rec = TraceRecorder(sites=SiteInterner())
    _apply(rec, stream)
    trace = rec.finish()

    kinds = trace.kinds.tolist()
    a = trace.a.tolist()
    b = trace.b.tolist()
    n_reads = sum(1 for k in kinds if k == K_READ) + sum(
        bb for k, bb in zip(kinds, b) if k == K_REPEAT
    )
    n_branches = sum(1 for k in kinds if k == K_BRANCH)
    instr_total = sum(aa for k, aa in zip(kinds, a) if k == K_INSTR)

    assert n_reads == sum(1 for ev in stream if ev[0] == "read")
    assert n_branches == sum(1 for ev in stream if ev[0] == "branch")
    assert instr_total == sum(ev[1] for ev in stream if ev[0] == "instr")
    # Compression only shrinks: never more events than tracer calls.
    assert len(trace) <= len(stream)


@given(_streams())
@settings(max_examples=120, deadline=None)
def test_recorder_compression_is_counter_lossless(stream):
    """Replaying the compressed trace == executing the raw stream."""
    sites = SiteInterner()
    rec = TraceRecorder(sites=sites)
    _apply(rec, stream)
    trace = rec.finish()

    direct = PerfTracer(engine=ReferenceEngine(sites=sites))
    _apply(direct, stream)

    replayed = PerfTracer(engine=ReferenceEngine(sites=sites))
    replayed.replay(trace)
    assert replayed.snapshot() == direct.snapshot()


@given(_streams())
@settings(max_examples=60, deadline=None)
def test_recorder_tee_preserves_inner_counters(stream):
    """The recorder forwards every event to its inner tracer unchanged."""
    sites = SiteInterner()
    plain = PerfTracer(engine=ReferenceEngine(sites=sites))
    _apply(plain, stream)

    teed = PerfTracer(engine=ReferenceEngine(sites=sites))
    rec = TraceRecorder(inner=teed, sites=sites)
    _apply(rec, stream)
    assert teed.snapshot() == plain.snapshot()


def test_repeat_events_merge_across_instr_and_branch():
    """Interleaved instr/branch events do not break a repeat run."""
    rec = TraceRecorder(sites=SiteInterner())
    rec.read(128, 8)
    for i in range(5):
        rec.read(130, 1)
        rec.instr(3)
        rec.branch("x", i % 2 == 0)
    trace = rec.finish()
    kinds = trace.kinds.tolist()
    assert kinds.count(K_REPEAT) == 1
    assert trace.b.tolist()[kinds.index(K_REPEAT)] == 5


# ---------------------------------------------------------------------------
# TraceStore budget and eviction invariants
# ---------------------------------------------------------------------------


def _trace_of(n_events: int) -> Trace:
    return Trace([K_INSTR] * n_events, [1] * n_events, [0] * n_events)


@given(
    st.lists(st.tuples(st.integers(0, 40), st.integers(1, 30)), max_size=60),
    st.integers(1, 80),
    st.booleans(),
)
@settings(max_examples=120, deadline=None)
def test_store_never_exceeds_budget(puts, budget, evict):
    store = TraceStore(max_events=budget, evict=evict)
    for key, size in puts:
        already = store.get(key) is not None
        admitted = store.put(key, _trace_of(size))
        assert store.events <= store.max_events
        if admitted and not already:
            assert store.events >= size
    # Bookkeeping is consistent with the resident set.
    assert store.events == sum(
        len(t) for t, _ in (store.get(k) or (Trace([], [], []), None)
                            for k in list(store._traces))
    )


def test_store_rejects_when_full_without_eviction():
    store = TraceStore(max_events=10)
    assert store.put("a", _trace_of(6))
    assert not store.put("b", _trace_of(5))
    assert store.rejects == 1
    assert store.evictions == 0
    assert store.get("a") is not None
    assert len(store) == 1


def test_store_evicts_fifo_deterministically():
    store = TraceStore(max_events=10, evict=True)
    assert store.put("a", _trace_of(4))
    assert store.put("b", _trace_of(4))
    # "c" needs 4 events; only "a" (the oldest) must go.
    assert store.put("c", _trace_of(4))
    assert store.evictions == 1
    assert store.get("a") is None
    assert store.get("b") is not None
    assert store.get("c") is not None
    # A newcomer needing the whole budget evicts everything else.
    assert store.put("d", _trace_of(10))
    assert store.evictions == 3
    assert len(store) == 1 and store.events == 10


def test_store_declines_oversized_trace_even_with_eviction():
    store = TraceStore(max_events=10, evict=True)
    assert store.put("a", _trace_of(4))
    assert not store.put("big", _trace_of(11))
    assert store.rejects == 1
    assert store.evictions == 0  # nothing was sacrificed for a lost cause
    assert store.get("a") is not None


def test_store_duplicate_key_is_idempotent():
    store = TraceStore(max_events=10, evict=True)
    assert store.put("a", _trace_of(6))
    assert store.put("a", _trace_of(6))  # same key: no double charge
    assert store.events == 6
    assert store.evictions == 0


@given(st.lists(st.integers(0, 25), min_size=1, max_size=50))
@settings(max_examples=80, deadline=None)
def test_store_eviction_matches_fifo_model(keys):
    """The resident set is exactly what a FIFO model predicts.

    Determinism: the surviving keys and their order are a pure function
    of the put sequence (re-putting a resident key is a no-op, so it
    does not refresh the key's eviction position).
    """
    size = 3
    budget = 12  # room for 4 resident traces
    store = TraceStore(max_events=budget, evict=True)
    model: dict = {}
    for k in keys:
        store.put(k, _trace_of(size))
        if k not in model:
            while (len(model) + 1) * size > budget:
                del model[next(iter(model))]
            model[k] = True
    assert list(store._traces) == list(model)

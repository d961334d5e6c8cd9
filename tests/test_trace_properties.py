"""Property tests for trace recording.

The recorder's ``K_REPEAT`` run-length compression is lossless with
respect to everything the simulator observes: event *counts*
reconstruct exactly, and replaying the compressed trace yields
byte-identical counters to the uncompressed event stream (on every
engine that replays; the differential suite covers engine equivalence,
here we pin the compression itself).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim import PerfTracer, ReferenceEngine, SiteInterner, TraceRecorder
from repro.memsim.trace import K_BRANCH, K_INSTR, K_READ, K_REPEAT

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

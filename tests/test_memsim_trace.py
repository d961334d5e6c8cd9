"""Unit tests for trace recording and replay (`repro.memsim.trace`)."""

from __future__ import annotations

import numpy as np

from repro.memsim import (
    PerfTracer,
    ReferenceEngine,
    SiteInterner,
    TraceRecorder,
    VectorEngine,
)
from repro.memsim.trace import K_BRANCH, K_INSTR, K_READ, K_REPEAT, Trace


class TestTraceRecorder:
    def test_records_typed_event_stream(self):
        rec = TraceRecorder()
        rec.read(0x2040, 16)
        rec.instr(3)
        rec.branch("bs.cmp", True)
        rec.branch("bs.cmp", False)
        trace = rec.finish()
        assert len(trace) == 4
        assert trace.kinds.dtype == np.uint8
        assert trace.a.dtype == np.int64 and trace.b.dtype == np.int64
        assert trace.kinds.tolist() == [K_READ, K_INSTR, K_BRANCH, K_BRANCH]
        assert trace.a.tolist() == [0x2040, 3, 0, 0]
        assert trace.b.tolist() == [16, 0, 1, 0]
        assert rec.sites.name(0) == "bs.cmp"

    def test_tees_events_to_inner_tracer(self):
        inner = PerfTracer()
        rec = TraceRecorder(inner)
        rec.read(64, 8)
        rec.instr(2)
        rec.branch("x", True)
        c = inner.counters
        assert c.reads == 1 and c.instructions == 4 and c.branches == 1

    def test_lists_are_plain_ints_and_cached(self):
        rec = TraceRecorder()
        rec.read(1 << 45, 8)  # bigger than int32: must survive int64
        trace = rec.finish()
        kinds, a, b = trace.lists()
        assert a == [1 << 45]
        assert type(a[0]) is int
        assert trace.lists() is trace.lists() or trace.lists()[1] is a

    def test_default_size_matches_tracer_default(self):
        rec = TraceRecorder()
        rec.read(128)
        assert rec.finish().b.tolist() == [8]

    def test_same_line_reads_compress_to_repeat(self):
        rec = TraceRecorder()
        rec.read(4096, 8)  # establishes line 64 MRU, page 1 MRU
        rec.read(4104, 8)  # same line: starts a repeat run
        rec.read(4096, 8)  # still the same line: merges
        rec.instr(2)
        rec.read(4100, 4)  # merges even across the instr event
        rec.read(4160, 8)  # next line: a fresh K_READ
        trace = rec.finish()
        assert trace.kinds.tolist() == [K_READ, K_REPEAT, K_INSTR, K_READ]
        assert trace.b.tolist() == [8, 3, 0, 8]

    def test_repeat_compression_replays_identically(self):
        def drive(t):
            t.read(4096, 8)
            t.read(4104, 8)
            t.read(4096, 8)
            t.read(8192, 64)  # multi-line, page-aligned
            t.read(8248, 8)  # repeat of that read's last line

        rec = TraceRecorder()
        drive(rec)
        trace = rec.finish()
        assert K_REPEAT in trace.kinds.tolist()
        direct = PerfTracer()
        drive(direct)
        for engine in (ReferenceEngine, VectorEngine):
            t = PerfTracer(engine=engine())
            t.replay(trace)
            assert t.snapshot() == direct.snapshot(), engine.name

    def test_page_crossing_read_blocks_repeat(self):
        # A read whose last line sits outside its first (translated)
        # page must NOT arm the repeat path: the next read of that line
        # could still take a TLB miss.
        rec = TraceRecorder()
        rec.read(4096 - 32, 64)  # crosses into page 1; translates page 0
        rec.read(4096, 8)  # same line as the previous read's last
        assert rec.finish().kinds.tolist() == [K_READ, K_READ]


class TestReplayThroughTracer:
    def test_empty_trace_is_a_noop(self):
        t = PerfTracer(engine=VectorEngine())
        t.replay(Trace([], [], []))
        assert t.snapshot() == PerfTracer().snapshot()

    def test_replay_accumulates_like_direct_calls(self):
        sites = SiteInterner()
        rec = TraceRecorder(sites=sites)
        rec.read(4096, 8)
        rec.branch("s", True)
        rec.instr(7)
        trace = rec.finish()
        t = PerfTracer(engine=VectorEngine(sites=sites))
        t.replay(trace)
        t.replay(trace)
        direct = PerfTracer()
        for _ in range(2):
            direct.read(4096, 8)
            direct.branch("s", True)
            direct.instr(7)
        assert t.snapshot() == direct.snapshot()

"""Tracer interface: the single instrumentation hook used by all indexes.

Every index's ``lookup`` is written once against this interface.  During
wall-clock benchmarking the no-op :data:`NULL_TRACER` is passed; during
paper-shape experiments a :class:`PerfTracer` (cache hierarchy + branch
predictor + instruction counter) is passed.  There are deliberately no
separate "fast" and "measured" code paths that could diverge.

:class:`PerfTracer` delegates the actual simulation to an engine
(``repro.memsim.engine``): the flat-structure fast engine unless the
caller passes another engine object (the reference engine tests use as
an oracle).  ``read``/``instr``/``branch`` are bound straight off the
engine in ``__init__`` so the hot path pays no per-event delegation.
"""

from __future__ import annotations

from typing import Optional

from repro.memsim.branch import BranchPredictor
from repro.memsim.cache import CacheHierarchy
from repro.memsim.counters import PerfCounters
from repro.memsim.engine import FastEngine, SiteInterner
from repro.memsim.tlb import TLB


class Tracer:
    """Abstract instrumentation sink.

    Methods
    -------
    read(addr, size):
        A data-dependent memory read of ``size`` bytes at byte address
        ``addr``.  Reads crossing a cache-line boundary count as two line
        accesses.
    instr(n):
        ``n`` retired arithmetic/logic instructions.
    branch(site, taken):
        A conditional branch at static site ``site`` with outcome ``taken``.
    phase(name):
        Marker: subsequent events belong to lookup phase ``name``
        ("model", "search", ...).  A no-op on every stock tracer; the
        profiling :class:`~repro.obs.phase.PhaseTracer` overrides it to
        attribute counter deltas per phase.  Markers are advisory and
        never recorded into traces, so they cannot change counters.

    The event methods return ``None`` -- lookup code cannot observe
    simulator state, which is what makes recorded event streams
    replayable (``repro.memsim.trace``).
    """

    def read(self, addr: int, size: int = 8) -> None:
        raise NotImplementedError

    def instr(self, n: int = 1) -> None:
        raise NotImplementedError

    def branch(self, site: str, taken: bool) -> None:
        raise NotImplementedError

    def phase(self, name: str) -> None:
        pass


class NullTracer(Tracer):
    """No-op tracer for wall-clock runs."""

    __slots__ = ()

    def read(self, addr: int, size: int = 8) -> None:
        pass

    def instr(self, n: int = 1) -> None:
        pass

    def branch(self, site: str, taken: bool) -> None:
        pass


#: Shared no-op tracer instance (stateless, safe to share).
NULL_TRACER = NullTracer()


class PerfTracer(Tracer):
    """Counting tracer backed by a memsim engine.

    ``engine`` is a prebuilt engine object, or ``None`` for a fresh
    :class:`~repro.memsim.engine.FastEngine`.
    ``counters``/``caches``/``predictor``/``tlb`` delegate to the
    engine; only the reference engine has the component objects, the
    fast engine raises ``AttributeError``.
    """

    __slots__ = ("engine", "read", "instr", "branch")

    def __init__(self, engine: Optional[object] = None):
        eng = engine if engine is not None else FastEngine()
        self.engine = eng
        self.read = eng.read
        self.instr = eng.instr
        self.branch = eng.branch

    @property
    def counters(self) -> PerfCounters:
        return self.engine.counters

    @property
    def caches(self) -> CacheHierarchy:
        return self.engine.caches

    @property
    def predictor(self) -> BranchPredictor:
        return self.engine.predictor

    @property
    def tlb(self) -> TLB:
        return self.engine.tlb

    @property
    def sites(self) -> SiteInterner:
        return self.engine.sites

    def snapshot(self) -> PerfCounters:
        return self.engine.snapshot()

    def flush_caches(self) -> None:
        self.engine.flush_caches()

    def replay(self, trace) -> None:
        """Re-run a recorded event stream (``repro.memsim.trace``)."""
        self.engine.replay(trace)

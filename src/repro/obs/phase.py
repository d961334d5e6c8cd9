"""Lookup-phase attribution: split perf counters into model vs. search.

Section 4.3 of the paper explains lookup latency almost entirely from
cache misses, branch misses and instruction count; SOSD (Kipf et al.)
goes one step further and splits those costs into *model evaluation*
versus *last-mile search*.  This module reproduces that split on the
simulated CPU.

Index ``lookup`` implementations (and the harness) mark phases through
the tracer interface -- ``tracer.phase("model")`` / ``tracer.phase("search")``
-- which is a no-op on every stock tracer.  Under ``--profile`` the
harness wraps its engine tracer in a :class:`PhaseTracer`, which keeps
``read``/``instr``/``branch`` bound straight to the engine (zero
per-event overhead) and, on each phase *transition*, attributes the
engine counter delta since the previous transition to the phase just
left.  Attribution is a telescoping sum of integer snapshots, so the
per-phase counters sum **byte-exactly** to the unphased totals
(``tests/test_obs_phase.py`` holds the fast and reference engines to
that).

The phase vocabulary is deliberately small:

* ``model`` -- arithmetic structure evaluation: RMI root+leaf models,
  PGM level predictions, RadixSpline table + interpolation, B-Tree
  descent bookkeeping.
* ``search`` -- comparison-loop searches: in-structure binary searches
  (PGM segments, RS spline, B-Tree nodes) and the last-mile search.
* ``other`` -- harness loop bookkeeping and the payload read.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.memsim.counters import PerfCounters
from repro.memsim.tracer import Tracer

PHASE_MODEL = "model"
PHASE_SEARCH = "search"
PHASE_OTHER = "other"

#: Canonical display order for reports.
PHASE_ORDER = (PHASE_MODEL, PHASE_SEARCH, PHASE_OTHER)

class PhaseTracer(Tracer):
    """Tracer wrapper attributing counter deltas to the active phase.

    Wraps an engine-backed :class:`~repro.memsim.tracer.PerfTracer`.
    The three hot methods are re-bound from the engine, so instrumented
    code pays nothing per event; only :meth:`phase` transitions cost an
    engine snapshot.  Events before the first marker land in ``other``.
    """

    __slots__ = ("inner", "read", "instr", "branch", "_current", "_last", "_totals")

    def __init__(self, inner):
        self.inner = inner
        self.read = inner.read
        self.instr = inner.instr
        self.branch = inner.branch
        self._current = PHASE_OTHER
        self._last = inner.snapshot()
        self._totals: Dict[str, PerfCounters] = {}

    def phase(self, name: str) -> None:
        if name == self._current:
            return
        snap = self.inner.snapshot()
        delta = snap - self._last
        total = self._totals.get(self._current)
        self._totals[self._current] = delta if total is None else total + delta
        self._last = snap
        self._current = name

    def checkpoint(self) -> Dict[str, PerfCounters]:
        """Attribute the pending delta, then return per-phase totals.

        The returned dict is a copy; taking an engine ``snapshot()``
        immediately after yields counters whose sum over phases equals
        it exactly (no events can interleave).
        """
        snap = self.inner.snapshot()
        delta = snap - self._last
        total = self._totals.get(self._current)
        self._totals[self._current] = delta if total is None else total + delta
        self._last = snap
        return {name: c.copy() for name, c in self._totals.items()}

    # -- delegation to the engine-backed tracer ---------------------------

    def snapshot(self) -> PerfCounters:
        return self.inner.snapshot()

    def flush_caches(self) -> None:
        self.inner.flush_caches()


def phase_window(
    end: Dict[str, PerfCounters],
    base: Optional[Dict[str, PerfCounters]],
) -> Dict[str, PerfCounters]:
    """Per-phase counters accrued between two checkpoints.

    Phases absent from ``base`` start from zero; phases whose counters
    did not move inside the window are dropped (they carry no signal).
    """
    zero = PerfCounters()
    out: Dict[str, PerfCounters] = {}
    for name, counters in end.items():
        delta = counters - base[name] if base and name in base else counters.copy()
        if delta != zero:
            out[name] = delta
    return out

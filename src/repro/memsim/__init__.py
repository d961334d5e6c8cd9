"""Simulated CPU and memory-hierarchy substrate.

The paper measures index structures with hardware performance counters
(last-level cache misses, branch mispredictions, instruction counts) and
nanosecond-scale wall-clock latencies on an Intel Xeon Gold 6230.  Pure
Python cannot observe those quantities directly, so this subpackage
provides a software stand-in:

* :class:`AddressSpace` / :class:`TracedArray` -- a byte-addressed space in
  which every index allocates its internal arrays, so that memory accesses
  have realistic addresses and spatial locality.
* :class:`CacheHierarchy` -- set-associative LRU L1/L2/L3 caches with 64-byte
  lines.
* :class:`BranchPredictor` -- per-site two-bit saturating counters.
* :class:`PerfTracer` -- the tracer indexes call into during a lookup; it
  accumulates a :class:`PerfCounters` on a :class:`FastEngine`, which
  also replays recorded :class:`Trace` streams.  :class:`ReferenceEngine`
  is the executable specification tests hold it to.
* :class:`CostModel` -- maps counters to estimated nanoseconds, including
  memory-fence and memory-level-parallelism effects.

Index lookup code is written once against the tracer interface; passing
:data:`NULL_TRACER` turns all instrumentation into no-ops for wall-clock
benchmarking.
"""

from repro.memsim.counters import PerfCounters
from repro.memsim.tracer import NULL_TRACER, NullTracer, PerfTracer, Tracer
from repro.memsim.cache import Cache, CacheHierarchy
from repro.memsim.branch import BranchPredictor
from repro.memsim.engine import FastEngine, ReferenceEngine, SiteInterner
from repro.memsim.trace import Trace, TraceRecorder
from repro.memsim.memory import AddressSpace, TracedArray
from repro.memsim.costmodel import CostModel, XEON_GOLD_6230

__all__ = [
    "PerfCounters",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "PerfTracer",
    "Cache",
    "CacheHierarchy",
    "BranchPredictor",
    "FastEngine",
    "ReferenceEngine",
    "SiteInterner",
    "Trace",
    "TraceRecorder",
    "AddressSpace",
    "TracedArray",
    "CostModel",
    "XEON_GOLD_6230",
]

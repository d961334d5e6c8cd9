"""Measurement harness: run traced lookup loops over the simulated CPU.

This is the analogue of the paper's timed lookup loop: build the index in
a fresh simulated address space (data array, payload array, index
internals), replay a workload through the index + last-mile search +
payload read, and collect per-lookup performance counters.  The cost
model converts counters to estimated nanoseconds.

Lookup results are verified against ground truth on every measured lookup
(the paper sums payloads for the same reason): a structure that returned
an invalid bound fails the measurement instead of producing garbage
numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.core.registry import make_index
from repro.core.interface import SortedDataIndex
from repro.datasets.loader import Dataset
from repro.datasets.workload import Workload
from repro.learned import kernels
from repro.memsim.costmodel import XEON_GOLD_6230, CostModel
from repro.memsim.counters import PerfCounters, PerfCountersF
from repro.memsim.memory import AddressSpace, TracedArray
from repro.memsim.trace import TraceRecorder, TraceStore
from repro.memsim.tracer import PerfTracer
from repro.memsim.vector import VectorEngine
from repro.obs import metrics as obs_metrics
from repro.obs import spans as obs_spans
from repro.obs.phase import PhaseTracer, phase_window, profiling_enabled
from repro.search.last_mile import SEARCH_FUNCTIONS

#: Instruction charge for the per-lookup loop body (increment, compare,
#: accumulate payload sum).
_LOOP_INSTR = 4


class LookupError_(AssertionError):
    """A measured lookup returned the wrong position."""


@dataclass
class BuiltIndex:
    """An index built into a simulated address space alongside its data."""

    index: SortedDataIndex
    data: TracedArray
    payloads: TracedArray
    space: AddressSpace
    dataset: Dataset
    config: dict = field(default_factory=dict)
    #: Lazily created by ``measure(..., replay=True)``: recorded lookup
    #: event streams, keyed by (search, key), replayed on repeat lookups.
    traces: Optional[TraceStore] = None
    #: Lazily created by the batched measure path:
    #: synthesized :class:`~repro.learned.kernels.BatchLookups` plus the
    #: assembled warmup/measured mega-traces, keyed by
    #: ``(search, warmup, n_lookups)`` and pinned to the workload object
    #: they were derived from.  Reusing the trace objects across
    #: ``measure`` calls is what lets the vector engine reuse its
    #: compiled plans and replay memos.
    batches: Optional[dict] = None


@dataclass
class Measurement:
    """Per-lookup averages for one (index config, workload) pair."""

    index: str
    dataset: str
    config: dict
    n_keys: int
    size_bytes: int
    build_seconds: float
    counters: PerfCountersF
    latency_ns: float
    fence_latency_ns: float
    avg_log2_bound: float
    n_lookups: int
    warm: bool = True
    search: str = "binary"
    key_bits: int = 64
    #: Raw per-phase counter totals over the measured window (``--profile``
    #: only, else None).  Values are integer :class:`PerfCounters` whose
    #: field-wise sum equals ``counters * n_lookups`` byte-exactly.
    phases: Optional[Dict[str, PerfCounters]] = None

    @property
    def size_mb(self) -> float:
        return self.size_bytes / (1024.0 * 1024.0)

    def phase_per_lookup(self) -> Optional[Dict[str, PerfCountersF]]:
        """Per-lookup float view of :attr:`phases` (None when unprofiled)."""
        if self.phases is None:
            return None
        return {
            name: c.per_lookup(self.n_lookups)
            for name, c in self.phases.items()
        }


def build_index(
    dataset: Dataset,
    index_name: str,
    config: Optional[dict] = None,
) -> BuiltIndex:
    """Build an index over a dataset in a fresh simulated address space."""
    config = dict(config or {})
    with obs_spans.span(
        "build", index=index_name, dataset=dataset.name, n_keys=dataset.n
    ) as sp:
        space = AddressSpace()
        dtype = np.uint32 if dataset.key_bits == 32 else np.uint64
        data = TracedArray.allocate(
            space, dataset.keys.astype(dtype), name="data"
        )
        payloads = TracedArray.allocate(space, dataset.payloads, name="payloads")
        index = make_index(index_name, **config).build(data, space)
        sp.set(build_seconds=index.build_seconds, size_bytes=index.size_bytes())
    return BuiltIndex(index, data, payloads, space, dataset, config)


def measure(
    built: BuiltIndex,
    workload: Workload,
    n_lookups: int = 1000,
    warmup: int = 300,
    warm: bool = True,
    search: str = "binary",
    cost_model: CostModel = XEON_GOLD_6230,
    verify: bool = True,
    engine: Optional[type] = None,
    replay: bool = False,
    profile: Optional[bool] = None,
) -> Measurement:
    """Replay a workload through the index on the simulated CPU.

    ``warm=False`` reproduces the paper's cold-cache experiment: caches
    and TLB are flushed before every measured lookup (the branch predictor
    stays warm, matching the paper's method of flushing only the cache).

    The execution path follows from the inputs alone.  Indexes the
    lookup kernels support (``kernels.supports``) take the batched path
    unless profiling, a non-batch search, or mutating lookups rule it
    out; everything else runs the per-lookup loop on a fast engine.
    Both paths produce the same counters, byte for byte.  ``engine`` is
    the test oracle hook: an engine class (called with ``sites=``, e.g.
    ``ReferenceEngine``) that runs the per-lookup loop instead.

    On the per-lookup loop, ``replay=True`` records each (search, key)
    lookup's event stream into ``built.traces`` on first execution and
    replays it on repeats -- sound because tracer calls return ``None``,
    so the stream is independent of simulator state.  Repeat-heavy
    callers (``measure_repeated``, warm/cold pairs over one build) get
    the speedup; one-shot grid cells default to off.

    ``profile`` (None -> ambient ``REPRO_OBS_PROFILE``, the CLI's
    ``--profile``) attributes counters to lookup phases via a
    :class:`~repro.obs.phase.PhaseTracer`; the per-phase totals land in
    ``Measurement.phases`` and sum byte-exactly to ``counters``.
    Profiling disables trace replay for this call (recorded streams
    carry no phase markers) but never changes any counter.
    """
    index = built.index
    data = built.data
    payloads = built.payloads
    search_fn = SEARCH_FUNCTIONS[search]
    n = len(data)
    keys = workload.keys_py
    truths = workload.positions_py
    n_work = len(keys)
    point_only = index.point_only
    if profile is None:
        profile = profiling_enabled()

    if (
        engine is None
        and not profile
        and n_work > 0
        and search in kernels.BATCH_SEARCHES
        and kernels.supports(index)
        and not getattr(index, "mutating_lookups", False)
    ):
        # Batched path: one kernel call synthesizes every distinct
        # lookup's event stream, then the vector engine replays the
        # warmup and measured windows wholesale.  Counter-identical to
        # the loop below (same event stream at both snapshot points);
        # unsupported indexes/searches, mutating lookups, and profiling
        # fall back to the per-lookup loop.
        return _measure_batched(
            built, workload, n_lookups, warmup, warm, search,
            cost_model, verify,
        )

    store = None
    if replay and not profile and not getattr(index, "mutating_lookups", False):
        if built.traces is None:
            built.traces = TraceStore()
        store = built.traces
    sites = store.sites if store is not None else None
    tracer = PerfTracer(
        engine=engine(sites=sites) if engine is not None else None,
        sites=sites,
    )
    if profile:
        tracer = PhaseTracer(tracer)
    replay_trace = tracer.replay

    def one_lookup(i: int, check: bool) -> float:
        key = keys[i % n_work]
        if store is not None:
            entry = store.get((search, key))
            if entry is not None:
                trace, lg = entry
                replay_trace(trace)
                return lg
            # Record the first execution (verified below even during
            # warmup, so every replayed stream was checked once).
            t = TraceRecorder(tracer, store.sites)
            check = check or verify
        else:
            t = tracer
        # Phase markers are no-ops unless `t` is a PhaseTracer; indexes
        # may refine "model" into finer phases (e.g. in-structure
        # "search") from inside their lookup.
        t.phase("model")
        bound = index.lookup(key, t)
        t.phase("search")
        pos = search_fn(data, key, bound, t)
        t.phase("other")
        t.instr(_LOOP_INSTR)
        if pos < n:
            payloads.touch(pos, t)
        if check:
            truth = truths[i % n_work]
            ok = pos == truth or (point_only and truth >= n)
            if not ok:
                raise LookupError_(
                    f"{index.name}: key {key} -> position {pos}, "
                    f"expected {truth} (bound [{bound.lo}, {bound.hi}))"
                )
        lg = math.log2(len(bound)) if len(bound) > 0 else 0.0
        if store is not None:
            store.put((search, key), t.finish(), lg)
        return lg

    measure_span = obs_spans.span(
        "measure",
        index=index.name,
        dataset=built.dataset.name,
        n_lookups=n_lookups,
        warmup=warmup,
        search=search,
        warm=warm,
        profile=profile,
    )
    with measure_span:
        replay_hits0 = store.hits if store is not None else 0
        replay_misses0 = store.misses if store is not None else 0
        for i in range(min(warmup, max(n_work, 1))):
            one_lookup(i, False)

        base = tracer.snapshot()
        # Checkpoint immediately after the base snapshot (no events can
        # interleave), so per-phase window deltas telescope to exactly
        # `snapshot() - base`.
        phase_base = tracer.checkpoint() if profile else None
        log2_sum = 0.0
        for i in range(n_lookups):
            if not warm:
                tracer.flush_caches()
            log2_sum += one_lookup(warmup + i, verify)
        phases = (
            phase_window(tracer.checkpoint(), phase_base) if profile else None
        )
        counters = (tracer.snapshot() - base).per_lookup(n_lookups)

        if store is not None:
            reg = obs_metrics.get_registry()
            reg.counter("harness.replay.hits").inc(store.hits - replay_hits0)
            reg.counter("harness.replay.misses").inc(
                store.misses - replay_misses0
            )
            reg.counter("memsim.trace_store.rejects").inc(store.rejects)
            store.rejects = 0
            reg.gauge("memsim.trace_store.events").set_max(store.events)
            reg.gauge("memsim.trace_store.traces").set_max(len(store))

    return Measurement(
        index=index.name,
        dataset=built.dataset.name,
        config=built.config,
        n_keys=n,
        size_bytes=index.size_bytes(),
        build_seconds=index.build_seconds,
        counters=counters,
        latency_ns=cost_model.latency_ns(counters, fence=False),
        fence_latency_ns=cost_model.latency_ns(counters, fence=True),
        avg_log2_bound=log2_sum / max(n_lookups, 1),
        n_lookups=n_lookups,
        warm=warm,
        search=search,
        key_bits=built.dataset.key_bits,
        phases=phases,
    )


def _measure_batched(
    built: BuiltIndex,
    workload: Workload,
    n_lookups: int,
    warmup: int,
    warm: bool,
    search: str,
    cost_model: CostModel,
    verify: bool,
) -> Measurement:
    """Vectorized measure: kernel-synthesized streams + batch replay.

    Produces the same :class:`Measurement` as the scalar loop, byte for
    byte: the synthesized per-key event streams equal the scalar ones
    (``repro.learned.kernels``), the warmup/measured windows replay the
    same lookup sequence around the same snapshot boundary, and
    ``avg_log2_bound`` accumulates per-lookup floats in the same order.
    """
    index = built.index
    data = built.data
    n = len(data)
    keys = workload.keys_py
    truths = workload.positions_py
    n_work = len(keys)
    point_only = index.point_only

    tracer = PerfTracer(engine=VectorEngine())
    # Synthesis and mega-trace assembly are pure functions of the
    # (index, workload, window) tuple, so they are cached on the built
    # index; repeat measures then hit the traces' compiled plans and
    # replay memos (see repro.memsim.vector).
    cache_key = (search, warmup, n_lookups)
    entry = built.batches.get(cache_key) if built.batches else None
    if entry is not None and entry[0] is not workload:
        entry = None
    if entry is None:
        # The scalar loops: warmup lookups i, measured lookups warmup+i.
        warm_seq = [i % n_work for i in range(min(warmup, max(n_work, 1)))]
        meas_seq = [(warmup + i) % n_work for i in range(n_lookups)]
        need = sorted(set(warm_seq) | set(meas_seq))
        uniq, inv = np.unique(
            np.array([keys[i] for i in need], dtype=np.uint64),
            return_inverse=True,
        )
        batch = kernels.batch_lookups(
            index, data, built.payloads, uniq, search, tracer.sites
        )
        row_of = dict(zip(need, (int(r) for r in inv)))
        warm_rows = [row_of[i] for i in warm_seq]
        meas_rows = [row_of[i] for i in meas_seq]
        entry = (
            workload,
            batch,
            meas_seq,
            meas_rows,
            batch.mega_trace(warm_rows) if warm_rows else None,
            batch.mega_trace(meas_rows) if meas_rows else None,
        )
        if built.batches is None:
            built.batches = {}
        elif len(built.batches) >= 8:
            built.batches.clear()
        built.batches[cache_key] = entry
    _, batch, meas_seq, meas_rows, warm_trace, meas_trace = entry

    if verify:
        # Same check, same failure order, as the scalar measured loop.
        pos_l = batch.pos.tolist()
        lo_l = batch.lo.tolist()
        hi_l = batch.hi.tolist()
        for i, r in zip(meas_seq, meas_rows):
            pos = pos_l[r]
            truth = truths[i]
            if not (pos == truth or (point_only and truth >= n)):
                raise LookupError_(
                    f"{index.name}: key {keys[i]} -> position {pos}, "
                    f"expected {truth} (bound [{lo_l[r]}, {hi_l[r]}))"
                )

    lg = batch.lg
    with obs_spans.span(
        "measure",
        index=index.name,
        dataset=built.dataset.name,
        n_lookups=n_lookups,
        warmup=warmup,
        search=search,
        warm=warm,
        profile=False,
    ):
        if warm_trace is not None:
            tracer.replay(warm_trace)
        base = tracer.snapshot()
        log2_sum = 0.0
        if warm:
            if meas_trace is not None:
                tracer.replay(meas_trace)
            for r in meas_rows:
                log2_sum += lg[r]
        else:
            # Cold-cache: flush before every measured lookup, so each
            # lookup replays individually (per-row plans are cached).
            for r in meas_rows:
                tracer.flush_caches()
                tracer.replay(batch.trace_for(r))
                log2_sum += lg[r]
        counters = (tracer.snapshot() - base).per_lookup(n_lookups)

    return Measurement(
        index=index.name,
        dataset=built.dataset.name,
        config=built.config,
        n_keys=n,
        size_bytes=index.size_bytes(),
        build_seconds=index.build_seconds,
        counters=counters,
        latency_ns=cost_model.latency_ns(counters, fence=False),
        fence_latency_ns=cost_model.latency_ns(counters, fence=True),
        avg_log2_bound=log2_sum / max(n_lookups, 1),
        n_lookups=n_lookups,
        warm=warm,
        search=search,
        key_bits=built.dataset.key_bits,
        phases=None,
    )


def measure_index(
    dataset: Dataset,
    workload: Workload,
    index_name: str,
    config: Optional[dict] = None,
    **measure_kwargs,
) -> Measurement:
    """Convenience: build + measure in one call."""
    built = build_index(dataset, index_name, config)
    return measure(built, workload, **measure_kwargs)


@dataclass
class RepeatedMeasurement:
    """Chunked measurement with dispersion (error bars for figures)."""

    measurement: Measurement  # aggregate over all chunks
    chunk_latencies_ns: list

    @property
    def mean_latency_ns(self) -> float:
        return sum(self.chunk_latencies_ns) / len(self.chunk_latencies_ns)

    @property
    def std_latency_ns(self) -> float:
        mean = self.mean_latency_ns
        var = sum((x - mean) ** 2 for x in self.chunk_latencies_ns) / max(
            len(self.chunk_latencies_ns) - 1, 1
        )
        return var**0.5


def measure_repeated(
    built: BuiltIndex,
    workload: Workload,
    n_chunks: int = 5,
    chunk_lookups: int = 300,
    warmup: int = 300,
    cost_model: CostModel = XEON_GOLD_6230,
    replay: bool = True,
    **measure_kwargs,
) -> RepeatedMeasurement:
    """Measure in chunks over one warm run; report per-chunk dispersion.

    The simulator is deterministic given a workload, so dispersion here
    reflects genuine workload heterogeneity (different keys hit different
    structure regions), not timer noise.

    Chunk ``i`` re-runs the previous chunks' lookups as its warmup, so
    trace replay is on by default here: every lookup seen before is
    replayed from its recorded event stream instead of re-executing
    index code, with byte-identical counters
    (``tests/test_harness_replay.py``).
    """
    chunks = []
    for i in range(n_chunks):
        # Each chunk measures a different slice of the workload (the
        # measured window starts after `warmup` lookups).
        m = measure(
            built,
            workload,
            n_lookups=chunk_lookups,
            warmup=warmup + i * chunk_lookups,
            cost_model=cost_model,
            replay=replay,
            **measure_kwargs,
        )
        chunks.append(m)
    total = chunks[-1]
    return RepeatedMeasurement(
        measurement=total,
        chunk_latencies_ns=[c.latency_ns for c in chunks],
    )

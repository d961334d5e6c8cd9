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
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.registry import make_index
from repro.core.interface import SortedDataIndex
from repro.datasets.loader import Dataset
from repro.datasets.workload import Workload
from repro.learned import kernels
from repro.memsim.costmodel import XEON_GOLD_6230, CostModel
from repro.memsim.counters import PerfCounters, PerfCountersF
from repro.memsim.memory import AddressSpace, TracedArray
from repro.memsim.tracer import PerfTracer
from repro.obs import spans as obs_spans
from repro.obs.phase import PhaseTracer, phase_window, profiling_enabled
from repro.records import OMIT_DEFAULT, Record
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


@dataclass
class Measurement(Record):
    """Per-lookup averages for one (index config, workload) pair.

    Its JSON form (:mod:`repro.records`) is the lossless record the
    result cache stores -- unlike ``export``'s flattened rows, it keeps
    every field needed to reconstruct the measurement.
    """

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
    phases: Optional[Dict[str, PerfCounters]] = field(
        default=None, metadata=OMIT_DEFAULT
    )

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

    The execution path follows from the inputs alone; both run on one
    fast engine and produce the same counters, byte for byte.  Indexes
    the lookup kernels support (``kernels.supports``) take the batched
    path unless profiling or a non-batch search rules it out: the
    engine replays kernel-synthesized event streams.  Everything else
    runs the per-lookup loop, which sends the engine one call per
    event.  ``engine`` is the test oracle hook: an engine class (e.g.
    ``ReferenceEngine``) that runs the per-lookup loop instead.

    ``profile`` (None -> ambient ``REPRO_OBS_PROFILE``, the CLI's
    ``--profile``) attributes counters to lookup phases via a
    :class:`~repro.obs.phase.PhaseTracer`; the per-phase totals land in
    ``Measurement.phases`` and sum byte-exactly to ``counters``.
    Profiling never changes any counter.
    """
    if replay:
        # Kept only because benchmarks/e2e/tracer.py binds it to label paths.
        raise ValueError("measure(replay=True) is no longer supported")
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
    batched = (
        engine is None
        and not profile
        and n_work > 0
        and search in kernels.BATCH_SEARCHES
        and kernels.supports(index)
    )

    tracer = PerfTracer(engine=engine() if engine is not None else None)
    if profile:
        tracer = PhaseTracer(tracer)

    def one_lookup(i: int, check: bool) -> float:
        key = keys[i % n_work]
        # Phase markers are no-ops unless `tracer` is a PhaseTracer;
        # indexes may refine "model" into finer phases (e.g.
        # in-structure "search") from inside their lookup.
        tracer.phase("model")
        bound = index.lookup(key, tracer)
        tracer.phase("search")
        pos = search_fn(data, key, bound, tracer)
        tracer.phase("other")
        tracer.instr(_LOOP_INSTR)
        if pos < n:
            payloads.touch(pos, tracer)
        if check:
            truth = truths[i % n_work]
            if not (pos == truth or (point_only and truth >= n)):
                raise _lookup_error(index, key, pos, truth, bound.lo, bound.hi)
        return math.log2(len(bound)) if len(bound) > 0 else 0.0

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
        if batched:
            base, log2_sum = _measure_batched(
                built, workload, n_lookups, warmup, warm, search, verify,
                tracer,
            )
        else:
            for i in range(min(warmup, max(n_work, 1))):
                one_lookup(i, False)
            base = tracer.snapshot()
            # Checkpoint immediately after the base snapshot (no events
            # can interleave), so per-phase window deltas telescope to
            # exactly `snapshot() - base`.
            phase_base = tracer.checkpoint() if profile else None
            log2_sum = 0.0
            for i in range(n_lookups):
                if not warm:
                    tracer.flush_caches()
                log2_sum += one_lookup(warmup + i, verify)
        counters = (tracer.snapshot() - base).per_lookup(n_lookups)
        phases = (
            phase_window(tracer.checkpoint(), phase_base) if profile else None
        )

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


def _lookup_error(index, key, pos, truth, lo, hi) -> LookupError_:
    return LookupError_(
        f"{index.name}: key {key} -> position {pos}, "
        f"expected {truth} (bound [{lo}, {hi}))"
    )


def _measure_batched(
    built: BuiltIndex,
    workload: Workload,
    n_lookups: int,
    warmup: int,
    warm: bool,
    search: str,
    verify: bool,
    tracer: PerfTracer,
) -> Tuple[PerfCounters, float]:
    """The batched path's body: synthesis, verification and replay.

    Returns the counter snapshot at the start of the measured window
    and the window's ``log2`` bound sum, the same as the per-lookup
    loop: the synthesized per-key event streams equal the scalar ones
    (``repro.learned.kernels``), the warmup/measured windows replay the
    same lookup sequence around the same snapshot boundary, and the
    per-lookup ``log2`` floats accumulate in the same order.
    """
    index = built.index
    n = len(built.data)
    keys = workload.keys_py
    truths = workload.positions_py
    point_only = index.point_only
    with obs_spans.span("synthesize"):
        batch, meas_seq, meas_rows, warm_trace, meas_trace = _synthesize(
            built, keys, warmup, n_lookups, search, tracer.sites
        )

    if verify:
        # Same check, same failure order, as the per-lookup loop.
        pos_l = batch.pos.tolist()
        for i, r in zip(meas_seq, meas_rows):
            pos = pos_l[r]
            truth = truths[i]
            if not (pos == truth or (point_only and truth >= n)):
                raise _lookup_error(
                    index, keys[i], pos, truth, int(batch.lo[r]),
                    int(batch.hi[r]),
                )

    lg = batch.lg
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
    return base, log2_sum


def _synthesize(built, keys, warmup, n_lookups, search, sites) -> tuple:
    """One window's kernel batch, row sequences and mega-traces."""
    n_work = len(keys)
    # The scalar loops: warmup lookups i, measured lookups warmup+i.
    warm_seq = [i % n_work for i in range(min(warmup, max(n_work, 1)))]
    meas_seq = [(warmup + i) % n_work for i in range(n_lookups)]
    need = sorted(set(warm_seq) | set(meas_seq))
    uniq, inv = np.unique(
        np.array([keys[i] for i in need], dtype=np.uint64),
        return_inverse=True,
    )
    batch = kernels.batch_lookups(
        built.index, built.data, built.payloads, uniq, search, sites
    )
    row_of = dict(zip(need, (int(r) for r in inv)))
    warm_rows = [row_of[i] for i in warm_seq]
    meas_rows = [row_of[i] for i in meas_seq]
    return (
        batch,
        meas_seq,
        meas_rows,
        batch.mega_trace(warm_rows) if warm_rows else None,
        batch.mega_trace(meas_rows) if meas_rows else None,
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

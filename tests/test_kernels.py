"""Batch-predict kernels == scalar lookups, element-wise.

``repro.learned.kernels`` vectorizes the model phase of RMI/PGM/RS
lookups, the baselines' descents (BS, RBS, BTree, IBTree, FAST, ART),
the hash tables' probes (RobinHash, CuckooMap) and the last-mile binary
search over sorted key batches.  The contract is *bit*-equality with the
scalar path: same positions, same error bounds, and a synthesized
per-key event stream whose replay is counter-identical to recording the
scalar lookup -- for present keys, duplicate probes, and out-of-range
probes alike.
"""

from __future__ import annotations

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import _LOOP_INSTR, build_index
from repro.datasets.loader import Dataset
from repro.learned import kernels
from repro.core.bounds import SearchBound
from repro.memsim import (
    FastEngine,
    PerfTracer,
    ReferenceEngine,
    SiteInterner,
    Trace,
    TraceRecorder,
)
from repro.search.last_mile import SEARCH_FUNCTIONS

_CONFIGS = [
    ("RMI", {"branching": 8}),
    ("RMI", {"branching": 64, "stage1": "linear"}),
    ("PGM", {"epsilon": 4}),
    ("RS", {"radix_bits": 8, "epsilon": 4}),
    ("BS", {}),
    ("RBS", {"radix_bits": 6}),
    ("RBS", {"radix_bits": 10}),
    ("BTree", {"gap": 1}),
    ("BTree", {"gap": 8}),
    ("BTree", {"gap": 1, "fanout": 4}),
    ("IBTree", {"gap": 1}),
    ("IBTree", {"gap": 8}),
    ("FAST", {"gap": 1}),
    ("FAST", {"gap": 8}),
    ("ART", {"gap": 1}),
    ("ART", {"gap": 8}),
    ("ART", {"gap": 8, "sampling": "adaptive"}),
    ("RobinHash", {}),
    # Long probe runs and early-outs.
    ("RobinHash", {"load_factor": 0.9}),
    ("CuckooMap", {}),
]
#: Indexes that take only 32-bit keys, as the paper's SIMD CuckooMap.
_KEYS32 = ("CuckooMap",)
_IDS = [
    f"{n}-{'-'.join(map(str, c.values()))}" if c else n for n, c in _CONFIGS
]


def _dataset(key_set, key_bits=64) -> Dataset:
    keys = np.array(sorted(key_set), dtype=np.uint64)
    return Dataset("synth", keys, np.arange(len(keys), dtype=np.uint64),
                   key_bits=key_bits)


def _dataset_for(index_name, key_set, key_bits=64) -> Dataset:
    """``_dataset``, with each key cut to its top 32 bits for an index
    that takes only 32-bit keys."""
    if index_name not in _KEYS32:
        return _dataset(key_set, key_bits)
    keys = {int(k) >> max(int(k).bit_length() - 32, 0) for k in key_set}
    return _dataset(keys, key_bits=32)


def _probes(keys: np.ndarray, picks) -> np.ndarray:
    """Present keys, near-misses, out-of-range extremes, and duplicates."""
    lo_k = int(keys[0])
    hi_k = int(keys[-1])
    out = []
    for idx, kind in picks:
        if kind == "present":
            out.append(int(keys[idx % len(keys)]))
        elif kind == "absent":
            out.append(int(keys[idx % len(keys)]) ^ 1)
        elif kind == "low":
            out.append(max(lo_k - 1 - idx, 0))
        else:
            out.append(min(hi_k + 1 + idx, (1 << 64) - 1))
    # Guaranteed duplicates and extremes in every batch.
    out += [out[0], int(keys[0]), int(keys[-1]), 0, (1 << 64) - 1]
    return np.array(out, dtype=np.uint64)


def _scalar_lookup(built, key, search, sites):
    """One scalar lookup, recorded exactly as the measure loop feeds it."""
    rec = TraceRecorder(sites=sites)
    bound = built.index.lookup(key, rec)
    pos = SEARCH_FUNCTIONS[search](built.data, key, bound, rec)
    rec.instr(_LOOP_INSTR)
    if pos < len(built.data):
        built.payloads.touch(pos, rec)
    return bound, pos, rec.finish()


def _assert_batch_matches_scalar(built, probes, search="binary"):
    sites = SiteInterner()
    batch = kernels.batch_lookups(
        built.index, built.data, built.payloads, probes, search, sites
    )
    pos_l = batch.pos.tolist()
    lo_l = batch.lo.tolist()
    hi_l = batch.hi.tolist()
    for r, key in enumerate(probes.tolist()):
        bound, pos, trace = _scalar_lookup(built, key, search, sites)
        assert (lo_l[r], hi_l[r]) == (bound.lo, bound.hi), key
        assert pos_l[r] == pos, key
        # Same stream, counter-wise: replay both on fresh reference
        # engines (the stream is state-independent by construction).
        t_scalar = PerfTracer(engine=ReferenceEngine(sites=sites))
        t_scalar.replay(trace)
        t_batch = PerfTracer(engine=ReferenceEngine(sites=sites))
        t_batch.replay(batch.trace_for(r))
        assert t_batch.snapshot() == t_scalar.snapshot(), key


@pytest.mark.parametrize("index_name,config", _CONFIGS, ids=_IDS)
@given(
    key_set=st.sets(st.integers(0, (1 << 63) - 1), min_size=60, max_size=160),
    picks=st.lists(
        st.tuples(
            st.integers(0, 1 << 20),
            st.sampled_from(["present", "absent", "low", "high"]),
        ),
        min_size=1,
        max_size=25,
    ),
)
@settings(max_examples=15, deadline=None)
def test_batch_equals_scalar_elementwise(index_name, config, key_set, picks):
    ds = _dataset_for(index_name, key_set)
    built = build_index(ds, index_name, config)
    _assert_batch_matches_scalar(built, _probes(ds.keys, picks))


@pytest.mark.parametrize("index_name,config", _CONFIGS, ids=_IDS)
def test_batch_equals_scalar_32bit(index_name, config):
    rng = np.random.default_rng(11)
    keys = np.unique(rng.integers(0, 1 << 32, 500, dtype=np.uint64))
    ds = _dataset_for(index_name, keys, key_bits=32)
    built = build_index(ds, index_name, config)
    picks = [(i * 37, k) for i, k in enumerate(
        ["present", "absent", "low", "high"] * 6
    )]
    _assert_batch_matches_scalar(built, _probes(ds.keys, picks))


@pytest.mark.parametrize("index_name,config", _CONFIGS, ids=_IDS)
def test_batch_equals_scalar_outlier_keys(index_name, config):
    """A few huge outliers over dense small keys, as in ``face``: RBS's
    prefixes collapse, so nearly every key shares prefix 0."""
    keys = list(range(1_000, 41_000, 97)) + [
        (1 << 64) - 1 - 3 * i for i in range(5)
    ]
    ds = _dataset_for(index_name, keys)
    built = build_index(ds, index_name, config)
    picks = [(i * 13, k) for i, k in enumerate(
        ["present", "absent", "low", "high"] * 8
    )]
    _assert_batch_matches_scalar(built, _probes(ds.keys, picks))


@pytest.mark.parametrize("key_bits", [64, 32])
@pytest.mark.parametrize("index_name,config", _CONFIGS, ids=_IDS)
def test_linear_batch_equals_scalar(index_name, config, key_bits):
    """The scan form: one read per line, repeats and a run of outcomes,
    for every family's bounds; 32-bit data holds 16 words a line."""
    rng = np.random.default_rng(13)
    keys = np.unique(rng.integers(0, 1 << key_bits, 700, dtype=np.uint64))
    ds = _dataset_for(index_name, keys, key_bits=key_bits)
    built = build_index(ds, index_name, config)
    picks = [(i * 29, k) for i, k in enumerate(
        ["present", "absent", "low", "high"] * 6
    )]
    _assert_batch_matches_scalar(built, _probes(ds.keys, picks), "linear")


class _FixedBounds:
    """An index that answers each key with a given bound."""

    name = "fixed"
    point_only = False

    def __init__(self, bounds):
        self.bounds = bounds  # key -> (lo, hi)

    def lookup(self, key, tracer):
        return SearchBound(*self.bounds[key])


def _fixed_bounds_kernel(index, keys, sink, sites):
    lo, hi = zip(*(index.bounds[k] for k in keys.tolist()))
    return np.array(lo, dtype=np.int64), np.array(hi, dtype=np.int64)


@pytest.mark.parametrize("key_bits", [64, 32])
def test_linear_scan_edge_bounds(monkeypatch, key_bits):
    """Empty bounds, bounds at ``n``, scans that stop at their first
    word, not-found scans that end at ``min(hi, n)``, and scans across
    line and page boundaries (a page holds 512 64-bit or 1024 32-bit
    words)."""
    monkeypatch.setattr(
        kernels, "_kernel_table", lambda: {_FixedBounds: _fixed_bounds_kernel}
    )
    ds = _dataset(range(10, 10 + 7 * 3_000, 7), key_bits=key_bits)
    built = build_index(ds, "BS", {})
    k = ds.keys.tolist()
    n = len(k)
    bounds = {
        k[5]: (5, 5),  # empty
        k[6]: (9, 9),  # empty, above the key
        k[40]: (n, n + 1),  # at n: empty once clipped
        k[0]: (10, 50),  # stops at its first word
        k[49] + 1: (3, 49),  # not found, ends at hi
        k[-1] + 5: (n - 700, n + 9),  # not found, ends at n
        k[2_100]: (0, n + 1),  # found after 2,101 words, 4+ pages
        k[1_500] + 3: (1_023, 1_537),  # absent, ends inside the bound
        k[511]: (504, 520),  # crosses a page at 512 (64-bit)
        k[1_024]: (1_020, 1_030),  # crosses a page at 1,024 (32-bit)
        0: (0, n + 1),  # below every key
    }
    built.index = _FixedBounds(bounds)
    probes = np.array(list(bounds) + [k[2_100], k[0]], dtype=np.uint64)
    _assert_batch_matches_scalar(built, probes, "linear")


def _concat(traces):
    return Trace(
        np.concatenate([t.kinds for t in traces]),
        np.concatenate([t.a for t in traces]),
        np.concatenate([t.b for t in traces]),
    )


@pytest.mark.parametrize("search", kernels.BATCH_SEARCHES)
@pytest.mark.parametrize("index_name,config", _CONFIGS, ids=_IDS)
def test_plan_replays_like_the_rows_traces(index_name, config, search):
    """``BatchLookups.plan(rows)`` == ``Trace.plan()`` of the rows'
    events, warm and cold, from an engine that already holds state: its
    last read left the first row's first line MRU."""
    rng = np.random.default_rng(17)
    keys = np.unique(rng.integers(0, 1 << 63, 400, dtype=np.uint64))
    ds = _dataset_for(index_name, keys)
    built = build_index(ds, index_name, config)
    picks = [(i * 41, k) for i, k in enumerate(
        ["present", "absent", "low", "high"] * 5
    )]
    sites = SiteInterner()
    batch = kernels.batch_lookups(
        built.index, built.data, built.payloads,
        np.unique(_probes(ds.keys, picks)), search, sites,
    )
    n_rows = len(batch.pos)
    for rows in (
        rng.integers(0, n_rows, 3 * n_rows).tolist(),  # repeats
        [int(rng.integers(n_rows))],
        list(range(n_rows)),
    ):
        traces = [batch.trace_for(r) for r in rows]
        first = traces[0]
        first_read = int(first.a[first.kinds == kernels.K_READ][0])
        engines = [FastEngine(sites=sites) for _ in range(4)]
        for eng in engines:
            eng.replay(batch.trace_for(n_rows - 1))
            eng.branch("lastmile.binary", True)
            eng.read(first_read, 1)
        plan_warm, trace_warm, plan_cold, trace_cold = engines
        plan_warm.replay(batch.plan(rows))
        trace_warm.replay(_concat(traces))
        assert plan_warm.snapshot() == trace_warm.snapshot(), rows
        plan_cold.replay(batch.plan(rows, cold=True))
        for t in traces:
            trace_cold.flush_caches()
            trace_cold.replay(t)
        assert plan_cold.snapshot() == trace_cold.snapshot(), rows
        # Both leave the same state behind.
        for eng in engines:
            eng.read(first_read, 8)
            eng.replay(traces[-1])
        assert plan_warm.snapshot() == trace_warm.snapshot()
        assert plan_cold.snapshot() == trace_cold.snapshot()


_ART_KEYS = st.sampled_from([32, 64]).flatmap(
    lambda bits: st.tuples(
        st.just(bits),
        st.sets(
            st.one_of(
                st.integers(0, 2**bits - 1),
                # Clustered keys share long prefixes and build deep tries.
                st.integers(0, 2**12).map(lambda k: 2 ** (bits - 1) + k),
            ),
            min_size=1,
            max_size=200,
        ),
    )
)


@given(
    key_set=_ART_KEYS,
    gap=st.sampled_from([1, 2, 8]),
    sampling=st.sampled_from(["uniform", "adaptive"]),
    picks=st.lists(
        st.tuples(
            st.integers(0, 1 << 20),
            st.sampled_from(["present", "absent", "low", "high"]),
        ),
        min_size=1,
        max_size=25,
    ),
)
@settings(max_examples=60, deadline=None)
def test_art_batch_equals_scalar_on_deep_tries(key_set, gap, sampling, picks):
    """Long compressed prefixes, one-leaf tries and keys wider than a
    32-bit trie: every state of the lockstep descent."""
    bits, keys = key_set
    ds = _dataset(keys, key_bits=bits)
    built = build_index(ds, "ART", {"gap": gap, "sampling": sampling})
    _assert_batch_matches_scalar(built, _probes(ds.keys, picks))


def test_batch_bounds_alone_matches_lookup():
    ds = _dataset(range(0, 50_000, 7))
    built = build_index(ds, "PGM", {"epsilon": 16})
    probes = np.array(
        [0, 7, 8, 49_993, 49_999, 1 << 60, 3, 3, 3], dtype=np.uint64
    )
    lo, hi = kernels.batch_bounds(built.index, probes)
    for r, key in enumerate(probes.tolist()):
        bound = built.index.lookup(key, PerfTracer(engine=ReferenceEngine()))
        assert (int(lo[r]), int(hi[r])) == (bound.lo, bound.hi), key


def test_supports_is_exact_class_match():
    ds = _dataset(range(0, 3_000, 3))
    assert kernels.supports(build_index(ds, "RMI", {"branching": 8}).index)
    assert kernels.supports(build_index(ds, "BTree", {}).index)
    assert not kernels.supports(build_index(ds, "Wormhole", {}).index)


def test_unsupported_index_and_search_raise():
    ds = _dataset(range(0, 3_000, 3))
    wormhole = build_index(ds, "Wormhole", {})
    probes = np.array([3, 9], dtype=np.uint64)
    with pytest.raises(TypeError, match="no batch kernel"):
        kernels.batch_bounds(wormhole.index, probes)
    rmi = build_index(ds, "RMI", {"branching": 8})
    with pytest.raises(ValueError, match="no batched synthesis"):
        kernels.batch_lookups(
            rmi.index, rmi.data, rmi.payloads, probes, "interpolation",
            SiteInterner(),
        )


def test_event_sink_keeps_the_values_emitted():
    # A kernel may update its arrays in place after emitting them
    # (``live &= ~hit``); the emitted column must keep the old values.
    sink = kernels.EventSink(4)
    live = np.array([True, True, False, True])
    addr = np.array([10, 20, 30, 40], dtype=np.int64)
    sink.emit(kernels.K_READ, addr, 8, mask=live)
    sink.emit(kernels.K_BRANCH, 5, addr > 15, mask=live)
    sink.emit(kernels.K_INSTR, addr, 0, mask=live)
    live &= np.array([False, True, True, True])
    addr += 1
    sink.emit(kernels.K_READ, addr, 8, mask=live)
    sink.emit(kernels.K_BRANCH, 5, addr > 25, mask=live)
    batch = kernels.BatchLookups(addr, addr, addr, sink)
    assert batch.valid.tolist() == [
        [True, False], [True, True], [False, False], [True, True]
    ]
    assert batch.addr.tolist() == [[10, 11], [20, 21], [30, 31], [40, 41]]
    assert (batch.size == 8).all()
    taken, valid = batch.sites[5]
    assert (taken & valid).tolist() == [
        [False, False], [True, False], [False, False], [True, True]
    ]
    assert batch.instr.tolist() == [10, 20, 0, 40]

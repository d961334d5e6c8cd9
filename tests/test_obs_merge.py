"""Cross-process span merge: serial and pooled runs agree modulo pids.

Workers capture spans into private buffers and ship them back with their
results; the parent injects them in deterministic dispatch order.  The
resulting span stream -- paths, names, statuses, deterministic
attributes, order -- must be identical between ``jobs=1`` and
``jobs=2``; only pids, span ids, and wall-clock fields may differ.
"""

from __future__ import annotations

import os

import pytest

from repro.bench.cache import MeasurementCache
from repro.bench.cells import MeasureCell, freeze_config
from repro.bench.experiments import common
from repro.bench.parallel import run_cells
from repro.obs import spans
from repro.obs.report import worker_cells_from_spans

#: Span attributes that are real wall clock, never compared.
VOLATILE_ATTRS = ("build_seconds",)


@pytest.fixture(autouse=True)
def clean_state(monkeypatch):
    common.set_active_cache(None)
    common.clear_caches()
    spans.reset()
    # Env (not enable()) so spawned pool workers inherit the switch.
    monkeypatch.setenv("REPRO_OBS", "1")
    yield
    spans.reset()
    common.set_active_cache(None)
    common.clear_caches()


@pytest.fixture(scope="module")
def grid():
    cells = []
    for ds_name in ("amzn", "osm"):
        for index_name, config in (("RMI", {"branching": 64}), ("BTree", {})):
            cells.append(
                MeasureCell(
                    dataset=ds_name,
                    n_keys=2_000,
                    seed=3,
                    key_bits=64,
                    index=index_name,
                    config=freeze_config(config),
                    n_lookups=50,
                    warmup=20,
                )
            )
    return cells


def comparable_view(records):
    """Span stream with pids/ids/timing removed; order preserved."""
    out = []
    for r in records:
        attrs = {
            k: v
            for k, v in (r.get("attrs") or {}).items()
            if k not in VOLATILE_ATTRS
        }
        out.append((r["path"], r["name"], r["status"], tuple(sorted(attrs.items()))))
    return out


class TestSerialParallelSpanEquality:
    def test_span_streams_identical_modulo_pids(self, grid):
        run_cells(grid, jobs=1, memo={})
        serial_spans = spans.drain()
        run_cells(grid, jobs=2, memo={})
        parallel_spans = spans.drain()

        assert serial_spans, "serial run recorded no spans"
        assert comparable_view(serial_spans) == comparable_view(
            parallel_spans
        )
        # Each cell produced its build/measure/cell trio.
        names = [r["name"] for r in serial_spans]
        assert names.count("cell") == len(grid)
        assert names.count("build") == len(grid)
        assert names.count("measure") == len(grid)

    def test_parallel_spans_carry_worker_pids(self, grid):
        run_cells(grid, jobs=2, memo={})
        records = spans.drain()
        worker_pids = {r["pid"] for r in records}
        assert worker_pids, "no spans shipped back from workers"
        assert os.getpid() not in worker_pids

    def test_parent_links_survive_the_ship_home(self, grid):
        run_cells(grid, jobs=2, memo={})
        records = spans.drain()
        by_sid = {r["sid"]: r for r in records}
        children = [r for r in records if r["parent"] is not None]
        assert children
        for r in children:
            parent = by_sid[r["parent"]]
            assert r["path"] == parent["path"] + "/" + r["name"]


class TestWorkerCells:
    """The (pid, label, wall_ns, cache_hit) tuples ``obs summary``
    rebuilds from a run's ``cell`` spans."""

    def test_worker_cells_populated_for_executed_cells(self, grid):
        run_cells(grid, jobs=2, memo={})
        worker_cells = worker_cells_from_spans(spans.drain())
        assert len(worker_cells) == len(grid)
        labels = sorted(label for _, label, _, _ in worker_cells)
        assert labels == sorted(
            f"{c.index}/{c.dataset}" + (
                "({})".format(
                    ",".join(f"{k}={v}" for k, v in sorted(c.config))
                )
                if c.config
                else ""
            )
            for c in grid
        )
        for pid, _label, wall_ns, cache_hit in worker_cells:
            assert pid != os.getpid()
            assert wall_ns > 0
            assert cache_hit is False

    def test_cache_hits_recorded_with_parent_pid(self, grid, tmp_path):
        cache = MeasurementCache(str(tmp_path / "cache"))
        run_cells(grid, jobs=2, memo={}, cache=cache)
        spans.drain()
        _, stats = run_cells(grid, jobs=2, memo={}, cache=cache)
        assert stats.cache_hits == len(grid)
        # Cache hits still surface as (synthetic) cell spans.
        worker_cells = worker_cells_from_spans(spans.drain())
        assert len(worker_cells) == len(grid)
        for pid, _label, _wall_ns, cache_hit in worker_cells:
            assert pid == os.getpid()
            assert cache_hit is True


class TestObsSummaryReaders:
    def test_worker_balance_from_spans_round_trips(self, grid):
        from repro.obs.report import format_worker_balance

        run_cells(grid, jobs=2, memo={})
        tuples = worker_cells_from_spans(spans.drain())
        executed = [t for t in tuples if not t[3]]
        assert len(executed) == len(grid)
        table = format_worker_balance(tuples)
        assert "pid" in table and "share%" in table
        rows = table.splitlines()[2:]
        assert sum(int(row.split()[1]) for row in rows) == len(grid)

"""Differential determinism: parallel execution must equal serial.

The whole repo's claim rests on deterministic simulated counters, so the
parallel runner is held to bit-identical results: a grid run with
``jobs=2`` (fresh worker processes rebuilding datasets from seeds) must
produce exactly the measurements of an inline serial run, field by field,
in the same order.  ``build_seconds`` is the one deliberate exception --
it is real wall clock, which is why the differential comparison excludes
it and why the byte-identity check goes through a shared cache.
"""

from __future__ import annotations

import json

import pytest

from repro.bench.cache import MeasurementCache
from repro.bench.cells import MeasureCell
from repro.bench.config import BenchSettings
from repro.bench.experiments import common
from repro.bench.parallel import resolve_jobs, run_cells

#: Every deterministic Measurement field (all but build_seconds).
DETERMINISTIC_FIELDS = (
    "index",
    "dataset",
    "config",
    "n_keys",
    "size_bytes",
    "counters",
    "latency_ns",
    "fence_latency_ns",
    "avg_log2_bound",
    "n_lookups",
    "warm",
    "search",
    "key_bits",
)


@pytest.fixture(autouse=True)
def _isolate_measurement_caches():
    """Keep runs in this module away from shared memo / active cache."""
    common.set_active_cache(None)
    common.clear_caches()
    yield
    common.set_active_cache(None)
    common.clear_caches()


@pytest.fixture(scope="module")
def grid():
    """2 indexes x 2 datasets, two configs each: small but heterogeneous."""
    settings = BenchSettings(
        n_keys=2_500, n_lookups=40, warmup=20, max_configs=2
    )
    cells = []
    for ds_name in ("amzn", "osm"):
        for index_name in ("RMI", "BTree"):
            cells.extend(common.sweep_cells(ds_name, index_name, settings))
        cells.append(MeasureCell.make(ds_name, "BS", {}, settings))
    assert len(cells) >= 8
    return cells


def deterministic_view(measurement) -> dict:
    record = measurement.to_dict()
    return {name: record[name] for name in DETERMINISTIC_FIELDS}


class TestSerialParallelEquality:
    def test_parallel_matches_serial_field_by_field(self, grid):
        serial, serial_stats = run_cells(grid, jobs=1, memo={})
        parallel, parallel_stats = run_cells(grid, jobs=2, memo={})
        # Both runs actually computed (nothing resolved from memo/cache).
        assert serial_stats.executed == len(grid)
        assert parallel_stats.executed == len(grid)
        assert len(serial) == len(parallel) == len(grid)
        for s, p in zip(serial, parallel):
            assert deterministic_view(s) == deterministic_view(p)

    def test_result_ordering_is_stable_across_runs(self, grid):
        first, _ = run_cells(grid, jobs=2, memo={})
        second, _ = run_cells(grid, jobs=2, memo={})
        identity = lambda m: (m.index, m.dataset, m.config, m.warm, m.search)
        expected = [
            (c.index, c.dataset, c.config_dict(), c.warm, c.search)
            for c in grid
        ]
        assert [identity(m) for m in first] == expected
        assert [identity(m) for m in second] == expected

    def test_duplicate_cells_measured_once(self, grid):
        doubled = list(grid) + list(grid)
        measurements, stats = run_cells(doubled, jobs=2, memo={})
        assert stats.total_cells == 2 * len(grid)
        assert stats.unique_cells == len(grid)
        assert stats.executed == len(grid)
        assert len(measurements) == 2 * len(grid)
        for a, b in zip(measurements[: len(grid)], measurements[len(grid):]):
            assert a is b


class TestCacheResume:
    def test_second_run_is_all_cache_hits_and_byte_identical(
        self, grid, tmp_path
    ):
        cache = MeasurementCache(str(tmp_path / "cache"))
        first, first_stats = run_cells(grid, jobs=2, memo={}, cache=cache)
        assert first_stats.executed == len(grid)
        assert len(cache) == len(grid)

        second, second_stats = run_cells(grid, jobs=2, memo={}, cache=cache)
        assert second_stats.executed == 0
        assert second_stats.cache_hits == len(grid)
        # Byte-identical records, including build_seconds, because the
        # second run replays the stored measurements.
        first_bytes = json.dumps(
            [m.to_dict() for m in first], sort_keys=True
        )
        second_bytes = json.dumps(
            [m.to_dict() for m in second], sort_keys=True
        )
        assert first_bytes == second_bytes

    def test_interrupted_sweep_resumes(self, grid, tmp_path):
        cache = MeasurementCache(str(tmp_path / "cache"))
        half = grid[: len(grid) // 2]
        run_cells(half, jobs=1, memo={}, cache=cache)
        _, stats = run_cells(grid, jobs=2, memo={}, cache=cache)
        assert stats.cache_hits == len(half)
        assert stats.executed == len(grid) - len(half)


    @pytest.mark.parametrize("jobs", [1, 2])
    def test_raising_cell_keeps_earlier_results(
        self, grid, tmp_path, monkeypatch, jobs
    ):
        cache = MeasurementCache(str(tmp_path / "cache"))
        k = len(grid) // 2
        real_run = MeasureCell.run

        def run(cell, *args, **kwargs):
            if cell == grid[k]:
                raise RuntimeError("cell failed")
            return real_run(cell, *args, **kwargs)

        monkeypatch.setattr(MeasureCell, "run", run)
        with pytest.raises(RuntimeError, match="cell failed"):
            run_cells(grid, jobs=jobs, memo={}, cache=cache)
        monkeypatch.undo()
        assert len(cache) == k

        _, stats = run_cells(grid, jobs=1, memo={}, cache=cache)
        assert stats.cache_hits == k
        assert stats.executed == len(grid) - k


class TestRunnerPlumbing:
    def test_memo_is_filled_in_cell_order(self, grid):
        memo = {}
        run_cells(grid, jobs=2, memo=memo)
        assert list(memo) == grid

    def test_serial_run_reuses_shared_memo(self, grid):
        first, _ = run_cells(grid, jobs=1)
        _, stats = run_cells(grid, jobs=1)
        assert stats.memo_hits == len(grid)
        assert stats.executed == 0

    def test_resolve_jobs(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1
        assert resolve_jobs(3) == 3
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(None) == 5
        with pytest.raises(ValueError):
            resolve_jobs(0)


class TestCliDifferential:
    """The acceptance criterion, through the real entry point."""

    def test_jobs_flag_byte_identical_and_cached(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        cache_dir = str(tmp_path / "cache")

        def invoke(jobs: int, out_name: str) -> str:
            common.clear_caches()  # fresh process equivalent
            path = str(tmp_path / out_name)
            rc = main(
                [
                    "--experiment",
                    "fig7",
                    "--quick",
                    "--n-keys",
                    "2000",
                    "--n-lookups",
                    "25",
                    "--warmup",
                    "15",
                    "--max-configs",
                    "2",
                    "--datasets",
                    "amzn",
                    "--jobs",
                    str(jobs),
                    "--cache-dir",
                    cache_dir,
                    "--save-measurements",
                    path,
                ]
            )
            assert rc == 0
            return path

        import re

        first = invoke(1, "m1.json")
        out1 = capsys.readouterr().out
        executed = int(re.search(r"executed (\d+)", out1).group(1))
        assert executed > 0
        second = invoke(2, "m2.json")
        out2 = capsys.readouterr().out
        assert f"cache hits {executed}, executed 0" in out2
        assert open(first, "rb").read() == open(second, "rb").read()

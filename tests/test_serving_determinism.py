"""Seed-determinism of the serving subsystem, end to end.

In the style of ``test_parallel_determinism.py``: the `ext_serving`
report must be byte-identical whether its measurement grid was computed
serially, on a 2-process pool, or replayed from the persistent cache --
and the simulation layer itself must be a pure function of its seeds.
Also holds the ISSUE's acceptance criteria: p99 non-decreasing in
offered load, and an SLO table covering >= 3 indexes on 2 datasets.
"""

from __future__ import annotations

import pytest

from repro.bench.cache import MeasurementCache
from repro.bench.config import BenchSettings
from repro.bench.experiments import common, ext_serving
from repro.bench.parallel import run_cells


@pytest.fixture(autouse=True)
def _isolate_measurement_caches():
    common.set_active_cache(None)
    common.clear_caches()
    yield
    common.set_active_cache(None)
    common.clear_caches()


@pytest.fixture(scope="module")
def settings():
    return BenchSettings(
        n_keys=2_500, n_lookups=40, warmup=20, max_configs=2
    )


def fresh_report(settings, jobs: int, cache=None) -> str:
    """Recompute the grid at ``jobs`` workers, then format the report."""
    common.clear_caches()
    cells = ext_serving.cells(settings)
    assert cells
    _, stats = run_cells(cells, jobs=jobs, cache=cache)
    return ext_serving.run(settings), stats


class TestReportDeterminism:
    def test_serial_equals_jobs2(self, settings):
        serial, serial_stats = fresh_report(settings, jobs=1)
        parallel, parallel_stats = fresh_report(settings, jobs=2)
        assert serial_stats.executed > 0
        assert parallel_stats.executed == serial_stats.executed
        assert serial == parallel

    def test_cache_replay_is_identical(self, settings, tmp_path):
        cache = MeasurementCache(str(tmp_path / "cache"))
        first, first_stats = fresh_report(settings, jobs=2, cache=cache)
        assert first_stats.executed > 0
        second, second_stats = fresh_report(settings, jobs=1, cache=cache)
        assert second_stats.executed == 0
        assert second_stats.cache_hits == second_stats.unique_cells
        assert first == second

    def test_repeat_run_same_process(self, settings):
        first, _ = fresh_report(settings, jobs=1)
        second, _ = fresh_report(settings, jobs=1)
        assert first == second


class TestAcceptance:
    """The ISSUE's ext_serving acceptance criteria."""

    def test_p99_monotone_in_offered_load(self, settings):
        common.clear_caches()
        run_cells(ext_serving.cells(settings), jobs=1)
        for ds_name in ext_serving._datasets(settings):
            for index_name in ext_serving._indexes(settings):
                grid = common.sweep_cells(ds_name, index_name, settings)
                m = common.fastest(common.measure_cells(grid))
                curve = ext_serving.latency_curve(m, settings)
                p99s = [s.p99_ns for _, _, s in curve]
                assert p99s == sorted(p99s), (ds_name, index_name, p99s)

    def test_slo_table_covers_three_indexes_two_datasets(self, settings):
        report, _ = fresh_report(settings, jobs=1)
        for ds_name in ("amzn", "osm"):
            assert f"SLO selection, {ds_name}" in report
        for index_name in ("RMI", "PGM", "BTree"):
            assert index_name in report
        assert "-> chosen:" in report

    def test_report_has_throughput_latency_curves(self, settings):
        report, _ = fresh_report(settings, jobs=1)
        assert "throughput-latency curve, amzn" in report
        assert "throughput-latency curve, osm" in report
        assert "p99 ns" in report and "p99.9 ns" in report
        assert "arrival-process shape" in report

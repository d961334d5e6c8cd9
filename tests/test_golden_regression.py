"""Golden regression: the measurement pipeline must not silently drift.

``tests/data/golden_measurements.json`` holds counters recorded at a
tiny scale by the drivers' inline measurement path, as it stood before
the cell runner existed, for (index, dataset, config) cells that also
appear -- at the paper's full scale -- in ``results_full.json``.
A fresh run today, serial or parallel, must reproduce those counters
exactly; any mismatch means the refactor changed measurement behavior,
not just its plumbing.  The cells run the product path: ``measure``
picks the batched path for kernel-supported indexes and the per-lookup
loop otherwise.  ``TestPerLookupLoop`` switches the batched path off and
checks the same goldens, and the fig16 report, on the per-lookup loop.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.bench.cells import MeasureCell, freeze_config
from repro.bench.config import BenchSettings
from repro.bench.experiments import common, fig16_multithread
from repro.bench.parallel import run_cells
from repro.learned import kernels
from test_fig16_golden import GOLDEN_PATH as FIG16_GOLDEN_PATH
from test_fig16_golden import GOLDEN_SETTINGS as FIG16_SETTINGS

HERE = os.path.dirname(__file__)
GOLDEN_PATH = os.path.join(HERE, "data", "golden_measurements.json")
RESULTS_FULL_PATH = os.path.join(HERE, "..", "results_full.json")

with open(GOLDEN_PATH) as f:
    GOLDEN = json.load(f)

GOLDEN_IDS = [
    f"{r['index']}-{r['dataset']}-{r['key_bits']}bit" for r in GOLDEN
]


def cell_of(record: dict) -> MeasureCell:
    return MeasureCell(
        dataset=record["dataset"],
        n_keys=record["n_keys"],
        seed=record["seed"],
        key_bits=record["key_bits"],
        index=record["index"],
        config=freeze_config(record["config"]),
        n_lookups=record["n_lookups"],
        warmup=record["warmup"],
        warm=record["warm"],
        search=record["search"],
    )


def assert_matches_golden(measurement, record: dict) -> None:
    assert measurement.index == record["index"]
    assert measurement.size_bytes == record["size_bytes"]
    assert measurement.latency_ns == record["latency_ns"]
    assert measurement.fence_latency_ns == record["fence_latency_ns"]
    assert measurement.avg_log2_bound == record["avg_log2_bound"]
    for name, value in record["counters"].items():
        assert getattr(measurement.counters, name) == value, name


class TestGoldenCells:
    @pytest.mark.parametrize("record", GOLDEN, ids=GOLDEN_IDS)
    def test_serial_run_matches_recorded_counters(self, record):
        assert_matches_golden(cell_of(record).run(), record)

    def test_parallel_run_matches_recorded_counters(self):
        cells = [cell_of(r) for r in GOLDEN]
        measurements, stats = run_cells(cells, jobs=2, memo={})
        assert stats.executed == len(GOLDEN)
        for measurement, record in zip(measurements, GOLDEN):
            assert_matches_golden(measurement, record)

    def test_repeat_run_hits_replay_memo_and_matches(self):
        """Back-to-back runs of one cell reproduce the golden record.

        Each ``cell.run()`` builds a fresh index, synthesizes fresh
        traces and replays them on a fresh engine, so the second run
        shares no state with the first.  (The name predates the removal
        of replay memoization, which this test never exercised.)
        """
        record = GOLDEN[0]
        cell = cell_of(record)
        assert_matches_golden(cell.run(), record)
        assert_matches_golden(cell.run(), record)


@pytest.fixture
def per_lookup_loop(monkeypatch):
    """Switch the batched path off for one test, on fresh caches.

    Yields what ``kernels.supports`` would have answered at each call,
    so a test can check that some measurement really changed path.
    """
    supports = kernels.supports
    answers = []

    def refuse(index):
        answers.append(supports(index))
        return False

    monkeypatch.setattr(kernels, "supports", refuse)
    common.set_active_cache(None)
    common.clear_caches()
    yield answers
    common.clear_caches()


class TestPerLookupLoop:
    """Every measurement on the per-lookup fast-engine loop reproduces
    the goldens the product path does."""

    @pytest.mark.parametrize("record", GOLDEN, ids=GOLDEN_IDS)
    def test_matches_recorded_counters(self, record, per_lookup_loop):
        assert_matches_golden(cell_of(record).run(), record)

    def test_fig16_report_matches_golden(self, per_lookup_loop):
        with open(FIG16_GOLDEN_PATH) as f:
            golden = f.read()
        report = fig16_multithread.run(BenchSettings(**FIG16_SETTINGS))
        assert report == golden
        # Some of those cells would otherwise have taken the batched path.
        assert any(per_lookup_loop)


class TestGoldenProvenance:
    """The golden cells are scaled-down versions of full-run cells."""

    def test_64bit_cells_appear_in_results_full(self):
        with open(RESULTS_FULL_PATH) as f:
            full = json.load(f)
        full_combos = {
            (r["index"], r["dataset"], r["config"]) for r in full
        }
        for record in GOLDEN:
            if record["key_bits"] != 64:
                continue  # full records do not carry key_bits
            combo = (
                record["index"],
                record["dataset"],
                json.dumps(record["config"], sort_keys=True),
            )
            assert combo in full_combos, combo

    def test_golden_covers_a_handful_of_heterogeneous_cells(self):
        assert len(GOLDEN) >= 5
        assert {r["index"] for r in GOLDEN} >= {"RMI", "PGM", "BTree", "BS"}
        assert {r["dataset"] for r in GOLDEN} >= {"amzn", "osm"}

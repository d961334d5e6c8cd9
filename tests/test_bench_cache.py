"""Persistent result store: key scheme, entry layout and lossless
round-trips, for measurement cells and simulation tasks alike."""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from repro.bench import cache as cache_mod
from repro.bench.cache import MeasurementCache, cache_key, scenario_key
from repro.bench.cells import MeasureCell, freeze_config
from repro.bench.config import BenchSettings
from repro.bench.harness import Measurement
from repro.memsim.counters import PerfCounters, PerfCountersF

SETTINGS = BenchSettings(n_keys=2_000, n_lookups=25, warmup=15)


def make_cell(**overrides) -> MeasureCell:
    base = dict(
        dataset="amzn",
        n_keys=2_000,
        seed=0,
        key_bits=64,
        index="RMI",
        config=freeze_config({"branching": 64}),
        n_lookups=25,
        warmup=15,
        warm=True,
        search="binary",
    )
    base.update(overrides)
    return MeasureCell(**base)


# Strategy: config dicts shaped like real size_sweep_configs output
# (int and string hyperparameter values).
config_values = st.one_of(
    st.integers(min_value=-(2**31), max_value=2**31),
    st.text(
        alphabet=st.characters(min_codepoint=97, max_codepoint=122),
        min_size=1,
        max_size=8,
    ),
)
configs = st.dictionaries(
    st.text(
        alphabet=st.characters(min_codepoint=97, max_codepoint=122),
        min_size=1,
        max_size=8,
    ),
    config_values,
    max_size=4,
)

finite_floats = st.floats(allow_nan=False, allow_infinity=False)


class TestCacheKey:
    def test_stable_for_equal_cells(self):
        assert cache_key(make_cell()) == cache_key(make_cell())

    def test_insensitive_to_config_dict_ordering(self):
        a = MeasureCell.make(
            "amzn", "RMI", {"branching": 64, "stage1": "cubic"}, SETTINGS
        )
        b = MeasureCell.make(
            "amzn", "RMI", {"stage1": "cubic", "branching": 64}, SETTINGS
        )
        assert a == b
        assert cache_key(a) == cache_key(b)

    @given(config_a=configs, config_b=configs)
    @hyp_settings(max_examples=200, deadline=None)
    def test_distinct_configs_never_collide(self, config_a, config_b):
        a = make_cell(config=freeze_config(config_a))
        b = make_cell(config=freeze_config(config_b))
        if config_a == config_b:
            assert cache_key(a) == cache_key(b)
        else:
            assert cache_key(a) != cache_key(b)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("dataset", "osm"),
            ("n_keys", 2_001),
            ("seed", 1),
            ("key_bits", 32),
            ("index", "PGM"),
            ("n_lookups", 26),
            ("warmup", 16),
            ("warm", False),
            ("search", "linear"),
            ("profile", True),
        ],
    )
    def test_every_identity_field_feeds_the_key(self, field, value):
        assert cache_key(make_cell(**{field: value})) != cache_key(make_cell())

    def test_schema_version_feeds_the_key(self):
        cell = make_cell()
        assert cache_key(cell, schema_version=1) != cache_key(
            cell, schema_version=2
        )

    def test_cell_key_is_pinned(self):
        """Existing cache directories stay valid only while this holds."""
        assert cache_key(make_cell()) == (
            "dcf661bc415b179324b2933acdc127bb876344d8"
        )

    def test_scenario_key_is_pinned(self):
        """``ext_tenants`` prints this key in its report."""
        from repro.serve.scenario import single_tenant_spec

        assert scenario_key(single_tenant_spec(1e6, 100, seed=0)) == (
            "1f60239254b341a6640caaa92ed6111a35bad9f1"
        )


def make_measurement(**overrides) -> Measurement:
    base = dict(
        index="RMI",
        dataset="amzn",
        config={"branching": 64},
        n_keys=2_000,
        size_bytes=1312,
        build_seconds=0.0123,
        counters=PerfCountersF(instructions=101.5, llc_misses=7.25),
        latency_ns=623.3987745285336,
        fence_latency_ns=817.1311507936507,
        avg_log2_bound=11.928845877923553,
        n_lookups=25,
        warm=True,
        search="binary",
        key_bits=64,
    )
    base.update(overrides)
    return Measurement(**base)


class TestLosslessRoundTrip:
    def test_record_round_trip_through_json(self):
        m = make_measurement()
        record = json.loads(json.dumps(m.to_dict()))
        assert Measurement.from_dict(record) == m

    @given(
        latency=finite_floats,
        fence=finite_floats,
        bound=finite_floats,
        instructions=finite_floats,
        misses=finite_floats,
    )
    @hyp_settings(max_examples=100, deadline=None)
    def test_floats_survive_json_exactly(
        self, latency, fence, bound, instructions, misses
    ):
        m = make_measurement(
            latency_ns=latency,
            fence_latency_ns=fence,
            avg_log2_bound=bound,
            counters=PerfCountersF(
                instructions=instructions, llc_misses=misses
            ),
        )
        record = json.loads(json.dumps(m.to_dict()))
        restored = Measurement.from_dict(record)
        assert restored == m

    def test_profiled_record_is_pinned(self):
        """Cached profiled cells replay only while this layout holds."""
        m = make_measurement(
            phases={
                "model": PerfCounters(instructions=40, reads=2, l1_hits=2),
                "search": PerfCounters(instructions=61, reads=5, llc_misses=1),
            }
        )
        zeros = dict.fromkeys(
            ["branch_misses", "branches", "instructions", "l1_hits",
             "l2_hits", "l3_hits", "llc_misses", "reads", "tlb_misses"],
            0,
        )
        expected = {
            "index": "RMI",
            "dataset": "amzn",
            "config": {"branching": 64},
            "n_keys": 2000,
            "size_bytes": 1312,
            "build_seconds": 0.0123,
            "counters": dict(
                {k: 0.0 for k in zeros}, instructions=101.5, llc_misses=7.25
            ),
            "latency_ns": 623.3987745285336,
            "fence_latency_ns": 817.1311507936507,
            "avg_log2_bound": 11.928845877923553,
            "n_lookups": 25,
            "warm": True,
            "search": "binary",
            "key_bits": 64,
            "phases": {
                "model": dict(zeros, instructions=40, reads=2, l1_hits=2),
                "search": dict(zeros, instructions=61, reads=5, llc_misses=1),
            },
        }
        # Compared as JSON text: 0 and 0.0 are equal as dict values.
        assert json.dumps(m.to_dict(), sort_keys=True) == json.dumps(
            expected, sort_keys=True
        )
        assert "phases" not in make_measurement().to_dict()
        assert Measurement.from_dict(json.loads(json.dumps(m.to_dict()))) == m


class TestMeasurementCache:
    def test_put_get_round_trip(self, tmp_path):
        cache = MeasurementCache(str(tmp_path / "c"))
        cell, m = make_cell(), make_measurement()
        assert cache.get(cell) is None
        cache.put(cell, m)
        assert cache.get(cell) == m
        assert len(cache) == 1

    def test_hit_miss_stats(self, tmp_path):
        cache = MeasurementCache(str(tmp_path / "c"))
        cell = make_cell()
        cache.get(cell)
        cache.put(cell, make_measurement())
        cache.get(cell)
        assert (cache.hits, cache.misses) == (1, 1)
        cache.reset_stats()
        assert (cache.hits, cache.misses) == (0, 0)

    def test_distinct_cells_stored_separately(self, tmp_path):
        cache = MeasurementCache(str(tmp_path / "c"))
        cache.put(make_cell(), make_measurement())
        cache.put(make_cell(index="PGM"), make_measurement(index="PGM"))
        assert len(cache) == 2
        assert cache.get(make_cell(index="PGM")).index == "PGM"

    def test_schema_bump_invalidates_old_entries(self, tmp_path, monkeypatch):
        cache = MeasurementCache(str(tmp_path / "c"))
        cell = make_cell()
        cache.put(cell, make_measurement())
        assert cache.get(cell) is not None
        monkeypatch.setattr(
            cache_mod,
            "CACHE_SCHEMA_VERSION",
            cache_mod.CACHE_SCHEMA_VERSION + 1,
        )
        assert cache.get(cell) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = MeasurementCache(str(tmp_path / "c"))
        cell = make_cell()
        cache.put(cell, make_measurement())
        path = cache._path(cell)
        with open(path, "w") as f:
            f.write("{not json")
        assert cache.get(cell) is None

    def test_missing_directory_is_empty(self, tmp_path):
        cache = MeasurementCache(str(tmp_path / "nope"))
        assert len(cache) == 0
        assert cache.get(make_cell()) is None

    def test_reads_and_writes_the_schema_1_entry_layout(self, tmp_path):
        """Existing cache directories still replay: same path, same
        bytes."""
        cache = MeasurementCache(str(tmp_path))
        cell = make_cell()
        with open(cache._path(cell), "w") as f:
            f.write(SCHEMA_1_ENTRY)
        assert cache.get(cell) == make_measurement()
        assert (cache.hits, cache.misses) == (1, 0)
        cache.put(cell, make_measurement())
        with open(cache._path(cell)) as f:
            assert f.read() == SCHEMA_1_ENTRY

    def test_cells_and_tasks_share_one_directory(self, tmp_path):
        cache = MeasurementCache(str(tmp_path / "c"))
        cell, m = make_cell(), make_measurement()
        task = sim_task()
        record = task.run()
        cache.put(cell, m)
        cache.put(task, record)
        assert len(cache) == 2
        assert cache.get(cell) == m
        assert cache.get(task) == record
        assert cache._path(cell) != cache._path(task)


#: The exact file ``put`` writes for ``make_cell()``; cache directories
#: already on disk hold entries in this layout.
SCHEMA_1_ENTRY = """\
{
 "cell": {
  "config": {
   "branching": 64
  },
  "dataset": "amzn",
  "index": "RMI",
  "key_bits": 64,
  "n_keys": 2000,
  "n_lookups": 25,
  "search": "binary",
  "seed": 0,
  "warm": true,
  "warmup": 15
 },
 "measurement": {
  "avg_log2_bound": 11.928845877923553,
  "build_seconds": 0.0123,
  "config": {
   "branching": 64
  },
  "counters": {
   "branch_misses": 0.0,
   "branches": 0.0,
   "instructions": 101.5,
   "l1_hits": 0.0,
   "l2_hits": 0.0,
   "l3_hits": 0.0,
   "llc_misses": 7.25,
   "reads": 0.0,
   "tlb_misses": 0.0
  },
  "dataset": "amzn",
  "fence_latency_ns": 817.1311507936507,
  "index": "RMI",
  "key_bits": 64,
  "latency_ns": 623.3987745285336,
  "n_keys": 2000,
  "n_lookups": 25,
  "search": "binary",
  "size_bytes": 1312,
  "warm": true
 },
 "schema": 1
}"""


def sim_task():
    """A small open-loop simulation task."""
    from repro.serve.sweep import open_loop_task

    return open_loop_task(make_measurement(), 1e6, 50, 0, 1)


#: Well-formed JSON of the wrong shape for either cache's entries.
FOREIGN_ENTRIES = [
    {"hello": "world"},
    [1, 2, 3],
    "just a string",
    None,
    {"measurement": None, "result": None},
    {"measurement": [1], "result": [1]},
    {"measurement": {"index": "RMI"}, "result": "done"},
]


class TestWrongShapedRecords:
    """Foreign JSON at a record's path is a miss, overwritten by put."""

    @pytest.mark.parametrize("entry", FOREIGN_ENTRIES)
    def test_measurement_cache(self, tmp_path, entry):
        cache = MeasurementCache(str(tmp_path / "c"))
        cell, m = make_cell(), make_measurement()
        cache.put(cell, m)
        with open(cache._path(cell), "w") as f:
            json.dump(entry, f)
        assert cache.get(cell) is None
        assert (cache.hits, cache.misses) == (0, 1)
        cache.put(cell, m)
        assert cache.get(cell) == m

    def test_measurement_with_unknown_field_is_a_miss(self, tmp_path):
        cache = MeasurementCache(str(tmp_path / "c"))
        cell, m = make_cell(), make_measurement()
        record = dict(m.to_dict(), surprise=1)
        cache.put(cell, m)
        with open(cache._path(cell), "w") as f:
            json.dump({"measurement": record}, f)
        assert cache.get(cell) is None
        assert cache.misses == 1

    def test_only_present_files_count_as_rejects(self, tmp_path):
        from repro.obs.metrics import get_registry

        reg = get_registry()
        reg.reset()
        cache = MeasurementCache(str(tmp_path / "c"))
        cell = make_cell()
        assert cache.get(cell) is None  # absent: a miss, not a reject
        cache.put(cell, make_measurement())
        with open(cache._path(cell), "w") as f:
            f.write("{not json")
        assert cache.get(cell) is None
        assert cache.misses == 2
        assert reg.snapshot()["counters"]["bench.cache.rejects"] == 1
        reg.reset()

    def test_reject_is_quarantined_for_inspection(self, tmp_path):
        from repro.obs.metrics import get_registry

        reg = get_registry()
        reg.reset()
        cache = MeasurementCache(str(tmp_path / "c"))
        cell, m = make_cell(), make_measurement()
        cache.put(cell, m)
        path = cache._path(cell)
        corrupt = b'{"measurement": {"index": \xff'
        with open(path, "wb") as f:
            f.write(corrupt)
        assert cache.get(cell) is None
        assert reg.snapshot()["counters"]["bench.cache.rejects"] == 1
        with open(path + ".rejected", "rb") as f:
            assert f.read() == corrupt
        assert len(cache) == 0  # the quarantined file is no record
        cache.put(cell, m)
        assert cache.get(cell) == m
        assert len(cache) == 1
        reg.reset()

    def test_failed_quarantine_is_still_a_miss(self, tmp_path, monkeypatch):
        cache = MeasurementCache(str(tmp_path / "c"))
        cell, m = make_cell(), make_measurement()
        cache.put(cell, m)
        with open(cache._path(cell), "w") as f:
            f.write("{not json")

        def refuse(src, dst):
            raise PermissionError(dst)

        monkeypatch.setattr(cache_mod.os, "replace", refuse)
        assert cache.get(cell) is None
        assert cache.misses == 1
        monkeypatch.undo()
        cache.put(cell, m)
        assert cache.get(cell) == m

    def test_profiled_read_rejects_a_record_without_phases(self, tmp_path):
        """A profiled cell has its own key, so it never reads the plain
        cell's record; a record without phases under its key is a
        counted reject, kept for inspection."""
        from repro.obs.metrics import get_registry

        reg = get_registry()
        reg.reset()
        cache = MeasurementCache(str(tmp_path / "c"))
        cell, plain = make_cell(), make_measurement()
        profiled_cell = make_cell(profile=True)
        assert cache_key(profiled_cell) != cache_key(cell)
        cache.put(cell, plain)
        assert cache.get(profiled_cell) is None
        assert (cache.hits, cache.misses) == (0, 1)
        assert reg.snapshot()["counters"].get("bench.cache.rejects", 0) == 0
        assert cache.get(cell) == plain  # the plain record is untouched
        cache.put(profiled_cell, plain)
        path = cache._path(profiled_cell)
        assert cache.get(profiled_cell) is None
        assert reg.snapshot()["counters"]["bench.cache.rejects"] == 1
        assert os.path.exists(path + ".rejected")
        assert not os.path.exists(path)
        profiled = make_measurement(
            phases={
                "model": PerfCounters(instructions=40, reads=2),
                "search": PerfCounters(instructions=61, reads=5),
            }
        )
        cache.put(profiled_cell, profiled)
        assert cache.get(profiled_cell) == profiled
        assert cache.get(cell) == plain
        reg.reset()

    @pytest.mark.parametrize("entry", FOREIGN_ENTRIES)
    def test_sim_result_cache(self, tmp_path, entry):
        cache = MeasurementCache(str(tmp_path / "c"))
        task = sim_task()
        result = task.run()
        cache.put(task, result)
        with open(cache._path(task), "w") as f:
            json.dump(entry, f)
        assert cache.get(task) is None
        assert (cache.hits, cache.misses) == (0, 1)
        cache.put(task, result)
        assert cache.get(task) == result

"""Run sinks: JSONL round-trips, torn tails, manifest contents."""

from __future__ import annotations

import json
import os

from repro.bench.config import BenchSettings
from repro.obs.sink import (
    JsonlSink,
    config_hash,
    read_jsonl,
    run_manifest,
    write_run,
)


class TestJsonl:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        records = [{"a": 1}, {"b": [1, 2]}, {"c": {"d": None}}]
        with JsonlSink(path) as sink:
            assert sink.emit_many(records) == 3
            assert sink.events == 3
        assert read_jsonl(path) == records

    def test_append_mode_across_reopens(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with JsonlSink(path) as sink:
            sink.emit_many([{"run": 1}])
        with JsonlSink(path) as sink:
            sink.emit_many([{"run": 2}])
        assert read_jsonl(path) == [{"run": 1}, {"run": 2}]

    def test_torn_tail_is_skipped(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with open(path, "w") as f:
            f.write('{"ok": 1}\n{"torn": ')
        assert read_jsonl(path) == [{"ok": 1}]


class TestManifest:
    def test_manifest_identifies_the_run(self):
        settings = BenchSettings.quick()
        manifest = run_manifest(settings, argv=["--experiment", "fig7"])
        assert manifest["schema"] == 1
        assert manifest["argv"] == ["--experiment", "fig7"]
        assert manifest["seed"] == settings.seed
        assert manifest["settings"]["n_keys"] == settings.n_keys
        assert manifest["config_hash"] == config_hash(
            manifest["settings"]
        )
        # Run from a git checkout, the SHA is a 40-hex string.
        assert manifest["git_sha"] is None or len(manifest["git_sha"]) == 40
        json.dumps(manifest)  # JSON-able end to end

    def test_config_hash_is_order_insensitive(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
        assert config_hash({"a": 1}) != config_hash({"a": 2})


class TestWriteRun:
    def test_writes_all_three_artifacts(self, tmp_path):
        obs_dir = str(tmp_path / "run")
        paths = write_run(
            obs_dir,
            spans=[{"name": "cell", "wall_ns": 5}],
            metrics_snapshot={"counters": {"x": 1}},
            manifest=run_manifest(BenchSettings.quick(), argv=[]),
        )
        assert set(paths) == {"manifest", "spans", "metrics"}
        assert read_jsonl(paths["spans"]) == [{"name": "cell", "wall_ns": 5}]
        with open(paths["metrics"]) as f:
            assert json.load(f)["counters"] == {"x": 1}
        with open(paths["manifest"]) as f:
            assert json.load(f)["schema"] == 1
        assert sorted(os.listdir(obs_dir)) == [
            "manifest.json",
            "metrics.json",
            "spans.jsonl",
        ]

    def test_reused_dir_holds_only_the_latest_run(self, tmp_path):
        obs_dir = str(tmp_path / "run")
        for run in (1, 2):
            paths = write_run(
                obs_dir,
                spans=[{"run": run, "n": i} for i in range(3)],
                metrics_snapshot={"run": run},
                manifest={"run": run},
                timeseries=[{"run": run}],
            )
        for key in ("spans", "timeseries"):
            assert {r["run"] for r in read_jsonl(paths[key])} == {2}, key
        assert len(read_jsonl(paths["spans"])) == 3
        for key in ("manifest", "metrics"):
            with open(paths[key]) as f:
                assert json.load(f) == {"run": 2}, key

    def test_partial_write_is_fine(self, tmp_path):
        obs_dir = str(tmp_path / "run")
        paths = write_run(obs_dir, spans=[{"n": 1}])
        assert set(paths) == {"spans"}

"""End-to-end CLI: every experiment through the real entry point."""

import json
import os

import pytest

from repro.bench.__main__ import main
from repro.bench.experiments import EXPERIMENTS
from repro.datasets.generators import FACE_N_OUTLIERS
from repro.obs.sink import read_jsonl

TINY = [
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
    "--no-cache",
]


def test_all_experiments_tiny(tmp_path, capsys):
    """`--experiment all` runs every driver and saves artifacts."""
    measurements_path = str(tmp_path / "m.json")
    rc = main(
        [
            "--experiment",
            "all",
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
            "--save-measurements",
            measurements_path,
            "--save-svg",
            str(tmp_path),
            "--obs-dir",
            str(tmp_path / "obs"),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    for marker in ("[table1]", "[fig7]", "[fig17]", "[ext3]", "[sec4.3]"):
        assert marker in out
    records = json.load(open(measurements_path))
    assert len(records) > 10
    assert (tmp_path / "pareto_amzn.svg").exists()
    # One span per driver, in run order, holding the driver's own work.
    spans = read_jsonl(str(tmp_path / "obs" / "spans.jsonl"))
    drivers = [s for s in spans if s["name"] == "experiment"]
    assert [s["attrs"]["id"] for s in drivers] == list(EXPERIMENTS)
    assert all(s["parent"] is None for s in drivers)
    fig17 = next(s for s in drivers if s["attrs"]["id"] == "fig17")
    builds = [s for s in spans if s["parent"] == fig17["sid"]]
    assert builds and {s["path"] for s in builds} == {"experiment/build"}


def _driver_spans(obs_dir) -> list:
    """The experiment spans and the spans under them, less pids, times
    and build wall-clock."""
    spans = read_jsonl(os.path.join(obs_dir, "spans.jsonl"))
    out = []
    for s in spans:
        if s["path"].split("/")[0] != "experiment":
            continue
        attrs = dict(s.get("attrs", {}))
        attrs.pop("build_seconds", None)
        out.append((s["path"], s["status"], attrs))
    return out


def test_driver_spans_equal_under_jobs(tmp_path, capsys):
    """Drivers run in the parent process under any --jobs: a serial and
    a two-job run leave the same experiment spans."""
    runs = []
    for jobs in ("1", "2"):
        obs_dir = str(tmp_path / f"obs{jobs}")
        argv = ["--experiment", "fig17", *TINY, "--indexes", "BS", "RobinHash",
                "--jobs", jobs, "--obs-dir", obs_dir]
        assert main(argv) == 0
        runs.append(_driver_spans(obs_dir))
    assert runs[0] == runs[1]
    assert runs[0][-1] == ("experiment", "ok", {"id": "fig17"})
    assert [path for path, _, _ in runs[0]] == ["experiment/build"] * 8 + [
        "experiment"
    ]


def test_all_experiments_at_the_key_floor(capsys):
    """The smallest accepted --n-keys runs every driver: face needs its
    outliers, and every size sweep keeps at least one configuration."""
    rc = main(
        ["--experiment", "all", "--n-keys", str(FACE_N_OUTLIERS),
         "--n-lookups", "5", "--warmup", "0", "--no-cache"]
    )
    assert rc == 0
    assert "[sec4.3]" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flag,value",
    [("--n-keys", "0"), ("--n-keys", "1"), ("--n-keys", "99"),
     ("--n-lookups", "0"), ("--warmup", "-5"), ("--max-configs", "0"),
     ("--max-configs", "-1")],
)
def test_rejects_sizes_that_cannot_run(flag, value, capsys):
    """Refused at argument parsing (exit 2, usage error), before any
    cell runs -- and before a negative warmup gets its own cache key."""
    with pytest.raises(SystemExit) as exc:
        main(["--experiment", "table1", "--no-cache", flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert flag in err and "must be at least" in err


@pytest.mark.parametrize(
    "names,bad,message",
    [
        (["--indexes", "RMI", "NoSuchIndex"], "'NoSuchIndex'", "unknown name"),
        (["--indexes", "RMI", "PGM", "RMI"], "'RMI'", "given twice"),
        (["--datasets", "amzn", "osm", "amzn"], "'amzn'", "given twice"),
    ],
    ids=["unknown-index", "repeated-index", "repeated-dataset"],
)
def test_rejects_unknown_and_repeated_names(names, bad, message, capsys):
    """A usage error naming the flag and the value, before any cell runs:
    the drivers print a row or a section per name."""
    with pytest.raises(SystemExit) as exc:
        main(["--experiment", "fig7", "--no-cache", *names])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert names[0] in err and bad in err and message in err


def test_profiled_rerun_refreshes_unprofiled_records(tmp_path, capsys):
    """A --profile run after a plain one in the same process measures
    profiled cells, which neither the memo nor the cache confuses with
    the plain ones: it prints phase rows and writes its records beside
    the plain records, rejecting none."""
    from repro.bench.experiments import common
    from repro.obs.metrics import get_registry

    cache_dir = tmp_path / "cache"
    argv = ["--experiment", "fig7", *TINY[:-1], "--cache-dir", str(cache_dir)]
    reg = get_registry()
    common.clear_caches()
    reg.reset()
    try:
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--profile"]) == 0
        out = capsys.readouterr().out
        table = out.split("[phase breakdown]")[1]
        assert "no phase data" not in table
        assert "model" in table and "search" in table
        names = os.listdir(cache_dir)
        assert not [n for n in names if n.endswith(".rejected")]
        assert reg.snapshot()["counters"].get("bench.cache.rejects", 0) == 0
        assert len(names) == 34
        with_phases = 0
        for name in names:
            with open(cache_dir / name) as f:
                with_phases += "phases" in json.load(f)["measurement"]
        assert with_phases == 17
    finally:
        common.clear_caches()
        reg.reset()


def test_export_holds_only_this_runs_measurements(tmp_path, capsys):
    """--save-measurements writes the cells this run lists, whatever an
    earlier main() in the same process left in the memo."""
    from repro.bench.experiments import common

    alone, after = tmp_path / "alone.json", tmp_path / "after.json"
    common.clear_caches()
    try:
        fig14 = ["--experiment", "fig14", *TINY, "--save-measurements"]
        assert main(fig14 + [str(alone)]) == 0
        common.clear_caches()
        assert main(["--experiment", "fig7", *TINY]) == 0
        assert main(fig14 + [str(after)]) == 0
        records = []
        for path in (alone, after):
            with open(path) as f:
                records.append(
                    [dict(r, build_seconds=0) for r in json.load(f)]
                )
        assert len(records[0]) == 20
        assert records[1] == records[0]
    finally:
        common.clear_caches()


def test_main_restores_process_switches(tmp_path, monkeypatch, capsys):
    """--obs-dir sets a switch pool workers inherit; an in-process
    caller gets its own value back when main returns."""
    monkeypatch.setenv("REPRO_OBS", "0")
    rc = main(
        ["--experiment", "table1", *TINY, "--profile",
         "--obs-dir", str(tmp_path / "obs")]
    )
    assert rc == 0
    assert (tmp_path / "obs" / "manifest.json").exists()
    assert os.environ["REPRO_OBS"] == "0"

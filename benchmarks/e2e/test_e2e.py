"""Self-test of the end-to-end benchmark.

Not part of the tier-1 suite (``testpaths`` is ``tests``); run it with::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py -q

Every workload runs at ``--smoke`` size, each in well under a minute.
The tests check that every metric ``BENCHMARK.json`` declares is emitted
with its unit, and that a perturbed report section or export is counted
as a failed operation and makes the exit status nonzero.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402
import tracer  # noqa: E402


def _run(root: Path, *args: str):
    proc = subprocess.run(
        [sys.executable, str(root / "benchmarks" / "e2e" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=120,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, json.loads(lines[-1]) if lines else None


def _units(result) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_end_to_end_metric(workload):
    proc, result = _run(ROOT, "--workload", workload, "--smoke", "--seconds", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_trace_reports_every_per_layer_metric():
    proc, result = _run(ROOT, "--workload", "fig7_cold", "--smoke",
                        "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert values["runner.executed"] == values["runner.unique"] > 0
    assert values["build.calls"] > 0 and values["measure.calls"] > 0
    # About 25 ms of CLI work (argument parsing, printing, the export) is
    # outside every span: under 1% of a full run, about 5% of a smoke run.
    assert values["unattributed.share"] < 0.10


def test_tracer_reports_exactly_the_declared_layer_metrics():
    declared = [m["name"] for m in SPEC["per_layer"]]
    assert tracer.metric_names() + ["process.cpu_s", "process.wall_s",
                                    "trace.overhead"] == declared


@pytest.fixture
def checkout(tmp_path) -> Path:
    """A copy of the program and the benchmark, safe to break."""
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=ignore)
    shutil.copytree(ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e",
                    ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    return tmp_path


def _edit(path: Path, old: str, new: str) -> None:
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def test_perturbed_report_section_fails(checkout):
    _edit(checkout / "src/repro/bench/experiments/fig9_scaling.py",
          "Figure 9: dataset-size scaling", "Figure 9: dataset size scaling")
    proc, result = _run(checkout, "--workload", "build_scaling", "--smoke",
                        "--seconds", "0")
    assert proc.returncode != 0
    assert not result["correct"] and result["failed"] >= 1
    assert "FAILED fig9: digest" in proc.stdout
    assert "FAILED export" not in proc.stdout


def test_perturbed_export_fails(checkout):
    _edit(checkout / "src/repro/bench/export.py",
          '"n_lookups": m.n_lookups,', '"n_lookups": m.n_lookups + 1,')
    proc, result = _run(checkout, "--workload", "build_scaling", "--smoke",
                        "--seconds", "0")
    assert proc.returncode != 0
    assert not result["correct"] and result["failed"] >= 1
    assert "FAILED export: digest" in proc.stdout
    assert "FAILED fig9" not in proc.stdout


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc, result = _run(tmp_path, "--workload", "serve_mix")
    assert proc.returncode != 0 and result is None


def test_split_sections_drops_headers_runner_stats_and_saved_lines():
    bar = "=" * 72
    text = (f"runner: 3 cells (3 unique), jobs=1, 0.1s wall\n\n"
            f"{bar}\n[a] (1.2s)\n{bar}\nreport a\n\n"
            f"{bar}\n[b] (0.0s)\n{bar}\nreport b\n\nsaved 3 measurements to x\n")
    assert bench.split_sections(text) == {"a": "report a", "b": "report b"}


def test_scaled_walls_scale_each_segment_by_the_probes_around_it():
    # A segment between probes twice as slow as the reference counts half.
    ref = bench.REFERENCE_S
    fast = SimpleNamespace(result={"segments": [[1.0, ref, ref],
                                                [1.0, 2 * ref, 2 * ref]]})
    slow = SimpleNamespace(result={"segments": [[2.0, 1.5 * ref, 2.5 * ref]]})
    assert bench.scaled_walls([fast, slow]) == pytest.approx([1.5, 1.0])


@pytest.mark.parametrize("a, b, expected", [
    ([10.0, 10.1, 9.9, 10.0], [12.0, 12.1, 11.9, 12.2], "worse"),
    ([10.0, 10.1, 9.9, 10.0], [8.0, 8.1, 7.9, 8.2], "better"),
    ([10.0, 10.4, 9.6, 10.1], [10.1, 10.3, 9.7, 10.0], "same"),
    ([10.0, 14.0, 7.0, 11.0], [10.5, 13.0, 8.0, 12.0], "unresolved"),
])
def test_compare_verdicts(a, b, expected):
    assert bench.verdict(a, b, bound=0.1, lower_is_better=True) == expected

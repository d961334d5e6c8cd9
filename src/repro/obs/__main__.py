"""CLI: summarize a run's observability artifacts.

::

    python -m repro.obs summary RUN_DIR [--top N]
    python -m repro.obs timeline RUN_DIR [--label SUBSTR] [--svg-dir DIR]

``summary`` reads ``spans.jsonl`` / ``metrics.json`` / ``manifest.json``
from a directory written by ``python -m repro.bench --obs-dir RUN_DIR``
and renders the span flame table, the top-N slowest grid cells,
per-worker load balance, and the metrics snapshot.  ``timeline`` reads
``timeseries.jsonl`` (the serving-telemetry stream, see
:mod:`repro.serve.telemetry`) and renders one windowed table per
recorded series -- plus one SVG per series with ``--svg-dir``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.obs.report import (
    format_metrics,
    format_slowest_cells,
    format_span_flame,
    format_timeline,
    format_worker_balance,
    timeline_svg,
    worker_cells_from_spans,
)
from repro.obs.sink import (
    MANIFEST_FILENAME,
    METRICS_FILENAME,
    SPANS_FILENAME,
    TIMESERIES_FILENAME,
    read_jsonl,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect observability artifacts of a benchmark run.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    summary = sub.add_parser(
        "summary", help="span flame table, slowest cells, worker balance"
    )
    summary.add_argument("run_dir", help="directory written by --obs-dir")
    summary.add_argument(
        "--top", type=int, default=10, help="rows in the slowest-cell table"
    )
    timeline = sub.add_parser(
        "timeline", help="windowed serving-telemetry tables (and SVGs)"
    )
    timeline.add_argument("run_dir", help="directory written by --obs-dir")
    timeline.add_argument(
        "--label",
        default=None,
        help="only series whose label contains this substring",
    )
    timeline.add_argument(
        "--svg-dir",
        default=None,
        help="also write one timeline SVG per series into this directory",
    )
    return parser


def render_timelines(
    run_dir: str, label: str = None, svg_dir: str = None
) -> str:
    """Tables (and optional SVG files) for every recorded time-series."""
    path = os.path.join(run_dir, TIMESERIES_FILENAME)
    records = read_jsonl(path) if os.path.exists(path) else []
    if label is not None:
        records = [r for r in records if label in r.get("label", "")]
    if not records:
        return "no timeseries recorded" + (
            f" matching {label!r}" if label is not None else ""
        )
    parts = []
    for record in records:
        name = record.get("label", "?")
        key = record.get("content_key", "?")
        parts.append(f"== {name} [{key[:12]}] ==")
        parts.append(format_timeline(record.get("series", {})))
        if svg_dir is not None:
            os.makedirs(svg_dir, exist_ok=True)
            fname = name.replace("/", "_").replace(" ", "_") + ".svg"
            svg_path = os.path.join(svg_dir, fname)
            with open(svg_path, "w") as f:
                f.write(timeline_svg(record.get("series", {}), title=name))
                f.write("\n")
            parts.append(f"wrote {svg_path}")
        parts.append("")
    return "\n".join(parts).rstrip()


def summarize(run_dir: str, top: int = 10) -> str:
    parts = []
    manifest_path = os.path.join(run_dir, MANIFEST_FILENAME)
    if os.path.exists(manifest_path):
        with open(manifest_path) as f:
            manifest = json.load(f)
        parts.append(
            "run: git={git} seed={seed} config={cfg}".format(
                git=(manifest.get("git_sha") or "?")[:12],
                seed=manifest.get("seed", "?"),
                cfg=manifest.get("config_hash", "?"),
            )
        )
    spans_path = os.path.join(run_dir, SPANS_FILENAME)
    spans = read_jsonl(spans_path) if os.path.exists(spans_path) else []
    parts.append(f"\n== span flame table ({len(spans)} spans) ==")
    parts.append(format_span_flame(spans))
    parts.append(f"\n== slowest cells (top {top}) ==")
    parts.append(format_slowest_cells(spans, limit=top))
    parts.append("\n== worker load balance ==")
    parts.append(format_worker_balance(worker_cells_from_spans(spans)))
    metrics_path = os.path.join(run_dir, METRICS_FILENAME)
    if os.path.exists(metrics_path):
        with open(metrics_path) as f:
            snapshot = json.load(f)
        parts.append("\n== metrics ==")
        parts.append(format_metrics(snapshot))
    return "\n".join(parts)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not os.path.isdir(args.run_dir):
        print(f"not a directory: {args.run_dir}", file=sys.stderr)
        return 2
    if args.command == "timeline":
        print(
            render_timelines(
                args.run_dir, label=args.label, svg_dir=args.svg_dir
            )
        )
        return 0
    print(summarize(args.run_dir, top=args.top))
    return 0


if __name__ == "__main__":
    sys.exit(main())

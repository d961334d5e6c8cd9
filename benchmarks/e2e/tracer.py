"""Outside-in per-layer tracing of one benchmark child process.

The tracer wraps each layer's public functions in benchmark code. It
never edits the program. :meth:`Tracer.install` rebinds every module
attribute that aliases a wrapped function, so names imported with
``from x import f`` are traced too. Spans stay in memory. They use the
``repro.obs.spans`` record format (``sid, parent, path, name, pid,
start_ns, wall_ns, status, attrs``), so ``python -m repro.obs summary``
renders a file of them.

A layer's time is self time: a span's wall time minus the time of its
child spans. Where a span can nest inside one of its own name (a
scenario replay inside a scenario run, a mixed workload built from two
others), only the outermost one is counted as a call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: Index names with their own build/measure metric; the rest are "other".
BUILD_FAMILIES = ("RMI", "PGM", "RS", "ART", "BTree")
MEASURE_FAMILIES = ("RMI", "PGM", "RS", "BTree")
HASH_INDEXES = ("CuckooMap", "RobinHash")
MEASURE_PATHS = ("batched", "replay", "scalar")
SERVE_KINDS = ("open_loop", "cluster", "scenario", "select", "sweep")


def metric_names() -> List[str]:
    """Every metric :meth:`Tracer.metrics` reports, in a fixed order."""
    names = ["datasets.s", "datasets.calls", "datasets.generated",
             "datasets.workloads", "build.s", "build.calls"]
    names += [f"build.{f}.s" for f in BUILD_FAMILIES + ("hash", "other")]
    names += ["measure.s", "measure.calls", "measure.lookups",
              "measure.us_per_lookup"]
    names += [f"measure.{p}.{x}" for p in MEASURE_PATHS for x in ("s", "calls")]
    names += [f"measure.{f}.s" for f in MEASURE_FAMILIES + ("other",)]
    names += ["runner.self_s", "runner.cells", "runner.unique",
              "runner.executed", "cell.self_s", "cell.p50_ms", "cell.p95_ms",
              "cell.max_ms", "cell.samples"]
    names += [f"cache.{op}.{x}" for op in ("get", "put") for x in ("calls", "s")]
    names += ["cache.hit_ratio", "cache.bytes", "experiments.s", "serve.s"]
    names += [f"serve.{k}.{x}" for k in SERVE_KINDS for x in ("s", "calls")]
    names += ["serve.requests", "serve.us_per_request",
              "unattributed.s", "unattributed.share"]
    return names


class _Frame:
    __slots__ = ("sid", "name", "path", "parent", "start_ns", "child_ns",
                 "attrs", "outer")


class Tracer:
    """Collects spans and per-layer totals for one traced run."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.acc: Dict[str, float] = defaultdict(float)
        self.cell_wall_ns: List[int] = []
        self.covered_ns = 0
        self._stack: List[_Frame] = []
        self._seq = 0
        self._pid = os.getpid()

    # -- spans -------------------------------------------------------------

    def _open(self, name: str, attrs: dict) -> _Frame:
        f = _Frame()
        self._seq += 1
        f.sid = f"{self._pid}:{self._seq}"
        f.name = name
        f.outer = all(o.name != name for o in self._stack)
        parent = self._stack[-1] if self._stack else None
        f.parent = parent.sid if parent else None
        f.path = f"{parent.path}/{name}" if parent else name
        f.attrs = attrs
        f.child_ns = 0
        self._stack.append(f)
        f.start_ns = time.monotonic_ns()
        return f

    def _close(self, f: _Frame, ok: bool) -> None:
        wall = time.monotonic_ns() - f.start_ns
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_ns += wall
        self_ns = wall - f.child_ns
        self.covered_ns += self_ns
        _ACCOUNT[f.name](self, f, self_ns / 1e9, wall)
        self.spans.append({
            "sid": f.sid, "parent": f.parent, "path": f.path,
            "name": f.name, "pid": self._pid, "start_ns": f.start_ns,
            "wall_ns": wall, "status": "ok" if ok else "error",
            "attrs": f.attrs,
        })

    def skip(self, ns: int) -> None:
        """Leave ``ns`` of benchmark work (a speed probe) out of the self
        time of the innermost open span."""
        if self._stack:
            self._stack[-1].child_ns += ns

    def innermost(self, name: str) -> Optional[_Frame]:
        for f in reversed(self._stack):
            if f.name == name:
                return f
        return None

    def wrap(self, fn: Callable, name: str, enter, leave=None) -> Callable:
        """``fn`` inside a span; ``enter(bound_args) -> attrs`` runs
        before the call and ``leave(attrs, result)`` after it."""
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            frame = self._open(name, enter(bound.arguments))
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                if ok and leave is not None:
                    leave(frame.attrs, result)
                self._close(frame, ok)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target and rebind each alias of it.

        Modules imported later read the wrapped attribute themselves.
        """
        replaced = {}
        for module_name, qualname, span, enter, leave in _targets():
            owner = importlib.import_module(module_name)
            *outer, attr = qualname.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = inspect.getattr_static(owner, attr)
            wrapper = (
                self.wrap(original, span, enter, leave) if span
                else _marker(self, original)
            )
            setattr(owner, attr, wrapper)
            replaced[id(original)] = wrapper
        # Every loaded module, not only repro.*: the benchmark's own
        # workload modules import from repro too.
        for module in list(sys.modules.values()):
            for attr, value in list(getattr(module, "__dict__", {}).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
        from repro.bench.experiments import EXPERIMENTS

        for exp_id, fn in list(EXPERIMENTS.items()):
            EXPERIMENTS[exp_id] = self.wrap(
                fn, "experiment",
                lambda a, exp_id=exp_id: {"id": exp_id},
            )

    # -- results -----------------------------------------------------------

    def metrics(self, wall_s: float) -> Dict[str, float]:
        """Every :func:`metric_names` entry, for a timed part of ``wall_s``."""
        acc = self.acc
        out = {name: float(acc.get(name, 0.0)) for name in metric_names()}
        out["measure.us_per_lookup"] = _ratio(
            acc["measure.s"] * 1e6, acc["measure.lookups"]
        )
        out["cache.hit_ratio"] = _ratio(acc["cache.hits"], acc["cache.get.calls"])
        out["serve.us_per_request"] = _ratio(
            acc["serve.s"] * 1e6, acc["serve.requests"]
        )
        cells = sorted(self.cell_wall_ns)
        out["cell.samples"] = float(len(cells))
        out["cell.p50_ms"] = _percentile(cells, 0.50) / 1e6
        out["cell.p95_ms"] = _percentile(cells, 0.95) / 1e6
        out["cell.max_ms"] = (cells[-1] if cells else 0) / 1e6
        unattributed = wall_s - self.covered_ns / 1e9
        out["unattributed.s"] = unattributed
        out["unattributed.share"] = _ratio(unattributed, wall_s)
        return out

    def write_spans(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as f:
            for record in self.spans:
                f.write(json.dumps(record, sort_keys=True))
                f.write("\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile(sorted_values: List[int], q: float) -> float:
    """Linear-interpolated percentile of an ascending list (0 if empty)."""
    if not sorted_values:
        return 0.0
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def _marker(tracer: Tracer, fn: Callable) -> Callable:
    """``harness._measure_batched``: no span of its own, it relabels the
    enclosing ``measure`` span's execution path."""

    @functools.wraps(fn)
    def marked(*args, **kwargs):
        frame = tracer.innermost("measure")
        if frame is not None:
            frame.attrs["path"] = "batched"
        return fn(*args, **kwargs)

    return marked


# -- what each layer's span records ------------------------------------------


def _family(index_name: str, families) -> str:
    if index_name in families:
        return index_name
    if "hash" in families and index_name in HASH_INDEXES:
        return "hash"
    return "other"


def _targets():
    """(module, qualname, span name or None for a marker, enter, leave)."""
    from repro.datasets import loader

    def dataset_enter(a):
        key = (a["name"], a["n_keys"], a["seed"], a["key_bits"])
        return {"dataset": a["name"], "n_keys": a["n_keys"],
                "generated": key not in loader._CACHE}

    def cache_enter(a):
        return {"file": a["self"]._path(a["cell"])}

    def cache_get_leave(attrs, result):
        attrs["hit"] = result is not None
        if attrs["hit"] and "file" in attrs:
            attrs["bytes"] = os.path.getsize(attrs["file"])

    def cache_put_leave(attrs, result):
        attrs["bytes"] = os.path.getsize(attrs["file"])

    def runner_leave(attrs, result):
        stats = result[1]
        attrs.update(cells=stats.total_cells, unique=stats.unique_cells,
                     executed=stats.executed)

    def cell_enter(a):
        from repro.bench.parallel import cell_label

        return {"label": cell_label(a["self"])}

    def serve(kind):
        return lambda a: {"kind": kind, "requests": _requests(kind, a)}

    return [
        ("repro.datasets.loader", "make_dataset", "dataset", dataset_enter, None),
        ("repro.datasets.workload", "make_workload", "workload",
         lambda a: {"n_lookups": a["n_lookups"], "mode": a["mode"]}, None),
        ("repro.bench.harness", "build_index", "build",
         lambda a: {"index": a["index_name"], "n_keys": a["dataset"].n}, None),
        ("repro.bench.harness", "measure", "measure",
         lambda a: {"index": a["built"].index.name,
                    "n_lookups": a["n_lookups"],
                    "path": "replay" if a["replay"] else "scalar"}, None),
        ("repro.bench.harness", "_measure_batched", None, None, None),
        ("repro.bench.parallel", "run_cells", "runner",
         lambda a: {}, runner_leave),
        ("repro.bench.cells", "MeasureCell.run", "cell", cell_enter, None),
        ("repro.bench.cache", "MeasurementCache.get", "cache.get",
         cache_enter, cache_get_leave),
        ("repro.bench.cache", "MeasurementCache.put", "cache.put",
         cache_enter, cache_put_leave),
        ("repro.serve.core", "simulate_open_loop", "serve.open_loop",
         serve("open_loop"), None),
        ("repro.serve.core", "simulate_closed_loop", "serve.open_loop",
         serve("closed_loop"), None),
        ("repro.serve.cluster", "simulate_cluster", "serve.cluster",
         serve("cluster"), None),
        ("repro.serve.tenancy", "simulate_scenario", "serve.scenario",
         serve("scenario"), None),
        ("repro.serve.tenancy", "replay_trace", "serve.scenario",
         serve("replay"), None),
        ("repro.serve.selector", "select_under_slo", "serve.select",
         serve("select"), None),
        ("repro.serve.selector", "select_cluster_under_slo", "serve.select",
         serve("select"), None),
        ("repro.serve.sweep", "run_sim_tasks", "serve.sweep",
         serve("sweep"), None),
    ]


def _requests(kind: str, a: dict) -> int:
    """Requests one outermost serve call simulates (0 for drivers of
    other serve calls, which count their own)."""
    if kind in ("open_loop", "cluster"):
        return len(a["arrivals_ns"])
    if kind == "closed_loop":
        return a["n_requests"]
    if kind == "scenario":
        return a["spec"].n_requests
    if kind == "replay":
        return len(a["trace"])
    return 0


# -- per-span accounting, by span name ----------------------------------------


def _acc_dataset(t: Tracer, f: _Frame, s: float, wall: int) -> None:
    t.acc["datasets.s"] += s
    if f.outer:
        t.acc["datasets.calls"] += 1
        t.acc["datasets.generated"] += f.attrs["generated"]


def _acc_workload(t: Tracer, f: _Frame, s: float, wall: int) -> None:
    t.acc["datasets.s"] += s
    if f.outer:
        t.acc["datasets.workloads"] += 1


def _acc_build(t: Tracer, f: _Frame, s: float, wall: int) -> None:
    t.acc["build.s"] += s
    t.acc[f"build.{_family(f.attrs['index'], BUILD_FAMILIES + ('hash',))}.s"] += s
    t.acc["build.calls"] += 1


def _acc_measure(t: Tracer, f: _Frame, s: float, wall: int) -> None:
    path = f.attrs["path"]
    t.acc["measure.s"] += s
    t.acc[f"measure.{path}.s"] += s
    t.acc[f"measure.{_family(f.attrs['index'], MEASURE_FAMILIES)}.s"] += s
    t.acc["measure.calls"] += 1
    t.acc[f"measure.{path}.calls"] += 1
    t.acc["measure.lookups"] += f.attrs["n_lookups"]


def _acc_runner(t: Tracer, f: _Frame, s: float, wall: int) -> None:
    t.acc["runner.self_s"] += s
    for key in ("cells", "unique", "executed"):
        t.acc[f"runner.{key}"] += f.attrs.get(key, 0)


def _acc_cell(t: Tracer, f: _Frame, s: float, wall: int) -> None:
    t.acc["cell.self_s"] += s
    t.cell_wall_ns.append(wall)


def _acc_cache(t: Tracer, f: _Frame, s: float, wall: int) -> None:
    t.acc[f"{f.name}.s"] += s
    t.acc[f"{f.name}.calls"] += 1
    if f.attrs.get("hit"):
        t.acc["cache.hits"] += 1
    t.acc["cache.bytes"] += f.attrs.get("bytes", 0)


def _acc_experiment(t: Tracer, f: _Frame, s: float, wall: int) -> None:
    t.acc["experiments.s"] += s


def _acc_serve(t: Tracer, f: _Frame, s: float, wall: int) -> None:
    t.acc["serve.s"] += s
    t.acc[f"{f.name}.s"] += s
    if f.outer:
        t.acc[f"{f.name}.calls"] += 1
        t.acc["serve.requests"] += f.attrs["requests"]


_ACCOUNT = {
    "dataset": _acc_dataset,
    "workload": _acc_workload,
    "build": _acc_build,
    "measure": _acc_measure,
    "runner": _acc_runner,
    "cell": _acc_cell,
    "cache.get": _acc_cache,
    "cache.put": _acc_cache,
    "experiment": _acc_experiment,
    **{f"serve.{k}": _acc_serve for k in SERVE_KINDS},
}

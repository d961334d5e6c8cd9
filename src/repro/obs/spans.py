"""Zero-dependency span tracer: nested, timed regions of a run.

A span is one named region of execution (``build``, ``measure``, one
grid ``cell``...) with monotonic wall-clock timing, arbitrary scalar
attributes, and optional attachment of memsim counter deltas.  Spans
nest through a :mod:`contextvars` stack, so they stay correct across
generators and (hypothetically) async callers, and every finished span
is appended to a process-local buffer as a plain JSON-able dict.

Observability is **off by default**: :func:`span` then returns a shared
inert context manager and records nothing, so instrumented code pays
one truthiness test per region.  Enablement is ambient via the
``REPRO_OBS`` environment variable (inherited by pool workers) or
explicit via :func:`enable`.

Multiprocess use follows a record-and-ship model: each worker captures
into its own buffer (:func:`capture` swaps in a fresh one, which also
isolates fork-inherited parent spans), returns the finished records
with its result, and the parent merges them in deterministic task
order -- span *content* is then identical between a serial run and a
``--jobs N`` run modulo pids (``tests/test_obs_merge.py``).
"""

from __future__ import annotations

import os
import time

from contextvars import ContextVar
from typing import Dict, List, Optional

_ENV_VAR = "REPRO_OBS"

_enabled: Optional[bool] = None  # None -> consult the environment

#: (span_id, name) tuples of the open spans enclosing the current frame.
_STACK: ContextVar[tuple] = ContextVar("repro_obs_span_stack", default=())

#: Finished spans of this process, as JSON-able dicts, completion order.
_BUFFER: List[dict] = []

_seq = 0


def enabled() -> bool:
    """Span recording on?  Explicit :func:`enable` beats ``REPRO_OBS``."""
    if _enabled is not None:
        return _enabled
    return os.environ.get(_ENV_VAR, "") not in ("", "0")


def enable(on: bool = True) -> None:
    """Force span recording on/off for this process (overrides the env)."""
    global _enabled
    _enabled = bool(on)


def reset() -> None:
    """Drop all buffered spans and return to environment-driven gating."""
    global _enabled, _seq
    _enabled = None
    _seq = 0
    _BUFFER.clear()


def _next_id() -> str:
    global _seq
    _seq += 1
    return f"{os.getpid()}:{_seq}"


class _NullSpan:
    """Shared inert context manager returned while observability is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _Span:
    """A live span; finishes (and buffers its record) on ``__exit__``."""

    __slots__ = ("sid", "name", "attrs", "tracer", "_t0", "_base", "_token")

    def __init__(self, name: str, tracer, attrs: Dict[str, object]):
        self.sid = _next_id()
        self.name = name
        self.attrs = attrs
        self.tracer = tracer
        self._t0 = 0
        self._base = None
        self._token = None

    def set(self, **attrs) -> None:
        """Attach/overwrite attributes while the span is open."""
        self.attrs.update(attrs)

    def __enter__(self) -> "_Span":
        stack = _STACK.get()
        self._token = _STACK.set(stack + ((self.sid, self.name),))
        if self.tracer is not None:
            self._base = self.tracer.snapshot()
        self._t0 = time.monotonic_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        t1 = time.monotonic_ns()
        _STACK.reset(self._token)
        stack = _STACK.get()
        record = {
            "sid": self.sid,
            "parent": stack[-1][0] if stack else None,
            "path": "/".join(name for _, name in stack + ((None, self.name),)),
            "name": self.name,
            "pid": os.getpid(),
            "start_ns": self._t0,
            "wall_ns": t1 - self._t0,
            "status": "error" if exc_type is not None else "ok",
        }
        if self.attrs:
            record["attrs"] = self.attrs
        if self._base is not None:
            delta = self.tracer.snapshot() - self._base
            record["counters"] = {
                "instructions": delta.instructions,
                "branches": delta.branches,
                "branch_misses": delta.branch_misses,
                "reads": delta.reads,
                "llc_misses": delta.llc_misses,
                "tlb_misses": delta.tlb_misses,
            }
        _BUFFER.append(record)
        return False  # never swallow the exception


def span(name: str, tracer=None, **attrs):
    """Open a span named ``name``; use as a context manager.

    ``tracer`` may be any object with a ``snapshot()`` returning
    :class:`~repro.memsim.counters.PerfCounters`; the span then carries
    the counter delta accrued while it was open.  Extra keyword
    arguments become span attributes (keep them JSON scalars).
    Returns an inert shared instance when observability is off.
    """
    if not enabled():
        return _NULL_SPAN
    return _Span(name, tracer, attrs)


def record(name: str, start_ns: int, wall_ns: int, **attrs) -> None:
    """Append a synthetic completed-span record at the current stack depth.

    For regions timed outside the span machinery (e.g. the runner's
    cache-hit path, which only knows it was a hit after the fact).
    No-op while observability is off.
    """
    if not enabled():
        return
    stack = _STACK.get()
    rec = {
        "sid": _next_id(),
        "parent": stack[-1][0] if stack else None,
        "path": "/".join([n for _, n in stack] + [name]),
        "name": name,
        "pid": os.getpid(),
        "start_ns": start_ns,
        "wall_ns": wall_ns,
        "status": "ok",
    }
    if attrs:
        rec["attrs"] = attrs
    _BUFFER.append(rec)


def current_span_path() -> str:
    """Slash-joined names of the open spans (empty string at top level)."""
    return "/".join(name for _, name in _STACK.get())


def drain() -> List[dict]:
    """Return all buffered span records and clear the buffer."""
    records = list(_BUFFER)
    _BUFFER.clear()
    return records


def inject(records: List[dict]) -> None:
    """Merge externally produced records (e.g. from a pool worker)."""
    _BUFFER.extend(records)


def peek() -> List[dict]:
    """The buffered records, without clearing (tests, summaries)."""
    return list(_BUFFER)


class _Capture:
    """Context manager that redirects the buffer into a private list."""

    __slots__ = ("records", "_saved")

    def __init__(self) -> None:
        self.records: List[dict] = []
        self._saved: List[dict] = []

    def __enter__(self) -> "_Capture":
        # Swap the buffer contents aside; restore on exit.  This both
        # collects only the spans of the captured region and isolates a
        # fork-spawned worker from records inherited from its parent.
        self._saved = list(_BUFFER)
        _BUFFER.clear()
        return self

    def __exit__(self, *exc) -> bool:
        self.records.extend(_BUFFER)
        _BUFFER.clear()
        _BUFFER.extend(self._saved)
        return False


def capture() -> _Capture:
    """Capture the spans of a region into ``capture().records``."""
    return _Capture()

"""Plain-heap event queue: the oracle for the serving simulators' queue.

:class:`HeapEventQueue` is the simplest queue with the simulators'
``(time, kind, seq)`` order: every push goes straight onto one ``heapq``
heap.  :class:`repro.serve.core.SealedEventQueue` promises the same pop
order, so a simulation must give the same bytes on either.
:func:`use_event_queue` swaps the oracle into the simulators for one
test (``monkeypatch`` undoes it), :func:`run_on_both_queues` runs one
simulation on each queue, and the ``event_queue`` fixture in
``conftest.py`` runs a test once per queue.
"""

from __future__ import annotations

import heapq

from repro.serve import cluster, core
from repro.serve.core import SealedEventQueue

#: Queue names, as test ids: ``event`` is the plain-heap oracle, ``fast``
#: the product's sealed queue.
EVENT_QUEUES = ("event", "fast")


class HeapEventQueue:
    """Deterministic event queue ordered by ``(time, kind, seq)``."""

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: list = []
        self._seq = 0

    def push(self, time_ns: float, kind: int, payload) -> None:
        heapq.heappush(self._heap, (time_ns, kind, self._seq, payload))
        self._seq += 1

    def pop(self):
        return heapq.heappop(self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


def use_event_queue(monkeypatch, name: str) -> list:
    """Make the simulators build their event queues from ``name``.

    Returns the list of oracle queues built from then on (always empty
    for ``fast``), so a caller can check the swap took effect.
    """
    if name not in EVENT_QUEUES:
        raise ValueError(f"unknown event queue {name!r}")
    built: list = []
    if name == "fast":
        monkeypatch.setattr(core, "SealedEventQueue", SealedEventQueue)
        monkeypatch.setattr(cluster, "SealedEventQueue", SealedEventQueue)
        return built

    def make() -> HeapEventQueue:
        queue = HeapEventQueue()
        built.append(queue)
        return queue

    monkeypatch.setattr(core, "SealedEventQueue", make)
    monkeypatch.setattr(cluster, "SealedEventQueue", make)
    return built


def run_on_both_queues(monkeypatch, run):
    """Return ``run()`` on the plain-heap oracle, then on the sealed queue."""
    built = use_event_queue(monkeypatch, "event")
    on_heap = run()
    assert built, "the run never built an event queue"
    use_event_queue(monkeypatch, "fast")
    return on_heap, run()

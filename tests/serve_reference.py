"""Oracles for the serving simulators' event queue and event loop.

:class:`HeapEventQueue` is the simplest queue with the simulators'
``(time, kind, seq)`` order: every push goes straight onto one ``heapq``
heap.  :class:`repro.serve.core.SealedEventQueue` promises the same pop
order, so a simulation must give the same bytes on either.
:func:`use_event_queue` swaps the oracle into the simulators for one
test (``monkeypatch`` undoes it), :func:`run_on_both_queues` runs one
simulation on each queue, and the ``event_queue`` fixture in
``conftest.py`` runs a test once per queue.  Both queues' ``pop()``
returns None once they are empty.

:class:`ScanEventLoop` is the event loop as it was before it kept
running occupancy counts: every dispatch, service start and backlog
read rescans the cores.  :class:`CheckedEventLoop` is the product loop
checking its counts against that scan after every dispatch, finish and
drain.  :func:`use_event_loop` swaps either into the simulators.
"""

from __future__ import annotations

import heapq

from repro.serve import cluster, core
from repro.serve.core import _FINISH, SealedEventQueue, _EventLoop

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
        return heapq.heappop(self._heap) if self._heap else None

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


#: Event-loop names, as test ids: ``scan`` is the rescanning oracle,
#: ``counted`` the product's loop.
EVENT_LOOPS = ("scan", "counted")


def backlog(core) -> int:
    """Requests queued on or in service at one core."""
    return len(core.queue) + (1 if core.current is not None else 0)


class ScanEventLoop(_EventLoop):
    """The event loop with occupancy found by scanning every core.

    ``depth`` and ``busy`` (and so every replica backlog the router,
    admission control and the autoscaler read) are recomputed from the
    cores on each read, and writes to them are ignored, so the product
    loop's ``drain`` runs unchanged on top of the scan.  The dispatch
    core is ``min`` over ``(backlog, cid)``, the steal victim ``max``
    over ``(len(queue), -cid)``, and a finishing core always tries to
    start a request.
    """

    @property
    def depth(self) -> int:
        return sum(backlog(c) for c in self.cores)

    @depth.setter
    def depth(self, value: int) -> None:
        pass

    @property
    def busy(self) -> int:
        return sum(1 for c in self.cores if c.current is not None)

    @busy.setter
    def busy(self, value: int) -> None:
        pass

    def dispatch(self, req, now: float) -> None:
        target = min(self.cores, key=lambda c: (backlog(c), c.cid))
        target.queue.append(req)
        depth = sum(backlog(c) for c in self.cores)
        if depth > self.max_queue_depth:
            self.max_queue_depth = depth
        if self.telemetry is not None:
            self.telemetry.on_depth(now, depth)
        if target.current is None:
            self.start_next(target, now)

    def start_next(self, target, now: float) -> None:
        if target.queue:
            req = target.queue.popleft()
        else:
            victim = max(self.cores, key=lambda c: (len(c.queue), -c.cid))
            if not victim.queue:
                return
            req = victim.queue.popleft()
            self.steals += 1
        target.current = req
        busy = sum(1 for c in self.cores if c.current is not None)
        req.core = target.cid
        req.start_ns = now
        service_ns = self.service.service_ns(busy)
        if self.slow_factor != 1.0:
            service_ns *= self.slow_factor
        req.finish_ns = now + service_ns
        self.events.push(req.finish_ns, _FINISH, (self, target.cid, req))

    def finish(self, core_id: int, req, now: float) -> None:
        target = self.cores[core_id]
        target.current = None
        self.makespan = max(self.makespan, now)
        self.start_next(target, now)
        if self.telemetry is not None:
            self.telemetry.on_completed(now, req.latency_ns)
            if self.telemetry.traces is not None:
                self.telemetry.trace_open_loop(req, now)
        if self.on_finish is not None:
            self.on_finish(req, now)


class CheckedEventLoop(_EventLoop):
    """The product loop, checking its running counts after every
    dispatch, finish and drain against a scan of the cores.

    ``checks`` counts the checks made, so a test can tell they ran.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.checks = 0

    def _check(self) -> None:
        cores = self.cores
        assert self.depth == sum(backlog(c) for c in cores), (
            self.depth,
            [backlog(c) for c in cores],
        )
        assert self.busy == sum(1 for c in cores if c.current is not None)
        # No request queues on an idle core; the core pick relies on it.
        assert all(c.current is not None for c in cores if c.queue)
        self.checks += 1

    def dispatch(self, req, now: float) -> None:
        super().dispatch(req, now)
        self._check()

    def finish(self, core_id: int, req, now: float) -> None:
        super().finish(core_id, req, now)
        self._check()

    def drain(self):
        lost = super().drain()
        self._check()
        return lost


_LOOP_CLASSES = {
    "scan": ScanEventLoop,
    "counted": _EventLoop,
    "checked": CheckedEventLoop,
}


def use_event_loop(monkeypatch, name: str) -> list:
    """Make the simulators build their event loops from ``name``.

    ``name`` is one of :data:`EVENT_LOOPS` or ``checked``.  Patches
    ``core`` and ``cluster`` (which imports ``_EventLoop`` by name) and
    returns the list of loops built from then on, so a caller can check
    the swap took effect.
    """
    if name not in _LOOP_CLASSES:
        raise ValueError(f"unknown event loop {name!r}")
    cls = _LOOP_CLASSES[name]
    built: list = []

    def make(*args, **kwargs):
        loop = cls(*args, **kwargs)
        built.append(loop)
        return loop

    monkeypatch.setattr(core, "_EventLoop", make)
    monkeypatch.setattr(cluster, "_EventLoop", make)
    return built

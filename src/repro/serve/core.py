"""Discrete-event serving simulator: multi-core server, FIFO + stealing.

The simulator replays an arrival process against a modelled server of
``n_cores`` physical cores.  Each request is dispatched to the core with
the shortest queue (ties to the lowest core id), cores serve their own
FIFO queue, and an idle core steals the oldest waiting request from the
longest queue.  A request's service time comes from the measured
per-lookup counters through the contention model: it is frozen when
service *starts*, using the number of cores busy at that instant
(:func:`repro.serve.contention.service_time_ns`), so a fully loaded
server reproduces Figure 16's steady-state throughput while a lightly
loaded one serves at the uncontended latency.

Occupancy is kept as two running counts per loop, ``depth`` (queued
plus in-service requests) and ``busy`` (cores in service).  Only a
dispatch, a core starting a request, a finish and
:meth:`_EventLoop.drain` change them, so no event rescans the cores;
``drain`` is the only way to empty a loop (a crashed replica).

Everything is deterministic: events are totally ordered by
``(time, sequence number)``, arrival processes are seeded
(:mod:`repro.serve.arrivals`), and no wall clock is consulted -- the same
inputs produce bit-identical latency traces in any process.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Sequence, Tuple

from repro.memsim.costmodel import XEON_GOLD_6230, CostModel
from repro.serve.arrivals import think_times_ns
from repro.serve.contention import MachineModel, service_time_ns
from repro.serve.telemetry import TelemetryCollector, TelemetryConfig

_ARRIVAL = 0
_FINISH = 1


class SealedEventQueue:
    """Deterministic event queue ordered by ``(time, kind, seq)``.

    The sequence number is assigned at push time, so simultaneous events
    of the same kind pop in FIFO order and the payload is never compared.
    A single queue can be shared by several :class:`_EventLoop` instances
    (the cluster simulator runs one loop per replica on one global
    queue), which is why finish payloads carry their owning loop.

    Pushes before the first pop (the bulk: pre-generated arrivals, the
    merged fault timeline, a declarative reconfig schedule) accumulate
    in a plain list that is sorted once ("sealed"); later pushes
    (finishes, retries, hedges, rebuild completions) go to a small side
    heap.  Popping the minimum of the two streams yields exactly the
    order one big heap would, so every simulation result is that of a
    plain heap by construction (``tests/test_serving.py`` pins it
    against ``heapq``).  :meth:`pop` returns None once the queue is
    empty, so an event loop is ``for ... in iter(events.pop, None)``.
    """

    __slots__ = ("_static", "_cursor", "_heap", "_seq", "_sealed")

    def __init__(self) -> None:
        self._static: list = []
        self._cursor = 0
        self._heap: list = []
        self._seq = 0
        self._sealed = False

    def push(self, time_ns: float, kind: int, payload) -> None:
        entry = (time_ns, kind, self._seq, payload)
        self._seq += 1
        if self._sealed:
            heapq.heappush(self._heap, entry)
        else:
            self._static.append(entry)

    def pop(self):
        if not self._sealed:
            # Unique seqs make (time, kind, seq) a total order, so the
            # sort never reaches the payload element.
            self._static.sort()
            self._sealed = True
        cursor = self._cursor
        if cursor < len(self._static):
            entry = self._static[cursor]
            if not self._heap or entry <= self._heap[0]:
                self._cursor = cursor + 1
                return entry
        elif not self._heap:
            return None
        return heapq.heappop(self._heap)

    def __len__(self) -> int:
        return (len(self._static) - self._cursor) + len(self._heap)

    def __bool__(self) -> bool:
        return self._cursor < len(self._static) or bool(self._heap)


class ServiceModel:
    """Per-request service times for one index, contention included."""

    def __init__(
        self,
        counters,
        fence: bool = False,
        machine: MachineModel = MachineModel(),
        cost_model: CostModel = XEON_GOLD_6230,
    ):
        self.counters = counters
        self.fence = fence
        self.machine = machine
        self.cost_model = cost_model
        # Service time only depends on the busy-core count, so memoize
        # the n_cores possible values.
        self._cache: dict = {}

    @classmethod
    def from_measurement(cls, measurement, **kwargs) -> "ServiceModel":
        return cls(measurement.counters, **kwargs)

    def service_ns(self, busy_cores: int) -> float:
        s = self._cache.get(busy_cores)
        if s is None:
            s = service_time_ns(
                self.counters,
                busy_cores,
                fence=self.fence,
                machine=self.machine,
                cost_model=self.cost_model,
            )
            self._cache[busy_cores] = s
        return s


@dataclass
class Request:
    """One simulated lookup request."""

    rid: int
    arrival_ns: float
    client: int = 0
    start_ns: float = -1.0
    finish_ns: float = -1.0
    core: int = -1

    @property
    def latency_ns(self) -> float:
        """Sojourn time: queueing wait plus service."""
        return self.finish_ns - self.arrival_ns

    @property
    def wait_ns(self) -> float:
        return self.start_ns - self.arrival_ns


@dataclass
class ServingResult:
    """Completed requests of one simulation run, in request-id order."""

    requests: List[Request]
    n_cores: int
    makespan_ns: float
    total_steals: int
    #: Largest total backlog (queued + in service, over all cores) seen
    #: at any dispatch instant -- the headroom number an operator watches.
    max_queue_depth: int = 0
    #: Windowed :class:`~repro.serve.telemetry.TimeSeries` when the run
    #: was given a :class:`~repro.serve.telemetry.TelemetryConfig`.
    telemetry: Optional[object] = None
    #: Tuple of :class:`~repro.serve.telemetry.AttemptTrace` when the
    #: config asked for traces.
    traces: Optional[tuple] = None

    @property
    def latencies_ns(self) -> List[float]:
        return [r.latency_ns for r in self.requests]

    @property
    def throughput_per_sec(self) -> float:
        if self.makespan_ns <= 0.0:
            return 0.0
        return len(self.requests) / (self.makespan_ns * 1e-9)


class _Core:
    """One core: its FIFO queue and the request in service, if any.

    A core without a request in service has an empty queue: dispatch
    starts a request on an idle core at once, and a core that finishes
    pulls from its own queue before it steals.
    """

    __slots__ = ("cid", "queue", "current")

    def __init__(self, cid: int) -> None:
        self.cid = cid
        self.queue: Deque[Request] = deque()
        self.current: Optional[Request] = None


class _EventLoop:
    """Shared event-queue machinery for open- and closed-loop runs.

    ``events`` may be a shared :class:`SealedEventQueue` so several
    loops (the cluster's replicas) interleave on one global clock;
    ``on_finish`` is called after a request completes and its core has
    pulled the next one (the cluster router hooks completions there);
    ``slow_factor`` scales service times (a degraded replica).  The defaults reproduce
    the original single-node behaviour exactly -- same events, same
    order, same float arithmetic.

    ``depth`` (requests queued or in service, over all cores) and
    ``busy`` (cores with a request in service) are running counts:
    only :meth:`dispatch`, :meth:`start_next`, :meth:`finish` and
    :meth:`drain` change them, and nothing else may edit a core's
    queue or service slot.
    """

    def __init__(
        self,
        service: ServiceModel,
        n_cores: int,
        events: Optional[SealedEventQueue] = None,
    ):
        if n_cores < 1:
            raise ValueError(f"need at least one core, got {n_cores}")
        self.service = service
        self.cores = [_Core(cid) for cid in range(n_cores)]
        self.events = events if events is not None else SealedEventQueue()
        self.steals = 0
        self.makespan = 0.0
        self.max_queue_depth = 0
        self.depth = 0
        self.busy = 0
        self.slow_factor = 1.0
        self.on_finish = None
        #: Optional TelemetryCollector.  The single-node simulators set
        #: it; the cluster router leaves it None (it has its own hooks).
        self.telemetry: Optional[TelemetryCollector] = None

    def dispatch(self, req: Request, now: float) -> None:
        # Shortest backlog, ties to the lowest core id.  An idle core's
        # backlog is 0 and a busy one's is its queue plus one.
        cores = self.cores
        if self.busy < len(cores):
            for core in cores:
                if core.current is None:
                    break
        else:
            core = cores[0]
            shortest = len(core.queue)
            for c in cores:
                n = len(c.queue)
                if n < shortest:
                    core, shortest = c, n
        core.queue.append(req)
        self.depth += 1
        depth = self.depth
        if depth > self.max_queue_depth:
            self.max_queue_depth = depth
        if self.telemetry is not None:
            self.telemetry.on_depth(now, depth)
        if core.current is None:
            self.start_next(core, now)

    def start_next(self, core: _Core, now: float) -> None:
        """Start ``core`` on its next request; some queue must be
        non-empty."""
        if core.queue:
            req = core.queue.popleft()
        else:
            # Steal from the longest queue, ties to the lowest core id.
            victim = core
            longest = 0
            for c in self.cores:
                n = len(c.queue)
                if n > longest:
                    victim, longest = c, n
            req = victim.queue.popleft()
            self.steals += 1
        core.current = req
        self.busy += 1
        req.core = core.cid
        req.start_ns = now
        service_ns = self.service.service_ns(self.busy)
        if self.slow_factor != 1.0:
            service_ns *= self.slow_factor
        req.finish_ns = now + service_ns
        # (time, kind, seq) orders simultaneous events deterministically:
        # arrivals before finishes at the same instant, then FIFO.
        self.events.push(req.finish_ns, _FINISH, (self, core.cid, req))

    def finish(self, core_id: int, req: Request, now: float) -> None:
        core = self.cores[core_id]
        core.current = None
        self.busy -= 1
        self.depth -= 1
        if now > self.makespan:
            self.makespan = now
        if self.depth != self.busy:  # some request is still queued
            self.start_next(core, now)
        if self.telemetry is not None:
            self.telemetry.on_completed(now, req.latency_ns)
            if self.telemetry.traces is not None:
                self.telemetry.trace_open_loop(req, now)
        if self.on_finish is not None:
            self.on_finish(req, now)

    def drain(self) -> List[Tuple[Request, bool]]:
        """Empty every core at once (a crashed machine); the only way a
        request leaves a loop without finishing.

        Returns ``(request, in_service)`` pairs, cores in id order and
        each core's in-service request before its queue.  An in-service
        request's finish event stays queued; the caller must make it a
        no-op.
        """
        lost: List[Tuple[Request, bool]] = []
        for core in self.cores:
            if core.current is not None:
                lost.append((core.current, True))
                core.current = None
            while core.queue:
                lost.append((core.queue.popleft(), False))
        self.depth = 0
        self.busy = 0
        return lost

    def result(self, requests: List[Request]) -> ServingResult:
        """The run's result; ``requests`` are every request the run
        issued, in ``rid`` order.  A single-node run drops none, so all
        of them have finished."""
        tel = self.telemetry
        return ServingResult(
            requests=requests,
            n_cores=len(self.cores),
            makespan_ns=self.makespan,
            total_steals=self.steals,
            max_queue_depth=self.max_queue_depth,
            telemetry=tel.series() if tel is not None else None,
            traces=tel.trace_tuple() if tel is not None else None,
        )


def simulate_open_loop(
    service: ServiceModel,
    arrivals_ns: Sequence[float],
    n_cores: int,
    telemetry: Optional[TelemetryConfig] = None,
) -> ServingResult:
    """Serve pre-generated arrival timestamps (open loop).

    ``telemetry`` additionally collects a windowed time-series (and,
    opt-in, attempt traces) without perturbing the simulation.
    """
    loop = _EventLoop(service, n_cores)
    if telemetry is not None:
        loop.telemetry = TelemetryCollector(telemetry)
    events = loop.events
    requests = []
    for rid, t in enumerate(arrivals_ns):
        req = Request(rid=rid, arrival_ns=float(t))
        requests.append(req)
        events.push(req.arrival_ns, _ARRIVAL, req)
    for now, kind, _, payload in iter(events.pop, None):
        if kind == _ARRIVAL:
            loop.dispatch(payload, now)
        else:
            loop.finish(payload[1], payload[2], now)
    return loop.result(requests)


def simulate_closed_loop(
    service: ServiceModel,
    n_clients: int,
    n_requests: int,
    mean_think_ns: float,
    seed: int,
    n_cores: int,
    telemetry: Optional[TelemetryConfig] = None,
) -> ServingResult:
    """Closed loop: each client re-issues after completion + think time.

    Exactly ``n_requests`` requests are issued in total, spread over
    ``n_clients`` concurrent clients (client ``i`` gets its own seeded
    think-time sequence); all clients start at time zero.
    """
    if n_clients < 1:
        raise ValueError(f"need at least one client, got {n_clients}")
    loop = _EventLoop(service, n_cores)
    if telemetry is not None:
        loop.telemetry = TelemetryCollector(telemetry)
    per_client = (n_requests + n_clients - 1) // n_clients
    thinks = {
        c: think_times_ns(mean_think_ns, per_client, seed + 7919 * c)
        for c in range(n_clients)
    }
    issued = {c: 0 for c in range(n_clients)}
    requests: List[Request] = []
    remaining = n_requests

    def issue(client: int, at: float) -> None:
        nonlocal remaining
        if remaining <= 0:
            return
        remaining -= 1
        req = Request(rid=len(requests), arrival_ns=at, client=client)
        requests.append(req)
        loop.events.push(at, _ARRIVAL, req)

    for c in range(min(n_clients, n_requests)):
        issue(c, 0.0)
    for now, kind, _, payload in iter(loop.events.pop, None):
        if kind == _ARRIVAL:
            loop.dispatch(payload, now)
        else:
            _, core_id, req = payload
            loop.finish(core_id, req, now)
            client = req.client
            i = issued[client]
            issued[client] = i + 1
            think = thinks[client][i % len(thinks[client])]
            issue(client, now + think)
    return loop.result(requests)

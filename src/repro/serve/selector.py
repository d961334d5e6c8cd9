"""Load-aware index selection under a (p99 latency, memory budget) SLO.

``table2`` answers "which index is fastest?" with a single steady-state
number.  Under real traffic the question is "which index *serves this
load* within the tail-latency SLO, in the least memory?" -- the answer
depends on the arrival process, because queueing inflates the tail long
before mean throughput saturates.  The selector simulates every candidate
measurement (one per index configuration, typically a registry sweep)
against the same seeded arrival process and picks the cheapest-by-memory
candidate whose simulated p99 meets the SLO within the memory budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.serve.contention import MachineModel, saturation_throughput
from repro.serve.metrics import LatencySummary
from repro.serve.router import RouterPolicy, request_keys
from repro.serve.sweep import (
    ClusterRunStats,
    OpenLoopRunStats,
    cluster_task,
    open_loop_task,
    run_sim_tasks,
)


@dataclass(frozen=True)
class Candidate:
    """One simulated index configuration and its tail behaviour."""

    index: str
    config: dict
    size_bytes: int
    saturation_per_sec: float
    summary: LatencySummary

    @property
    def size_mb(self) -> float:
        return self.size_bytes / (1024.0 * 1024.0)


@dataclass
class Selection:
    """Outcome of one SLO sweep: every candidate, plus the winner."""

    offered_per_sec: float
    p99_slo_ns: float
    memory_budget_bytes: Optional[float]
    candidates: List[Candidate]
    chosen: Optional[Candidate]

    def eligible(self) -> List[Candidate]:
        return [c for c in self.candidates if self._fits(c)]

    def _fits(self, c: Candidate) -> bool:
        """Both SLO checks are *inclusive*: a candidate whose p99 equals
        the SLO exactly, or whose footprint equals the memory budget
        exactly, is eligible.  An SLO is a contract boundary -- "p99
        within 1 ms" admits 1 ms -- and budgets likewise admit a
        footprint that exactly fills them.  Pinned by a regression test
        (``tests/test_serving.py::TestSelector::test_boundary_semantics``);
        do not tighten to strict inequality.
        """
        if c.summary.p99_ns > self.p99_slo_ns:
            return False
        if (
            self.memory_budget_bytes is not None
            and c.size_bytes > self.memory_budget_bytes
        ):
            return False
        return True


def select_under_slo(
    measurements: Sequence,
    offered_per_sec: float,
    p99_slo_ns: float,
    memory_budget_bytes: Optional[float] = None,
    n_requests: int = 2_000,
    seed: int = 0,
    n_cores: int = 4,
    machine: MachineModel = MachineModel(),
    fence: bool = False,
    jobs: Optional[int] = None,
    sim_cache=None,
) -> Selection:
    """Pick the cheapest index meeting the SLO at the offered load.

    Every measurement is simulated against the *same* seeded arrival
    sequence, so the comparison isolates the index (identical traffic,
    identical tie-breaks).  The winner is the eligible candidate with the
    smallest memory footprint; ties break on lower p99, then on
    ``(index, sorted config)`` for full determinism.

    Each candidate simulation is one :mod:`repro.serve.sweep` task
    resolved by ``run_sim_tasks(tasks, jobs=jobs, cache=sim_cache)``:
    ``jobs`` follows ``resolve_jobs`` (explicit, else ``REPRO_JOBS``, else
    1; the tasks run in this process only at 1) and ``sim_cache`` (a
    ``MeasurementCache``) replays them.  Simulations are pure functions
    of their seeds, so this changes wall-clock only, never the selection.
    """
    ms = list(measurements)
    tasks = [
        open_loop_task(
            m, offered_per_sec, n_requests, seed, n_cores, machine, fence
        )
        for m in ms
    ]
    records = run_sim_tasks(tasks, jobs=jobs, cache=sim_cache)
    candidates = []
    for m, record in zip(ms, records):
        stats = OpenLoopRunStats.from_dict(record)
        stats.summary.to_metrics(slo_p99_ns=p99_slo_ns, result=stats)
        candidates.append(
            Candidate(
                index=m.index,
                config=dict(m.config),
                size_bytes=m.size_bytes,
                saturation_per_sec=saturation_throughput(m, machine),
                summary=stats.summary,
            )
        )
    return selection_from_candidates(
        candidates, offered_per_sec, p99_slo_ns, memory_budget_bytes
    )


def selection_from_candidates(
    candidates: Sequence[Candidate],
    offered_per_sec: float,
    p99_slo_ns: float,
    memory_budget_bytes: Optional[float] = None,
) -> Selection:
    """Pick from already-simulated candidates (the pure half of
    :func:`select_under_slo`).

    Separated so the decision rule can be property-tested without
    running simulations: the winner is the eligible candidate with the
    smallest memory footprint, ties broken on lower p99, then on
    ``(index, sorted config)``.  The total order makes the outcome
    invariant under any permutation of ``candidates``.
    """
    selection = Selection(
        offered_per_sec=offered_per_sec,
        p99_slo_ns=p99_slo_ns,
        memory_budget_bytes=memory_budget_bytes,
        candidates=list(candidates),
        chosen=None,
    )
    eligible = selection.eligible()
    if eligible:
        selection.chosen = min(
            eligible,
            key=lambda c: (
                c.size_bytes,
                c.summary.p99_ns,
                c.index,
                sorted(c.config.items()),
            ),
        )
    return selection


@dataclass(frozen=True)
class ClusterCandidate:
    """One index family deployed across every shard of a cluster."""

    index: str
    per_shard_size_bytes: Tuple[int, ...]
    summary: Optional[LatencySummary]
    availability: float
    total_retries: int
    total_hedges: int
    max_queue_depth: int

    @property
    def total_size_bytes(self) -> int:
        return sum(self.per_shard_size_bytes)

    @property
    def max_shard_size_bytes(self) -> int:
        return max(self.per_shard_size_bytes)

    @property
    def total_size_mb(self) -> float:
        return self.total_size_bytes / (1024.0 * 1024.0)


@dataclass
class ClusterSelection:
    """Outcome of one cluster-wide SLO sweep across index families.

    Eligibility follows the same inclusive boundary semantics as
    :class:`Selection` (``<=`` at the p99 SLO and at the per-shard
    memory budget), plus an availability floor: under fault injection a
    family must also complete at least ``min_availability`` of requests.
    """

    offered_per_sec: float
    p99_slo_ns: float
    shard_memory_budget_bytes: Optional[float]
    min_availability: float
    candidates: List[ClusterCandidate]
    chosen: Optional[ClusterCandidate] = None

    def eligible(self) -> List[ClusterCandidate]:
        return [c for c in self.candidates if self._fits(c)]

    def _fits(self, c: ClusterCandidate) -> bool:
        if c.summary is None:
            return False
        if c.summary.p99_ns > self.p99_slo_ns:
            return False
        if (
            self.shard_memory_budget_bytes is not None
            and c.max_shard_size_bytes > self.shard_memory_budget_bytes
        ):
            return False
        if c.availability < self.min_availability:
            return False
        return True


def select_cluster_under_slo(
    shard_measurements: Dict[str, Sequence],
    shard_map,
    keys: Sequence[int],
    offered_per_sec: float,
    p99_slo_ns: float,
    shard_memory_budget_bytes: Optional[float] = None,
    min_availability: float = 0.99,
    n_requests: int = 2_000,
    seed: int = 0,
    n_replicas: int = 2,
    n_cores: int = 2,
    policy=None,
    faults=None,
    machine: MachineModel = MachineModel(),
    fence: bool = False,
    fault_horizon_ns: Optional[float] = None,
    jobs: Optional[int] = None,
    sim_cache=None,
) -> ClusterSelection:
    """Cluster-aware ``select_under_slo``: cheapest index family that
    meets the p99 SLO and the per-shard memory budget under faults.

    ``shard_measurements`` maps each index family to its per-shard
    measurements (one real harness build per shard, so sizes and service
    times reflect the partitioned key counts).  Every family is
    simulated against the *same* seeded arrivals, request keys, and
    fault schedule, so the comparison isolates the index.  The winner is
    the eligible family with the smallest total footprint; ties break on
    lower p99, then family name.

    Each family's cluster replay is one :mod:`repro.serve.sweep` task,
    resolved like :func:`select_under_slo`'s (``jobs``/``sim_cache``
    change wall-clock only).
    """
    if policy is None:
        policy = RouterPolicy()
    lookup_keys = request_keys(keys, n_requests, seed)
    families = sorted(shard_measurements)
    tasks = [
        cluster_task(
            list(shard_measurements[family]),
            shard_map,
            lookup_keys,
            offered_per_sec,
            n_requests,
            seed,
            n_replicas,
            n_cores,
            policy,
            faults,
            fault_horizon_ns,
            machine,
            fence,
        )
        for family in families
    ]
    records = run_sim_tasks(tasks, jobs=jobs, cache=sim_cache)
    candidates: List[ClusterCandidate] = []
    for family, record in zip(families, records):
        stats = ClusterRunStats.from_dict(record)
        stats.to_metrics()
        candidates.append(
            ClusterCandidate(
                index=family,
                per_shard_size_bytes=tuple(
                    m.size_bytes for m in shard_measurements[family]
                ),
                summary=stats.summary,
                availability=stats.availability,
                total_retries=stats.total_retries,
                total_hedges=stats.total_hedges,
                max_queue_depth=stats.max_queue_depth,
            )
        )
    return cluster_selection_from_candidates(
        candidates,
        offered_per_sec,
        p99_slo_ns,
        shard_memory_budget_bytes,
        min_availability,
    )


def cluster_selection_from_candidates(
    candidates: Sequence[ClusterCandidate],
    offered_per_sec: float,
    p99_slo_ns: float,
    shard_memory_budget_bytes: Optional[float] = None,
    min_availability: float = 0.99,
) -> ClusterSelection:
    """Pure decision rule of :func:`select_cluster_under_slo`."""
    selection = ClusterSelection(
        offered_per_sec=offered_per_sec,
        p99_slo_ns=p99_slo_ns,
        shard_memory_budget_bytes=shard_memory_budget_bytes,
        min_availability=min_availability,
        candidates=list(candidates),
    )
    eligible = selection.eligible()
    if eligible:
        # The tail of the key covers every remaining field so the order
        # is total over candidate *content*: candidates that tie on all
        # of it are equal, which keeps the choice invariant under any
        # permutation of the input (property-tested).
        selection.chosen = min(
            eligible,
            key=lambda c: (
                c.total_size_bytes,
                c.summary.p99_ns,
                c.index,
                c.per_shard_size_bytes,
                -c.availability,
                c.total_retries,
                c.total_hedges,
                c.max_queue_depth,
                tuple(sorted(c.summary.to_dict().items())),
            ),
        )
    return selection

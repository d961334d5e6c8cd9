"""Live cluster reconfiguration: splits, rebuild-and-swap, autoscaling.

Production clusters never get to stop: shards split while traffic is in
flight, indexes are rebuilt in the background and swapped in atomically,
and replica counts follow load.  This module makes those *online
operations* first-class, declarative, and exactly as deterministic as
the fault schedules in :mod:`repro.serve.faults`:

* **Shard split / merge** -- the key-range partition is versioned as a
  sequence of :class:`ShardEpoch` values.  A split carves one range in
  two and hands the new range to a freshly provisioned shard; a merge
  returns a range to its left neighbour and retires the orphaned shard
  (gracefully: queued work completes, new traffic re-routes).  Requests
  stamped with a stale epoch are re-resolved against the current map at
  dispatch time -- the router-side half of a key-range handoff.
* **Rebuild-and-swap** -- a replica leaves the routing rotation (the
  degraded-routing drain the fault injector already exercises: queued
  and in-flight work completes, nothing is cancelled), rebuilds its
  index for ``build_ns`` (drawn from the paper's fig17 build-time data
  by the ``ext_reconfig`` experiment), then swaps the new index in
  atomically and rejoins the rotation -- optionally faster by
  ``speedup``.
* **Reactive autoscaling** -- at fixed intervals the autoscaler reads,
  per shard, exactly the signals :meth:`ClusterResult.to_metrics`
  exports (queue depth, p99 latency) and applies the pure rule
  :func:`autoscale_decision` to add or retire replicas.

Determinism contract (the ``faults.py`` rules):

* :func:`reconfig_schedule` is a pure function of ``(spec, topology,
  horizon)``.  Trigger times are *absolute* nanoseconds; the horizon
  only filters which triggers exist, so the schedule for a shorter
  horizon is a bit-identical prefix of the schedule for a longer one.
* Everything the runtime does downstream of a trigger is a pure
  function of simulator state, so runs replay byte-identically across
  seeds and serial vs ``--jobs N`` (reconfig triggers ride the same
  batch-sorted event queue as faults).
* :class:`ReconfigSpec` is versioned, JSON round-trippable data with a
  ``content_key()``, and composes into
  :class:`~repro.serve.scenario.ScenarioSpec`; cache keys gain a
  ``reconfig`` entry only when a spec is attached, so existing keys
  (and warm caches) are untouched.

See ``docs/reconfig.md`` for the epoch/handoff model and the drain-and-
swap lifecycle.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.serve.router import ShardMap
from repro.serve.telemetry import canonical_json, content_hash

#: Bumped whenever the serialized spec layout changes meaning.
RECONFIG_SCHEMA_VERSION = 1

#: Trigger kinds, in intra-timestamp execution order.
SPLIT = "split"
MERGE = "merge"
REBUILD = "rebuild"
AUTOSCALE = "autoscale"
#: Emitted by the runtime when a rebuild's build time elapses -- never
#: present in a declarative schedule.
REBUILD_DONE = "rebuild_done"
_KIND_ORDER = {SPLIT: 0, MERGE: 1, REBUILD: 2, AUTOSCALE: 3}


@dataclass(frozen=True)
class SplitSpec:
    """Split the range at position ``shard`` (in the epoch current when
    the trigger fires) at ``at_key``; the upper half moves to a newly
    provisioned shard."""

    at_ns: float
    shard: int
    at_key: int

    def __post_init__(self):
        if self.at_ns < 0.0:
            raise ValueError(f"at_ns must be >= 0, got {self.at_ns}")
        if self.shard < 0:
            raise ValueError(f"shard must be >= 0, got {self.shard}")

    def to_dict(self) -> Dict:
        return {
            "at_ns": self.at_ns,
            "shard": self.shard,
            "at_key": int(self.at_key),
        }

    @classmethod
    def from_dict(cls, d: Dict) -> "SplitSpec":
        return cls(
            at_ns=float(d["at_ns"]),
            shard=int(d["shard"]),
            at_key=int(d["at_key"]),
        )


@dataclass(frozen=True)
class MergeSpec:
    """Merge the range at position ``shard`` with its right neighbour;
    the neighbour's shard is retired (graceful drain)."""

    at_ns: float
    shard: int

    def __post_init__(self):
        if self.at_ns < 0.0:
            raise ValueError(f"at_ns must be >= 0, got {self.at_ns}")
        if self.shard < 0:
            raise ValueError(f"shard must be >= 0, got {self.shard}")

    def to_dict(self) -> Dict:
        return {"at_ns": self.at_ns, "shard": self.shard}

    @classmethod
    def from_dict(cls, d: Dict) -> "MergeSpec":
        return cls(at_ns=float(d["at_ns"]), shard=int(d["shard"]))


@dataclass(frozen=True)
class RebuildSpec:
    """Rebuild replica ``replica`` of (initial-topology) shard ``shard``.

    The replica leaves the rotation at ``at_ns``, drains gracefully, and
    rejoins ``build_ns`` later with its service times divided by
    ``speedup`` (1.0 = same index, e.g. a compaction).
    """

    at_ns: float
    shard: int
    replica: int
    build_ns: float
    speedup: float = 1.0

    def __post_init__(self):
        if self.at_ns < 0.0:
            raise ValueError(f"at_ns must be >= 0, got {self.at_ns}")
        if self.shard < 0 or self.replica < 0:
            raise ValueError("shard and replica must be >= 0")
        if self.build_ns <= 0.0:
            raise ValueError(f"build_ns must be positive, got {self.build_ns}")
        if self.speedup <= 0.0:
            raise ValueError(f"speedup must be positive, got {self.speedup}")

    def to_dict(self) -> Dict:
        return {
            "at_ns": self.at_ns,
            "shard": self.shard,
            "replica": self.replica,
            "build_ns": self.build_ns,
            "speedup": self.speedup,
        }

    @classmethod
    def from_dict(cls, d: Dict) -> "RebuildSpec":
        return cls(
            at_ns=float(d["at_ns"]),
            shard=int(d["shard"]),
            replica=int(d["replica"]),
            build_ns=float(d["build_ns"]),
            speedup=float(d.get("speedup", 1.0)),
        )


@dataclass(frozen=True)
class AutoscaleSpec:
    """The reactive scaling rule, evaluated per shard every
    ``interval_ns``.

    Scale *up* (add one replica) when the shard's total backlog reaches
    ``up_depth``, or when ``up_p99_ns`` is set and the shard's p99
    latency since the last tick exceeds it; scale *down* (retire the
    newest replica, graceful drain) when the backlog has fallen to
    ``down_depth``.  Replica counts stay within
    ``[min_replicas, max_replicas]``.
    """

    interval_ns: float
    up_depth: int
    down_depth: int = 0
    min_replicas: int = 1
    max_replicas: int = 8
    up_p99_ns: Optional[float] = None

    def __post_init__(self):
        if self.interval_ns <= 0.0:
            raise ValueError(
                f"interval_ns must be positive, got {self.interval_ns}"
            )
        if self.up_depth < 1:
            raise ValueError(f"up_depth must be >= 1, got {self.up_depth}")
        if not 0 <= self.down_depth < self.up_depth:
            raise ValueError(
                f"need 0 <= down_depth < up_depth, got {self.down_depth}"
            )
        if self.min_replicas < 1:
            raise ValueError(
                f"min_replicas must be >= 1, got {self.min_replicas}"
            )
        if self.max_replicas < self.min_replicas:
            raise ValueError(
                f"max_replicas {self.max_replicas} below min_replicas "
                f"{self.min_replicas}"
            )
        if self.up_p99_ns is not None and self.up_p99_ns <= 0.0:
            raise ValueError(
                f"up_p99_ns must be positive, got {self.up_p99_ns}"
            )

    def to_dict(self) -> Dict:
        d = {
            "interval_ns": self.interval_ns,
            "up_depth": self.up_depth,
            "down_depth": self.down_depth,
            "min_replicas": self.min_replicas,
            "max_replicas": self.max_replicas,
        }
        if self.up_p99_ns is not None:
            d["up_p99_ns"] = self.up_p99_ns
        return d

    @classmethod
    def from_dict(cls, d: Dict) -> "AutoscaleSpec":
        return cls(
            interval_ns=float(d["interval_ns"]),
            up_depth=int(d["up_depth"]),
            down_depth=int(d.get("down_depth", 0)),
            min_replicas=int(d.get("min_replicas", 1)),
            max_replicas=int(d.get("max_replicas", 8)),
            up_p99_ns=(
                float(d["up_p99_ns"]) if d.get("up_p99_ns") is not None
                else None
            ),
        )


@dataclass(frozen=True)
class ReconfigSpec:
    """A complete reconfiguration plan: declarative, versioned data.

    The zero value (no triggers) is a strict no-op: the differential
    suite pins that a cluster run with ``ReconfigSpec()`` attached is
    byte-identical to one with no spec at all.
    """

    splits: Tuple[SplitSpec, ...] = ()
    merges: Tuple[MergeSpec, ...] = ()
    rebuilds: Tuple[RebuildSpec, ...] = ()
    autoscale: Optional[AutoscaleSpec] = None

    def __post_init__(self):
        object.__setattr__(self, "splits", tuple(self.splits))
        object.__setattr__(self, "merges", tuple(self.merges))
        object.__setattr__(self, "rebuilds", tuple(self.rebuilds))

    @property
    def enabled(self) -> bool:
        """True when any trigger is present."""
        return bool(
            self.splits or self.merges or self.rebuilds
            or self.autoscale is not None
        )

    def to_dict(self) -> Dict:
        d: Dict = {"schema": RECONFIG_SCHEMA_VERSION}
        if self.splits:
            d["splits"] = [s.to_dict() for s in self.splits]
        if self.merges:
            d["merges"] = [m.to_dict() for m in self.merges]
        if self.rebuilds:
            d["rebuilds"] = [r.to_dict() for r in self.rebuilds]
        if self.autoscale is not None:
            d["autoscale"] = self.autoscale.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: Dict) -> "ReconfigSpec":
        schema = d.get("schema")
        if schema != RECONFIG_SCHEMA_VERSION:
            raise ValueError(
                f"reconfig schema {schema!r} != {RECONFIG_SCHEMA_VERSION}"
            )
        return cls(
            splits=tuple(
                SplitSpec.from_dict(s) for s in d.get("splits", [])
            ),
            merges=tuple(
                MergeSpec.from_dict(m) for m in d.get("merges", [])
            ),
            rebuilds=tuple(
                RebuildSpec.from_dict(r) for r in d.get("rebuilds", [])
            ),
            autoscale=(
                AutoscaleSpec.from_dict(d["autoscale"])
                if d.get("autoscale") is not None
                else None
            ),
        )

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "ReconfigSpec":
        import json

        return cls.from_dict(json.loads(text))

    def content_key(self) -> str:
        return content_hash(self.to_dict())


@dataclass(frozen=True)
class ReconfigEvent:
    """One scheduled trigger, ready for the simulator's event queue."""

    time_ns: float
    kind: str
    shard: int = -1
    replica: int = -1
    at_key: int = 0
    build_ns: float = 0.0
    speedup: float = 1.0


def reconfig_schedule(
    spec: ReconfigSpec,
    n_shards: int,
    n_replicas: int,
    horizon_ns: float,
) -> List[ReconfigEvent]:
    """Expand a spec into the triggers that fire before ``horizon_ns``.

    Pure function of ``(spec, topology, horizon)``.  Trigger times are
    absolute, so the horizon only *filters*: the schedule for ``h1 <
    h2`` is a bit-identical prefix of the schedule for ``h2`` (the
    property suite pins this).  Sorted by ``(time, kind, shard,
    replica)`` with the kind order split < merge < rebuild < autoscale.

    Rebuild targets are validated against the *initial* topology --
    splits provision new shards at runtime, but declarative rebuilds may
    only name shards that exist at time zero.
    """
    if horizon_ns <= 0.0:
        raise ValueError(f"horizon must be positive, got {horizon_ns}")
    events: List[ReconfigEvent] = []
    for s in spec.splits:
        if s.at_ns < horizon_ns:
            events.append(
                ReconfigEvent(s.at_ns, SPLIT, shard=s.shard, at_key=s.at_key)
            )
    for m in spec.merges:
        if m.at_ns < horizon_ns:
            events.append(ReconfigEvent(m.at_ns, MERGE, shard=m.shard))
    for r in spec.rebuilds:
        if r.shard >= n_shards or r.replica >= n_replicas:
            raise ValueError(
                f"rebuild targets replica {r.replica} of shard {r.shard}, "
                f"outside the {n_shards}x{n_replicas} initial topology"
            )
        if r.at_ns < horizon_ns:
            events.append(
                ReconfigEvent(
                    r.at_ns,
                    REBUILD,
                    shard=r.shard,
                    replica=r.replica,
                    build_ns=r.build_ns,
                    speedup=r.speedup,
                )
            )
    if spec.autoscale is not None:
        k = 1
        while k * spec.autoscale.interval_ns < horizon_ns:
            events.append(
                ReconfigEvent(k * spec.autoscale.interval_ns, AUTOSCALE)
            )
            k += 1
    events.sort(
        key=lambda e: (e.time_ns, _KIND_ORDER[e.kind], e.shard, e.replica)
    )
    return events


def autoscale_decision(
    spec: AutoscaleSpec,
    backlog: int,
    p99_ns: Optional[float],
    n_live: int,
) -> int:
    """The scaling rule: +1 (add a replica), -1 (retire one), or 0.

    Pure function of ``(spec, observed backlog, observed p99, live
    replica count)`` -- the same numbers ``to_metrics()`` exports as the
    ``queue_depth`` and ``p99_ns`` gauges.  ``p99_ns`` is None when no
    request completed since the last tick.
    """
    overloaded = backlog >= spec.up_depth or (
        spec.up_p99_ns is not None
        and p99_ns is not None
        and p99_ns > spec.up_p99_ns
    )
    if overloaded:
        return 1 if n_live < spec.max_replicas else 0
    if backlog <= spec.down_depth and n_live > spec.min_replicas:
        return -1
    return 0


@dataclass(frozen=True)
class ShardEpoch:
    """One version of the key-range partition.

    ``bounds[i]`` is the lower bound of range ``i``; ``owners[i]`` is
    the simulator shard id serving that range.  Splits append brand-new
    shard ids rather than renumbering, so per-shard statistics and
    in-flight requests keep their indices across epochs; ranges stay a
    total, non-overlapping partition of the keyspace (the property
    suite pins both invariants).
    """

    version: int
    time_ns: float
    bounds: Tuple[int, ...]
    owners: Tuple[int, ...]

    def __post_init__(self):
        if len(self.bounds) != len(self.owners):
            raise ValueError(
                f"{len(self.bounds)} bounds vs {len(self.owners)} owners"
            )
        if len(set(self.owners)) != len(self.owners):
            raise ValueError(f"duplicate owners: {self.owners}")
        ShardMap(self.bounds)  # validates strictly-increasing bounds

    @property
    def n_ranges(self) -> int:
        return len(self.bounds)

    def shard_for(self, key: int) -> int:
        """Owning shard id for ``key`` (clamped below the first bound,
        like :meth:`ShardMap.shard_for`)."""
        idx = max(bisect_right(self.bounds, int(key)) - 1, 0)
        return self.owners[idx]

    def to_dict(self) -> Dict:
        return {
            "version": self.version,
            "time_ns": self.time_ns,
            "bounds": list(self.bounds),
            "owners": list(self.owners),
        }


class _RebuiltService:
    """A replica's service model after rebuild-and-swap: the base model
    with every service time divided by ``speedup``."""

    __slots__ = ("base", "speedup")

    def __init__(self, base, speedup: float):
        self.base = base
        self.speedup = speedup

    def service_ns(self, busy_cores: int) -> float:
        return self.base.service_ns(busy_cores) / self.speedup


class ReconfigRuntime:
    """Online-operation state riding one cluster simulation.

    The cluster simulator owns the event loop; this object owns the
    epoch history and applies each trigger when the simulator hands it
    over.  Everything here is driven by :func:`reconfig_schedule` plus
    simulator state, so it inherits the simulator's determinism.
    """

    def __init__(self, sim, spec: ReconfigSpec, horizon_ns: float):
        self.sim = sim
        self.spec = spec
        cluster = sim.cluster
        self.schedule = reconfig_schedule(
            spec, cluster.n_shards, cluster.n_replicas, horizon_ns
        )
        self.epochs: List[ShardEpoch] = [
            ShardEpoch(
                version=0,
                time_ns=0.0,
                bounds=tuple(cluster.shard_map.lower_bounds),
                owners=tuple(range(cluster.n_shards)),
            )
        ]
        #: Base (pre-rebuild) service model per shard id; splits append.
        self.shard_services = list(cluster.services)
        #: Completed rebuilds: (completion_ns, shard, replica).
        self.rebuilds: List[Tuple[float, int, int]] = []
        #: Autoscaler actions: (time_ns, shard, +1 | -1).
        self.scale_events: List[Tuple[float, int, int]] = []
        #: Per-shard latencies since the last autoscale tick (collected
        #: only when the rule reads p99).
        self._latencies: Dict[int, List[float]] = {}

    @property
    def epoch(self) -> ShardEpoch:
        return self.epochs[-1]

    # -- router-side handoff ---------------------------------------------

    def resolve(self, record) -> None:
        """Re-route a request stamped with a stale epoch: recompute its
        shard against the current map and restamp.  The retrying router
        calls this on every (non-hedge) dispatch."""
        cur = self.epochs[-1]
        if record.epoch != cur.version:
            record.shard = cur.shard_for(record.key)
            record.epoch = cur.version

    def note_completion(self, shard: int, latency_ns: float) -> None:
        sp = self.spec.autoscale
        if sp is not None and sp.up_p99_ns is not None:
            self._latencies.setdefault(shard, []).append(latency_ns)

    # -- trigger application ---------------------------------------------

    def on_event(self, ev: ReconfigEvent, now: float) -> None:
        if ev.kind == SPLIT:
            self._apply_split(ev, now)
        elif ev.kind == MERGE:
            self._apply_merge(ev, now)
        elif ev.kind == REBUILD:
            self._begin_rebuild(ev, now)
        elif ev.kind == REBUILD_DONE:
            self._finish_rebuild(ev, now)
        elif ev.kind == AUTOSCALE:
            self._autoscale_tick(now)
        else:  # pragma: no cover - schedule only emits known kinds
            raise ValueError(f"unknown reconfig event kind {ev.kind!r}")

    def _finish_rebuild(self, ev: ReconfigEvent, now: float) -> None:
        """Atomic swap at build completion: install the rebuilt service
        model on every core at once and rejoin the rotation."""
        rep = self.sim.replicas[ev.shard][ev.replica]
        if ev.speedup != 1.0:
            rep.loop.service = _RebuiltService(
                self.shard_services[ev.shard], ev.speedup
            )
        rep.rebuilding = False
        rep.up = not rep.retired
        self.rebuilds.append((now, ev.shard, ev.replica))

    def live_replicas(self) -> int:
        """Replicas still provisioned on the shards owning a range."""
        return sum(
            sum(1 for r in self.sim.replicas[sid] if not r.retired)
            for sid in self.epochs[-1].owners
        )

    def _apply_split(self, ev: ReconfigEvent, now: float) -> None:
        cur = self.epochs[-1]
        if not 0 <= ev.shard < cur.n_ranges:
            raise ValueError(
                f"split targets range {ev.shard}, but epoch "
                f"{cur.version} has {cur.n_ranges} ranges"
            )
        # ShardMap.split validates the key falls strictly inside the
        # range; the upper half's owner is a brand-new shard cloned from
        # the range's current owner (same index, fresh replicas).
        new_map = ShardMap(cur.bounds).split(ev.shard, ev.at_key)
        owner = cur.owners[ev.shard]
        new_sid = self.sim.provision_shard(self.shard_services[owner])
        self.shard_services.append(self.shard_services[owner])
        owners = (
            cur.owners[: ev.shard + 1]
            + (new_sid,)
            + cur.owners[ev.shard + 1 :]
        )
        self.epochs.append(
            ShardEpoch(
                version=cur.version + 1,
                time_ns=now,
                bounds=tuple(new_map.lower_bounds),
                owners=owners,
            )
        )

    def _apply_merge(self, ev: ReconfigEvent, now: float) -> None:
        cur = self.epochs[-1]
        # ShardMap.merge validates the range has a right neighbour.
        new_map = ShardMap(cur.bounds).merge(ev.shard)
        retired_sid = cur.owners[ev.shard + 1]
        owners = cur.owners[: ev.shard + 1] + cur.owners[ev.shard + 2 :]
        self.sim.retire_shard(retired_sid)
        self.epochs.append(
            ShardEpoch(
                version=cur.version + 1,
                time_ns=now,
                bounds=tuple(new_map.lower_bounds),
                owners=owners,
            )
        )

    def _begin_rebuild(self, ev: ReconfigEvent, now: float) -> None:
        rep = self.sim.replicas[ev.shard][ev.replica]
        # Degraded-routing drain: out of the rotation, queued work
        # completes.  The swap arrives build_ns later.
        rep.up = False
        rep.rebuilding = True
        self.sim.schedule_reconfig(
            now + ev.build_ns,
            ReconfigEvent(
                now + ev.build_ns,
                REBUILD_DONE,
                shard=ev.shard,
                replica=ev.replica,
                speedup=ev.speedup,
            ),
        )

    def _autoscale_tick(self, now: float) -> None:
        sp = self.spec.autoscale
        cur = self.epochs[-1]
        for sid in cur.owners:  # range order: deterministic
            row = self.sim.replicas[sid]
            live = [r for r in row if not r.retired]
            backlog = sum(r.backlog for r in live)
            decision = autoscale_decision(
                sp, backlog, self._p99(sid), len(live)
            )
            if decision > 0:
                self.sim.provision_replica(sid, self.shard_services[sid])
                self.scale_events.append((now, sid, 1))
            elif decision < 0:
                # Retire the newest replica; rows are rid-ordered.
                rep = live[-1]
                rep.retired = True
                rep.up = False
                self.scale_events.append((now, sid, -1))
        self._latencies.clear()

    def _p99(self, sid: int) -> Optional[float]:
        lat = self._latencies.get(sid)
        if not lat:
            return None
        from repro.bench.stats import percentiles

        return float(percentiles(lat, (99.0,))[99.0])

"""Tenant trace record-replay: a mixed-tenant day as typed arrays.

The tenancy layer never feeds the cluster simulator from generators
directly: a :class:`ScenarioSpec` is first *materialized* into a
:class:`TenantTrace` -- the merged arrival timeline over all tenants,
stored as parallel typed arrays like :class:`repro.memsim.trace.Trace`
stores lookup events -- and the trace is what gets replayed.  That split
is what makes scenario runs reproducible artifacts: a trace serializes
losslessly to JSON (floats round-trip exactly via ``repr``), hashes to a
stable content key, and replaying a reloaded trace is byte-identical to
replaying the freshly generated one, which in turn means the measurement
cache can treat (spec content key, measurement inputs) as a complete
identity for a scenario run (see ``repro.bench.cache.scenario_key``).

The merge order is deterministic: events sort by
``(time, tenant index, per-tenant sequence)``, so simultaneous arrivals
break ties by tenant declaration order -- tenant order in a spec is
significant, as :class:`ScenarioSpec` documents.  For a single-tenant
spec the merge is the identity and replay pushes exactly the arrival
stream a direct :func:`~repro.serve.cluster.simulate_cluster` call would
(the degenerate differential in ``tests/test_tenancy_differential.py``).
"""

from __future__ import annotations

import json
from typing import List, Sequence, Tuple

import numpy as np

from repro.records import canonical_json, content_hash
from repro.serve.scenario import ScenarioSpec

#: Bump when the trace layout or merge rule changes meaning.
TRACE_SCHEMA_VERSION = 1


class TenantTrace:
    """One materialized scenario timeline as parallel typed arrays.

    ``arrivals_ns[i]`` (float64, non-decreasing) is request ``i``'s
    arrival time, ``keys[i]`` (uint64) its lookup key, ``tenants[i]``
    (int32) the index of its tenant in ``tenant_names``.  Requests are
    already merged and sorted; replay enumerates them in order, so
    request ids in results equal trace positions.
    """

    __slots__ = ("arrivals_ns", "keys", "tenants", "tenant_names")

    def __init__(self, arrivals_ns, keys, tenants, tenant_names):
        self.arrivals_ns = np.asarray(arrivals_ns, dtype=np.float64)
        self.keys = np.asarray(keys, dtype=np.uint64)
        self.tenants = np.asarray(tenants, dtype=np.int32)
        self.tenant_names: Tuple[str, ...] = tuple(
            str(n) for n in tenant_names
        )
        n = len(self.arrivals_ns)
        if len(self.keys) != n or len(self.tenants) != n:
            raise ValueError(
                f"parallel arrays disagree: {n} arrivals, "
                f"{len(self.keys)} keys, {len(self.tenants)} tenants"
            )
        if n == 0:
            raise ValueError("need at least one request")
        if not self.tenant_names:
            raise ValueError("need at least one tenant name")
        if len(set(self.tenant_names)) != len(self.tenant_names):
            raise ValueError(
                f"tenant names must be unique: {self.tenant_names}"
            )
        lo = int(self.tenants.min())
        hi = int(self.tenants.max())
        if lo < 0 or hi >= len(self.tenant_names):
            raise ValueError(
                f"tenant ids [{lo}, {hi}] out of range for "
                f"{len(self.tenant_names)} tenants"
            )
        if np.any(np.diff(self.arrivals_ns) < 0.0):
            raise ValueError("arrivals must be non-decreasing")

    @classmethod
    def from_spec(cls, spec: ScenarioSpec, keys: Sequence[int]) -> "TenantTrace":
        """Materialize a spec against a served key array.

        Pure in (spec, keys): each tenant's arrival process and key
        samples are seeded by its own spec, and the merge is the stable
        sort by ``(time, tenant index, per-tenant sequence)``.
        """
        entries: List[Tuple[float, int, int, int]] = []
        for ti, tenant in enumerate(spec.tenants):
            times = tenant.arrivals.generate()
            tkeys = tenant.keyspace.sample(keys, tenant.arrivals.n_requests)
            for j, (t, k) in enumerate(zip(times, tkeys)):
                entries.append((t, ti, j, k))
        entries.sort(key=lambda e: (e[0], e[1], e[2]))
        return cls(
            arrivals_ns=[e[0] for e in entries],
            keys=[e[3] for e in entries],
            tenants=[e[1] for e in entries],
            tenant_names=[t.name for t in spec.tenants],
        )

    def __len__(self) -> int:
        return len(self.arrivals_ns)

    @property
    def nbytes(self) -> int:
        return (
            self.arrivals_ns.nbytes + self.keys.nbytes + self.tenants.nbytes
        )

    def counts_by_tenant(self) -> List[int]:
        """Requests per tenant, indexed like ``tenant_names``."""
        return (
            np.bincount(self.tenants, minlength=len(self.tenant_names))
            .astype(int)
            .tolist()
        )

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        # float64 -> repr via tolist() round-trips exactly through JSON.
        return {
            "schema": TRACE_SCHEMA_VERSION,
            "tenant_names": list(self.tenant_names),
            "arrivals_ns": self.arrivals_ns.tolist(),
            "keys": self.keys.tolist(),
            "tenants": self.tenants.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TenantTrace":
        schema = int(d.get("schema", TRACE_SCHEMA_VERSION))
        if schema != TRACE_SCHEMA_VERSION:
            raise ValueError(
                f"trace schema {schema} != {TRACE_SCHEMA_VERSION}"
            )
        return cls(
            arrivals_ns=d["arrivals_ns"],
            keys=d["keys"],
            tenants=d["tenants"],
            tenant_names=d["tenant_names"],
        )

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "TenantTrace":
        return cls.from_dict(json.loads(text))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path) -> "TenantTrace":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def content_key(self) -> str:
        """Stable content hash of the serialized trace."""
        return content_hash(self.to_dict())

    def __eq__(self, other) -> bool:
        if not isinstance(other, TenantTrace):
            return NotImplemented
        return (
            self.tenant_names == other.tenant_names
            and np.array_equal(self.arrivals_ns, other.arrivals_ns)
            and np.array_equal(self.keys, other.keys)
            and np.array_equal(self.tenants, other.tenants)
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TenantTrace({len(self)} requests, "
            f"{len(self.tenant_names)} tenants, {self.nbytes} bytes)"
        )

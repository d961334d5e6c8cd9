"""Declarative scenario specs: arrivals x topology x faults x tenants x policy.

Every serving experiment so far wired its scenario together in Python
(``ext_serving``/``ext_cluster`` build arrival lists, ``Cluster`` objects
and ``FaultConfig``s by hand).  This module turns a scenario into *data*:
a :class:`ScenarioSpec` is a frozen dataclass tree -- topology, router
policy, fault process, admission policy, and a list of tenants, each
with its own seeded arrival process and key space -- that round-trips
losslessly through JSON and hashes to a stable content key.  New
scenarios become spec values instead of new experiment modules, and a
serialized spec is a complete, reproducible description of a run (the
simulators are deterministic, so spec + measurements => identical
results, bit for bit).

Layering: this module only *describes* scenarios; :mod:`repro.serve.tenancy`
executes them, and :mod:`repro.serve.trace` records/reloads the merged
arrival timeline.  Specs deliberately reuse the existing pure pieces --
:class:`~repro.serve.router.RouterPolicy`, :class:`~repro.serve.faults.FaultConfig`,
the :mod:`repro.serve.arrivals` generators, the Zipf hotspot sampler
behind ``ext_skew`` -- so a degenerate single-tenant spec reproduces
today's :func:`~repro.serve.cluster.simulate_cluster` runs byte-identically
(``tests/test_tenancy_differential.py`` pins this).

SLO classes order tenants by how much the router protects them:
**gold** (never shed by default), **silver**, **bronze** (first to go
under pressure).  The admission thresholds live in
:class:`AdmissionSpec`; the pure shedding rule that applies them is
:func:`repro.serve.tenancy.should_shed`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.records import OMIT_DEFAULT, Record
from repro.serve.arrivals import (
    bursty_arrivals,
    diurnal_arrivals,
    flash_crowd_arrivals,
    poisson_arrivals,
)
from repro.serve.faults import FaultConfig
from repro.serve.reconfig import ReconfigSpec
from repro.serve.router import RouterPolicy

#: Bump when spec semantics change meaning (new fields with changed
#: defaults, different sampling streams); content keys then differ.
SCENARIO_SCHEMA_VERSION = 1

GOLD = "gold"
SILVER = "silver"
BRONZE = "bronze"
#: Protection order, most protected first.
SLO_CLASSES = (GOLD, SILVER, BRONZE)

#: Arrival shapes a spec may name, with their admissible knobs.
ARRIVAL_SHAPES: Dict[str, Tuple[str, ...]] = {
    "poisson": (),
    "bursty": ("burst_factor", "burst_fraction", "period_requests"),
    "diurnal": ("peak_to_trough", "period_requests"),
    "flash": ("spike_factor", "spike_start_request", "spike_len_requests"),
}

#: Arrival knobs that are request counts/indices, held as ints (a
#: hand-written spec may spell 100 as 100.0).
_INT_PARAMS = frozenset(
    ["period_requests", "spike_start_request", "spike_len_requests"]
)


@dataclass(frozen=True)
class ArrivalSpec(Record):
    """One tenant's seeded open-loop arrival process, as data.

    ``params`` holds the shape-specific knobs as sorted ``(name, value)``
    pairs (hashable, JSON-able); unknown knobs for the shape are
    rejected, and request-count knobs are held as ints.
    :meth:`generate` dispatches to the matching
    :mod:`repro.serve.arrivals` generator, so every documented property
    of those (seed determinism, horizon purity, rate scaling over one
    fixed gap sequence) carries over to specs verbatim.
    """

    rate_per_sec: float
    n_requests: int
    seed: int = 0
    shape: str = "poisson"
    params: Tuple[Tuple[str, float], ...] = ()

    def __post_init__(self):
        if self.shape not in ARRIVAL_SHAPES:
            raise ValueError(
                f"unknown arrival shape {self.shape!r}; "
                f"known: {', '.join(sorted(ARRIVAL_SHAPES))}"
            )
        if self.rate_per_sec <= 0.0:
            raise ValueError(
                f"rate must be positive, got {self.rate_per_sec}"
            )
        if self.n_requests < 1:
            raise ValueError(
                f"need at least one request, got {self.n_requests}"
            )
        allowed = ARRIVAL_SHAPES[self.shape]
        frozen = tuple(
            sorted(
                (str(k), int(v) if k in _INT_PARAMS else v)
                for k, v in self.params
            )
        )
        for name, _ in frozen:
            if name not in allowed:
                raise ValueError(
                    f"unknown param {name!r} for shape {self.shape!r}; "
                    f"allowed: {allowed}"
                )
        object.__setattr__(self, "params", frozen)

    def param_dict(self) -> dict:
        return dict(self.params)

    def generate(self) -> List[float]:
        """Absolute arrival timestamps (ns), a pure function of the spec."""
        kwargs = self.param_dict()
        if self.shape == "poisson":
            return poisson_arrivals(self.rate_per_sec, self.n_requests, self.seed)
        if self.shape == "bursty":
            return bursty_arrivals(
                self.rate_per_sec, self.n_requests, self.seed, **kwargs
            )
        if self.shape == "diurnal":
            return diurnal_arrivals(
                self.rate_per_sec, self.n_requests, self.seed, **kwargs
            )
        return flash_crowd_arrivals(
            self.rate_per_sec, self.n_requests, self.seed, **kwargs
        )


@dataclass(frozen=True)
class KeySpaceSpec(Record):
    """Which keys a tenant looks up: a sub-range of the served sorted
    array, optionally with a Zipfian hotspot.

    ``lo_frac``/``hi_frac`` bound the tenant's slice of the key array
    (fractions of its length, so the spec is dataset-size-free).
    ``hot_theta`` switches uniform sampling within the slice to the
    YCSB-style Zipf sampler behind ``ext_skew`` (hot keys spread over
    the slice by a seeded permutation).  The degenerate full-range
    uniform spec samples *exactly* like
    :func:`repro.serve.router.request_keys` -- same stream constants,
    same draws -- which the differential tests rely on.
    """

    lo_frac: float = 0.0
    hi_frac: float = 1.0
    hot_theta: Optional[float] = None
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.lo_frac < self.hi_frac <= 1.0:
            raise ValueError(
                "need 0 <= lo_frac < hi_frac <= 1, got "
                f"[{self.lo_frac}, {self.hi_frac})"
            )
        if self.hot_theta is not None and not 0.0 < self.hot_theta < 10.0:
            raise ValueError(
                f"hot_theta must be in (0, 10), got {self.hot_theta}"
            )

    def bounds(self, n_keys: int) -> Tuple[int, int]:
        """Index range [lo, hi) of this tenant's slice; never empty."""
        if n_keys < 1:
            raise ValueError(f"need at least one key, got {n_keys}")
        lo = min(int(self.lo_frac * n_keys), n_keys - 1)
        hi = max(min(int(round(self.hi_frac * n_keys)), n_keys), lo + 1)
        return lo, hi

    def sample(self, keys, n_requests: int) -> List[int]:
        """``n_requests`` seeded lookup keys from this key space."""
        if n_requests < 1:
            raise ValueError(
                f"need at least one request, got {n_requests}"
            )
        lo, hi = self.bounds(len(keys))
        seed64 = self.seed & (2**63 - 1)
        if self.hot_theta is None:
            # Stream-compatible with router.request_keys: at the full
            # range this is the identical call sequence.
            rng = np.random.default_rng((seed64, 0x50A7))
            idx = lo + rng.integers(0, hi - lo, size=n_requests)
        else:
            # ext_skew's hotspot machinery: Zipfian ranks over the
            # slice, rank -> position shuffled so hot keys spread out.
            from repro.datasets.workload import _zipf_ranks

            rng = np.random.default_rng((seed64, 0x50A7, 0x21F))
            ranks = _zipf_ranks(rng, hi - lo, n_requests, self.hot_theta)
            perm = rng.permutation(hi - lo)
            idx = lo + perm[ranks]
        return [int(keys[i]) for i in idx]


@dataclass(frozen=True)
class TenantSpec(Record):
    """One workload sharing the cluster: identity, traffic, keys, SLO."""

    name: str
    arrivals: ArrivalSpec
    keyspace: KeySpaceSpec = field(default_factory=KeySpaceSpec)
    slo_class: str = GOLD
    #: Per-tenant p99 target (ns); None = no target, no violation
    #: accounting for this tenant.
    p99_slo_ns: Optional[float] = None

    def __post_init__(self):
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.slo_class not in SLO_CLASSES:
            raise ValueError(
                f"unknown SLO class {self.slo_class!r}; "
                f"known: {', '.join(SLO_CLASSES)}"
            )
        if self.p99_slo_ns is not None and self.p99_slo_ns <= 0.0:
            raise ValueError(
                f"p99_slo_ns must be positive, got {self.p99_slo_ns}"
            )


@dataclass(frozen=True)
class TopologySpec(Record):
    """Cluster shape: key-range shards x replicas x cores per replica."""

    n_shards: int = 1
    n_replicas: int = 1
    n_cores: int = 2

    def __post_init__(self):
        for name in ("n_shards", "n_replicas", "n_cores"):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"{name} must be >= 1, got {getattr(self, name)}"
                )


@dataclass(frozen=True)
class AdmissionSpec(Record):
    """Router-level admission control: per-class queue-depth thresholds.

    A request of class ``c`` is *shed* (rejected at dispatch, never
    queued) when its shard's backlog -- queued plus in-service attempts
    over all replicas, the same quantity the queue-depth gauges track --
    is at or above the class's threshold.  ``None`` means the class is
    never shed; the defaults protect gold absolutely and shed bronze
    well before silver.  The decision itself is the pure function
    :func:`repro.serve.tenancy.should_shed` of (this spec, class,
    backlog), per the determinism rules of :mod:`repro.serve.faults`.
    """

    enabled: bool = False
    gold_depth: Optional[int] = None
    silver_depth: Optional[int] = None
    bronze_depth: Optional[int] = None

    def __post_init__(self):
        for name in ("gold_depth", "silver_depth", "bronze_depth"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")

    def threshold(self, slo_class: str) -> Optional[int]:
        if slo_class not in SLO_CLASSES:
            raise ValueError(f"unknown SLO class {slo_class!r}")
        return getattr(self, f"{slo_class}_depth")


@dataclass(frozen=True)
class ScenarioSpec(Record):
    """A complete multi-tenant serving scenario, as one JSON-able value.

    Composes arrivals x topology x faults x tenants x router policy x
    admission control.  Tenant names must be unique; tenant order is
    significant (it breaks simultaneous-arrival ties in the merged
    timeline, and tenant ids in traces index into it).
    """

    SCHEMA = SCENARIO_SCHEMA_VERSION

    name: str
    tenants: Tuple[TenantSpec, ...]
    topology: TopologySpec = field(default_factory=TopologySpec)
    #: Router failure policy; the default is the degenerate policy (no
    #: hedging, no batching), so the zero-value spec reproduces the
    #: zero-value cluster.
    policy: RouterPolicy = field(default_factory=RouterPolicy)
    #: Fault processes; the all-defaults config injects nothing, which
    #: :class:`~repro.serve.cluster.Cluster` treats like no faults.
    faults: FaultConfig = field(default_factory=FaultConfig)
    admission: AdmissionSpec = field(default_factory=AdmissionSpec)
    #: Fault-schedule horizon override (ns); None = the simulator's
    #: default (last arrival plus 25% drain slack).
    fault_horizon_ns: Optional[float] = None
    #: Live-reconfiguration plan (:mod:`repro.serve.reconfig`); None
    #: keeps the spec's serialized form -- and every derived content
    #: key -- exactly as before the field existed.
    reconfig: Optional[ReconfigSpec] = field(
        default=None, metadata=OMIT_DEFAULT
    )

    def __post_init__(self):
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        tenants = tuple(self.tenants)
        if not tenants:
            raise ValueError("need at least one tenant")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"tenant names must be unique: {names}")
        if self.fault_horizon_ns is not None and self.fault_horizon_ns <= 0.0:
            raise ValueError(
                f"fault_horizon_ns must be positive, got "
                f"{self.fault_horizon_ns}"
            )
        object.__setattr__(self, "tenants", tenants)

    @property
    def n_requests(self) -> int:
        return sum(t.arrivals.n_requests for t in self.tenants)

    def tenant_index(self, name: str) -> int:
        for i, t in enumerate(self.tenants):
            if t.name == name:
                return i
        raise KeyError(f"no tenant named {name!r}")

    def with_admission(self, admission: AdmissionSpec) -> "ScenarioSpec":
        """The same scenario under a different admission policy."""
        return replace(self, admission=admission)

    def with_reconfig(
        self, reconfig: Optional[ReconfigSpec]
    ) -> "ScenarioSpec":
        """The same scenario under a different reconfiguration plan."""
        return replace(self, reconfig=reconfig)


def single_tenant_spec(
    rate_per_sec: float,
    n_requests: int,
    seed: int = 0,
    name: str = "single",
    tenant: str = "t0",
    topology: TopologySpec = TopologySpec(),
    policy: RouterPolicy = RouterPolicy(),
    faults: FaultConfig = FaultConfig(),
    fault_horizon_ns: Optional[float] = None,
) -> ScenarioSpec:
    """The degenerate spec: one gold tenant, Poisson arrivals over the
    full key space, admission control off.

    This re-expresses today's ``ext_serving``/``ext_cluster`` runs as
    data: replayed through the tenancy layer it pushes *exactly* the
    arrival timestamps of ``poisson_arrivals(rate, n, seed)`` and the
    lookup keys of ``request_keys(keys, n, seed)``, so the result is
    byte-identical to the equivalent direct
    :func:`~repro.serve.cluster.simulate_cluster` call.
    """
    return ScenarioSpec(
        name=name,
        tenants=(
            TenantSpec(
                name=tenant,
                arrivals=ArrivalSpec(
                    rate_per_sec=rate_per_sec,
                    n_requests=n_requests,
                    seed=seed,
                ),
                keyspace=KeySpaceSpec(seed=seed),
            ),
        ),
        topology=topology,
        policy=policy,
        faults=faults,
        admission=AdmissionSpec(),
        fault_horizon_ns=fault_horizon_ns,
    )

"""The ``serve_mix`` workload: the serving stack driven as a library.

It calls ``repro.serve`` the way ``examples/`` do. :func:`setup` measures
the service models (real index builds on the simulated CPU) and is
counted as set-up time. :func:`run` is the timed part and returns one
:class:`Op` per simulate/select call. Each op has its own correctness
check and a digest of its result summary.

Every input is a pure function of the seed, so the same seed gives the
same digests. Loads stay below capacity, and every run checks its
conservation invariants, so no operation is expected to fail.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Dict, List

from repro import make_dataset, make_workload
from repro.bench import measure_index
from repro.serve import (
    AdmissionSpec,
    ArrivalSpec,
    AutoscaleSpec,
    Cluster,
    FaultConfig,
    KeySpaceSpec,
    ReconfigSpec,
    RouterPolicy,
    ScenarioSpec,
    ServiceModel,
    ShardMap,
    SplitSpec,
    TenantSpec,
    TopologySpec,
    poisson_arrivals,
    request_keys,
    select_cluster_under_slo,
    simulate_cluster,
    simulate_open_loop,
    simulate_scenario,
    summarize_result,
    throughput,
)

N_KEYS = 40_000
N_SHARDS = 4
N_REPLICAS = 2
N_CORES = 2
#: One size-sweep point per family, measured on every shard.
FAMILIES = (
    ("BTree", {"gap": 16}),
    ("PGM", {"epsilon": 64}),
    ("RMI", {"branching": 256}),
)
#: Offered load of the single-queue sweep, as fractions of capacity.
OPEN_LOADS = (0.5, 0.7, 0.85, 0.95)
OPEN_CORES = 4
#: Requests per call. Sized so the timed part takes a few seconds on
#: one core; `--smoke` divides them by SMOKE_DIVISOR.
N_OPEN = 40_000
N_CLUSTER = 20_000
N_TENANT = 20_000
N_SELECT = 10_000
SMOKE_DIVISOR = 20
_SHARD_SEED_STRIDE = 7919


@dataclass
class Op:
    """One simulate/select call: its check outcome and result digest."""

    name: str
    ok: bool
    digest: str
    detail: str = ""


@dataclass
class Context:
    seed: int
    scale: int
    keys: object
    shard_map: ShardMap
    measurements: Dict[str, list]
    services: Dict[str, List[ServiceModel]]


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def setup(seed: int, smoke: bool = False) -> Context:
    """Build the served key array and measure every (family, shard)."""
    dataset = make_dataset("amzn", N_KEYS, seed=seed)
    measurements: Dict[str, list] = {}
    for family, config in FAMILIES:
        per_shard = []
        for shard in range(N_SHARDS):
            shard_seed = seed + _SHARD_SEED_STRIDE * (shard + 1)
            shard_ds = make_dataset("amzn", N_KEYS // N_SHARDS, seed=shard_seed)
            workload = make_workload(shard_ds, 300, seed=shard_seed + 1)
            per_shard.append(
                measure_index(
                    shard_ds, workload, family, config,
                    n_lookups=200, warmup=100,
                )
            )
        measurements[family] = per_shard
    return Context(
        seed=seed,
        scale=SMOKE_DIVISOR if smoke else 1,
        keys=dataset.keys,
        shard_map=ShardMap.from_keys(dataset.keys, N_SHARDS),
        measurements=measurements,
        services={
            f: [ServiceModel.from_measurement(m) for m in ms]
            for f, ms in measurements.items()
        },
    )


def _capacity(ctx: Context, family: str) -> float:
    """Modelled saturated cluster rate, limited by the weakest shard."""
    weakest = min(
        throughput(m, N_CORES).lookups_per_sec
        for m in ctx.measurements[family]
    )
    return weakest * N_SHARDS * N_REPLICAS


def _run_op(name: str, fn: Callable[[], tuple]) -> Op:
    """Run one call; it fails if it raises or its check does not hold."""
    try:
        ok, payload, detail = fn()
    except Exception as exc:  # one failing call must not hide the others
        return Op(name, False, "", f"{type(exc).__name__}: {exc}")
    return Op(name, ok, _digest(payload), detail)


def _open_loop(ctx: Context) -> List[Op]:
    m = ctx.measurements["RMI"][0]
    service = ctx.services["RMI"][0]
    capacity = throughput(m, OPEN_CORES).lookups_per_sec
    n = N_OPEN // ctx.scale
    ops = []
    for i, load in enumerate(OPEN_LOADS):
        def call(load=load, i=i):
            arrivals = poisson_arrivals(load * capacity, n, seed=ctx.seed + i)
            r = simulate_open_loop(service, arrivals, OPEN_CORES)
            payload = dict(
                summarize_result(r).to_dict(),
                steals=r.total_steals,
                max_queue_depth=r.max_queue_depth,
            )
            ok = len(r.requests) == n
            return ok, payload, f"{len(r.requests)} of {n} served"
        ops.append(_run_op(f"open_loop.{load}", call))
    return ops


def _cluster_payload(r) -> dict:
    return {
        "summary": r.summary().to_dict() if r.completed else None,
        "completed": r.completed,
        "failed": r.failed,
        "retries": r.total_retries,
        "hedges": r.total_hedges,
        "crashes": r.crashes,
        "slow_events": r.slow_events,
        "max_queue_depth": r.max_queue_depth,
    }


def _cluster(ctx: Context) -> List[Op]:
    n = N_CLUSTER // ctx.scale
    offered = 0.55 * _capacity(ctx, "RMI")
    arrivals = poisson_arrivals(offered, n, seed=ctx.seed + 11)
    keys = request_keys(ctx.keys, n, seed=ctx.seed + 11)
    span = arrivals[-1]
    service_ns = max(s.service_ns(N_CORES) for s in ctx.services["RMI"])
    backoff = RouterPolicy(backoff_base_ns=span / 50, backoff_cap_ns=span / 5)
    scenarios = (
        ("none", backoff, None),
        (
            "crash+slow",
            backoff,
            FaultConfig(
                crash_mttf_ns=span / 2, crash_mttr_ns=span / 20,
                slow_mttf_ns=span / 2, slow_mttr_ns=span / 10,
                seed=ctx.seed,
            ),
        ),
        (
            "gray+hedge",
            RouterPolicy(
                hedge_after_ns=4.0 * service_ns,
                backoff_base_ns=span / 50, backoff_cap_ns=span / 5,
            ),
            FaultConfig(
                slow_mttf_ns=span / 3, slow_mttr_ns=span / 8,
                slow_factor=8.0, seed=ctx.seed + 1,
            ),
        ),
    )
    ops = []
    for label, policy, faults in scenarios:
        def call(policy=policy, faults=faults):
            cluster = Cluster(
                shard_map=ctx.shard_map,
                services=ctx.services["RMI"],
                n_replicas=N_REPLICAS,
                n_cores=N_CORES,
                policy=policy,
                faults=faults,
            )
            r = simulate_cluster(cluster, arrivals, keys)
            ok = len(r.records) == n and r.completed + r.failed == n
            return ok, _cluster_payload(r), (
                f"completed {r.completed} + failed {r.failed} of {n}"
            )
        ops.append(_run_op(f"cluster.{label}", call))
    return ops


def _tenant_spec(ctx: Context, offered: float, n: int) -> ScenarioSpec:
    slowest_ns = max(s.service_ns(N_CORES) for s in ctx.services["RMI"])
    seed = ctx.seed
    return ScenarioSpec(
        name="serve-mix-day",
        tenants=(
            TenantSpec(
                name="gold",
                slo_class="gold",
                p99_slo_ns=10.0 * slowest_ns,
                arrivals=ArrivalSpec(
                    rate_per_sec=0.5 * offered, n_requests=n // 2,
                    seed=seed + 101, shape="diurnal",
                ),
                keyspace=KeySpaceSpec(seed=seed + 101),
            ),
            TenantSpec(
                name="silver",
                slo_class="silver",
                arrivals=ArrivalSpec(
                    rate_per_sec=0.2 * offered, n_requests=n // 5,
                    seed=seed + 202, shape="bursty",
                ),
                keyspace=KeySpaceSpec(lo_frac=0.5, seed=seed + 202),
            ),
            TenantSpec(
                name="bronze",
                slo_class="bronze",
                arrivals=ArrivalSpec(
                    rate_per_sec=0.3 * offered, n_requests=n - n // 2 - n // 5,
                    seed=seed + 303, shape="flash",
                    params=(
                        ("spike_factor", 8.0),
                        ("spike_start_request", n // 10),
                        ("spike_len_requests", n // 5),
                    ),
                ),
                keyspace=KeySpaceSpec(
                    hi_frac=0.5, hot_theta=0.99, seed=seed + 303
                ),
            ),
        ),
        topology=TopologySpec(
            n_shards=N_SHARDS, n_replicas=N_REPLICAS, n_cores=N_CORES
        ),
    )


def _tenants(ctx: Context) -> List[Op]:
    n = N_TENANT // ctx.scale
    offered = 0.6 * _capacity(ctx, "RMI")
    base = _tenant_spec(ctx, offered, n)
    # The day's length: the slowest tenant's last arrival.
    span = max(t.arrivals.generate()[-1] for t in base.tenants)
    bounds = ctx.shard_map.lower_bounds
    managed = base.with_admission(
        AdmissionSpec(enabled=True, bronze_depth=6, silver_depth=18)
    ).with_reconfig(
        ReconfigSpec(
            splits=(
                SplitSpec(
                    at_ns=0.2 * span,
                    shard=0,
                    at_key=bounds[0] + (bounds[1] - bounds[0]) // 2,
                ),
            ),
            autoscale=AutoscaleSpec(
                interval_ns=span / 10, up_depth=4, down_depth=0,
                min_replicas=N_REPLICAS, max_replicas=4,
            ),
        )
    )
    ops = []
    for label, spec in (("admission_off", base), ("managed", managed)):
        def call(spec=spec):
            r = simulate_scenario(spec, ctx.services["RMI"], ctx.keys)
            ok = len(r.cluster.records) == spec.n_requests
            tenants = []
            for t in r.tenants:
                expected = spec.tenants[t.tenant].arrivals.n_requests
                ok = ok and t.requests == expected
                ok = ok and t.completed + t.failed + t.shed == t.requests
                summary = t.summary()
                tenants.append({
                    "name": t.name,
                    "requests": t.requests,
                    "completed": t.completed,
                    "failed": t.failed,
                    "shed": t.shed,
                    "retries": t.retries,
                    "summary": summary.to_dict() if summary else None,
                })
            payload = {
                "tenants": tenants,
                "epochs": r.cluster.epoch_count,
                "final_replicas": r.cluster.final_replicas,
            }
            return ok, payload, "completed + failed + shed == requests"
        ops.append(_run_op(f"tenants.{label}", call))
    return ops


def _select(ctx: Context) -> List[Op]:
    n = N_SELECT // ctx.scale
    offered = 0.5 * min(_capacity(ctx, f) for f, _ in FAMILIES)
    best_ns = min(
        m.latency_ns for ms in ctx.measurements.values() for m in ms
    )
    span = n / offered * 1e9

    def call():
        sel = select_cluster_under_slo(
            ctx.measurements,
            ctx.shard_map,
            ctx.keys,
            offered_per_sec=offered,
            p99_slo_ns=7.0 * best_ns,
            min_availability=0.9,
            n_requests=n,
            seed=ctx.seed + 31,
            n_replicas=N_REPLICAS,
            n_cores=N_CORES,
            faults=FaultConfig(
                crash_mttf_ns=span, crash_mttr_ns=span / 20, seed=ctx.seed
            ),
        )
        ok = len(sel.candidates) == len(FAMILIES) and all(
            0.0 <= c.availability <= 1.0 for c in sel.candidates
        )
        payload = {
            "chosen": sel.chosen.index if sel.chosen else None,
            "candidates": [
                {
                    "index": c.index,
                    "availability": c.availability,
                    "retries": c.total_retries,
                    "summary": c.summary.to_dict() if c.summary else None,
                }
                for c in sel.candidates
            ],
        }
        return ok, payload, f"{len(sel.candidates)} families evaluated"

    return [_run_op("select", call)]


def run(ctx: Context) -> List[Op]:
    """The timed part: every simulate/select call, in a fixed order."""
    return _open_loop(ctx) + _cluster(ctx) + _tenants(ctx) + _select(ctx)

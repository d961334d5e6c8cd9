"""Unit tests for declarative scenario specs: round trips, validation,
content keys, and the key-space sampler's stream compatibility."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.cache import scenario_key
from repro.serve.arrivals import (
    bursty_arrivals,
    diurnal_arrivals,
    flash_crowd_arrivals,
    poisson_arrivals,
)
from repro.serve.faults import FaultConfig
from repro.serve.router import RouterPolicy, request_keys
from repro.serve.reconfig import (
    AutoscaleSpec,
    MergeSpec,
    RebuildSpec,
    ReconfigSpec,
    SplitSpec,
)
from repro.serve.scenario import (
    AdmissionSpec,
    ArrivalSpec,
    KeySpaceSpec,
    ScenarioSpec,
    TenantSpec,
    TopologySpec,
    single_tenant_spec,
)


def rich_spec() -> ScenarioSpec:
    """A spec exercising every shape, knob and optional field."""
    return ScenarioSpec(
        name="rich",
        tenants=(
            TenantSpec(
                name="gold",
                slo_class="gold",
                arrivals=ArrivalSpec(
                    rate_per_sec=5e5,
                    n_requests=300,
                    seed=1,
                    shape="diurnal",
                    params=(("peak_to_trough", 2.5), ("period_requests", 60)),
                ),
                keyspace=KeySpaceSpec(seed=1),
                p99_slo_ns=4e6,
            ),
            TenantSpec(
                name="silver",
                slo_class="silver",
                arrivals=ArrivalSpec(
                    rate_per_sec=2e5, n_requests=200, seed=2, shape="bursty"
                ),
                keyspace=KeySpaceSpec(lo_frac=0.5, hi_frac=1.0, seed=2),
            ),
            TenantSpec(
                name="bronze",
                slo_class="bronze",
                arrivals=ArrivalSpec(
                    rate_per_sec=3e5,
                    n_requests=400,
                    seed=3,
                    shape="flash",
                    params=(
                        ("spike_factor", 9.0),
                        ("spike_start_request", 50),
                        ("spike_len_requests", 120),
                    ),
                ),
                keyspace=KeySpaceSpec(
                    lo_frac=0.0, hi_frac=0.5, hot_theta=0.9, seed=3
                ),
            ),
        ),
        topology=TopologySpec(n_shards=4, n_replicas=2, n_cores=2),
        policy=RouterPolicy(hedge_after_ns=5e4, batch_window_ns=100.0),
        faults=FaultConfig(crash_mttf_ns=1e7, crash_mttr_ns=1e6, seed=9),
        admission=AdmissionSpec(
            enabled=True, bronze_depth=4, silver_depth=12
        ),
        fault_horizon_ns=5e7,
    )


class TestRoundTrip:
    def test_json_round_trip_is_lossless(self):
        spec = rich_spec()
        again = ScenarioSpec.from_json(spec.to_json())
        assert again == spec
        assert again.to_json() == spec.to_json()

    def test_indented_json_round_trips_too(self):
        spec = rich_spec()
        assert ScenarioSpec.from_json(spec.to_json(indent=2)) == spec

    def test_int_params_survive_json(self):
        """JSON numbers don't distinguish 60 from 60.0; generate() must
        see ints for request-count knobs after a round trip."""
        spec = rich_spec()
        again = ScenarioSpec.from_json(spec.to_json())
        params = again.tenants[0].arrivals.param_dict()
        assert params["period_requests"] == 60
        assert isinstance(params["period_requests"], int)
        assert again.tenants[0].arrivals.generate() == (
            spec.tenants[0].arrivals.generate()
        )

    def test_defaults_round_trip(self):
        spec = single_tenant_spec(rate_per_sec=1e5, n_requests=50)
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_schema_version_checked(self):
        d = rich_spec().to_dict()
        d["schema"] = 999
        with pytest.raises(ValueError, match="schema"):
            ScenarioSpec.from_dict(d)

    def test_missing_schema_rejected(self):
        """A hand-written spec must say which layout it uses."""
        d = rich_spec().to_dict()
        del d["schema"]
        with pytest.raises(ValueError, match="schema"):
            ScenarioSpec.from_dict(d)

    def test_misspelled_field_rejected(self):
        """A typo must not silently fall back to the field's default."""
        spec = single_tenant_spec(
            1e5, 50, topology=TopologySpec(n_shards=4)
        )
        d = spec.to_dict()
        d["topolgy"] = d.pop("topology")
        with pytest.raises(ValueError, match="topolgy"):
            ScenarioSpec.from_dict(d)
        d = spec.to_dict()
        tenant = d["tenants"][0]
        tenant["keyspac"] = tenant.pop("keyspace")
        with pytest.raises(ValueError, match="keyspac"):
            ScenarioSpec.from_dict(d)

    def test_numbers_keep_their_type(self):
        """A reloaded spec hashes like the original, so a serialized spec
        re-run later hits the cache."""
        spec = single_tenant_spec(rate_per_sec=100000, n_requests=50)
        again = ScenarioSpec.from_json(spec.to_json())
        assert again == spec
        assert again.content_key() == spec.content_key()
        assert scenario_key(again) == scenario_key(spec)

    def test_wrong_types_rejected(self):
        d = rich_spec().to_dict()
        d["topology"]["n_shards"] = 2.0
        with pytest.raises(TypeError, match="n_shards"):
            ScenarioSpec.from_dict(d)
        d = rich_spec().to_dict()
        d["admission"]["enabled"] = 1
        with pytest.raises(TypeError, match="enabled"):
            ScenarioSpec.from_dict(d)


def pinned_spec() -> ScenarioSpec:
    """Every arrival shape with params (request counts as ints), a hot
    key space, admission, faults, hedging and a full reconfig plan."""
    return ScenarioSpec(
        name="pinned",
        tenants=(
            TenantSpec(
                name="p",
                slo_class="gold",
                arrivals=ArrivalSpec(rate_per_sec=4e5, n_requests=100, seed=1),
                p99_slo_ns=3e6,
            ),
            TenantSpec(
                name="b",
                slo_class="silver",
                arrivals=ArrivalSpec(
                    rate_per_sec=2e5,
                    n_requests=80,
                    seed=2,
                    shape="bursty",
                    params=(
                        ("burst_factor", 3.0),
                        ("burst_fraction", 0.25),
                        ("period_requests", 40),
                    ),
                ),
                keyspace=KeySpaceSpec(lo_frac=0.25, hi_frac=0.75, seed=2),
            ),
            TenantSpec(
                name="d",
                slo_class="silver",
                arrivals=ArrivalSpec(
                    rate_per_sec=3e5,
                    n_requests=90,
                    seed=3,
                    shape="diurnal",
                    params=(("peak_to_trough", 2.5), ("period_requests", 30)),
                ),
            ),
            TenantSpec(
                name="f",
                slo_class="bronze",
                arrivals=ArrivalSpec(
                    rate_per_sec=1e5,
                    n_requests=120,
                    seed=4,
                    shape="flash",
                    params=(
                        ("spike_factor", 6.0),
                        ("spike_start_request", 20),
                        ("spike_len_requests", 30),
                    ),
                ),
                keyspace=KeySpaceSpec(hi_frac=0.5, hot_theta=0.99, seed=4),
            ),
        ),
        topology=TopologySpec(n_shards=2, n_replicas=2, n_cores=2),
        policy=RouterPolicy(
            hedge_after_ns=4e4, max_attempts=3, batch_window_ns=50.0
        ),
        faults=FaultConfig(
            crash_mttf_ns=2e6,
            crash_mttr_ns=1e5,
            slow_mttf_ns=3e6,
            slow_factor=5.0,
            seed=7,
        ),
        admission=AdmissionSpec(enabled=True, silver_depth=10, bronze_depth=4),
        fault_horizon_ns=1e7,
        reconfig=ReconfigSpec(
            splits=(SplitSpec(at_ns=2e5, shard=0, at_key=1234),),
            merges=(MergeSpec(at_ns=6e5, shard=1),),
            rebuilds=(
                RebuildSpec(
                    at_ns=3e5, shard=1, replica=0, build_ns=1e5, speedup=1.5
                ),
            ),
            autoscale=AutoscaleSpec(
                interval_ns=1e5,
                up_depth=6,
                down_depth=1,
                min_replicas=2,
                max_replicas=4,
                up_p99_ns=5e4,
            ),
        ),
    )


class TestContentKey:
    def test_rich_key_is_pinned(self):
        """Cached scenario runs replay only while these hold."""
        spec = pinned_spec()
        assert spec.content_key() == (
            "532ac2dcd9bf2fc3f2d69a64900a11b2ec6730e1"
        )
        assert scenario_key(spec) == (
            "7d7969323ab72ce6d34cb8d3ff02ebcc4efbd55a"
        )
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_stable_across_round_trip(self):
        spec = rich_spec()
        again = ScenarioSpec.from_json(spec.to_json())
        assert again.content_key() == spec.content_key()
        assert scenario_key(again) == scenario_key(spec)

    def test_sensitive_to_every_layer(self):
        base = rich_spec()
        variants = [
            base.with_admission(AdmissionSpec(enabled=True, bronze_depth=5)),
            ScenarioSpec.from_dict(
                {**base.to_dict(), "name": "other"}
            ),
            ScenarioSpec.from_dict(
                {**base.to_dict(), "fault_horizon_ns": 6e7}
            ),
        ]
        keys = {base.content_key()} | {v.content_key() for v in variants}
        assert len(keys) == 1 + len(variants)

    def test_scenario_key_versioned_separately(self):
        spec = rich_spec()
        assert scenario_key(spec) != spec.content_key()
        assert scenario_key(spec) != scenario_key(spec, schema_version=2)


class TestValidation:
    def test_unknown_shape(self):
        with pytest.raises(ValueError, match="shape"):
            ArrivalSpec(rate_per_sec=1e5, n_requests=10, shape="square")

    def test_param_must_match_shape(self):
        with pytest.raises(ValueError, match="param"):
            ArrivalSpec(
                rate_per_sec=1e5,
                n_requests=10,
                shape="poisson",
                params=(("spike_factor", 2.0),),
            )

    def test_rate_and_count_positive(self):
        with pytest.raises(ValueError):
            ArrivalSpec(rate_per_sec=0.0, n_requests=10)
        with pytest.raises(ValueError):
            ArrivalSpec(rate_per_sec=1e5, n_requests=0)

    def test_keyspace_fractions(self):
        with pytest.raises(ValueError):
            KeySpaceSpec(lo_frac=0.5, hi_frac=0.5)
        with pytest.raises(ValueError):
            KeySpaceSpec(lo_frac=-0.1, hi_frac=1.0)
        with pytest.raises(ValueError):
            KeySpaceSpec(hot_theta=0.0)

    def test_tenant_validation(self):
        arr = ArrivalSpec(rate_per_sec=1e5, n_requests=10)
        with pytest.raises(ValueError, match="SLO class"):
            TenantSpec(name="t", arrivals=arr, slo_class="platinum")
        with pytest.raises(ValueError, match="name"):
            TenantSpec(name="", arrivals=arr)
        with pytest.raises(ValueError):
            TenantSpec(name="t", arrivals=arr, p99_slo_ns=0.0)

    def test_scenario_requires_unique_tenants(self):
        arr = ArrivalSpec(rate_per_sec=1e5, n_requests=10)
        with pytest.raises(ValueError, match="unique"):
            ScenarioSpec(
                name="s",
                tenants=(
                    TenantSpec(name="t", arrivals=arr),
                    TenantSpec(name="t", arrivals=arr),
                ),
            )
        with pytest.raises(ValueError, match="tenant"):
            ScenarioSpec(name="s", tenants=())

    def test_topology_and_admission_bounds(self):
        with pytest.raises(ValueError):
            TopologySpec(n_shards=0)
        with pytest.raises(ValueError):
            AdmissionSpec(bronze_depth=0)
        with pytest.raises(ValueError, match="SLO class"):
            AdmissionSpec().threshold("platinum")

    def test_tenant_index(self):
        spec = rich_spec()
        assert spec.tenant_index("bronze") == 2
        with pytest.raises(KeyError):
            spec.tenant_index("nope")


class TestPolicyAndFaultBridges:
    """A spec holds the cluster's own :class:`RouterPolicy` and
    :class:`FaultConfig`, under the same JSON field names."""

    def test_policy_spec_round_trips_router_policy(self):
        policy = RouterPolicy(
            hedge_after_ns=123.0, max_attempts=3, batch_window_ns=7.0
        )
        spec = single_tenant_spec(1e5, 50, policy=policy)
        again = ScenarioSpec.from_json(spec.to_json())
        assert again.policy == policy
        assert spec.to_dict()["policy"] == {
            "hedge_after_ns": 123.0,
            "max_attempts": 3,
            "backoff_base_ns": 100_000.0,
            "backoff_cap_ns": 3_200_000.0,
            "batch_window_ns": 7.0,
        }

    def test_default_policy_is_degenerate(self):
        assert single_tenant_spec(1e5, 50).policy == RouterPolicy()
        d = single_tenant_spec(1e5, 50).to_dict()
        del d["policy"]
        assert ScenarioSpec.from_dict(d).policy == RouterPolicy()

    def test_fault_spec_round_trips_fault_config(self):
        config = FaultConfig(
            crash_mttf_ns=1e6, crash_mttr_ns=2e5, slow_mttf_ns=3e6, seed=4
        )
        spec = single_tenant_spec(1e5, 50, faults=config)
        assert ScenarioSpec.from_json(spec.to_json()).faults == config

    def test_disabled_faults_convert_to_none(self):
        """The default config injects nothing: a cluster given it runs
        exactly like one given no fault config at all."""
        from repro.memsim.counters import PerfCountersF
        from repro.serve.cluster import Cluster, simulate_cluster
        from repro.serve.core import ServiceModel
        from repro.serve.router import ShardMap
        from repro.serve.sweep import ClusterRunStats

        spec = single_tenant_spec(1e5, 50)
        assert spec.faults == FaultConfig()
        assert not spec.faults.enabled

        def run(faults):
            cluster = Cluster(
                shard_map=ShardMap([0]),
                services=[ServiceModel(PerfCountersF(instructions=300))],
                n_replicas=2,
                n_cores=2,
                faults=faults,
            )
            result = simulate_cluster(
                cluster, poisson_arrivals(2e6, 200, 1), [7] * 200
            )
            return ClusterRunStats.from_result(result)

        assert run(spec.faults) == run(None)

    def test_invalid_knobs_rejected_at_spec_level(self):
        d = single_tenant_spec(1e5, 50).to_dict()
        d["policy"]["max_attempts"] = 0
        with pytest.raises(ValueError, match="max_attempts"):
            ScenarioSpec.from_dict(d)
        d = single_tenant_spec(1e5, 50).to_dict()
        d["faults"]["crash_mttf_ns"] = -1.0
        with pytest.raises(ValueError, match="crash_mttf_ns"):
            ScenarioSpec.from_dict(d)


class TestArrivalSpecGenerate:
    @pytest.mark.parametrize(
        "shape,params,reference",
        [
            ("poisson", (), lambda r, n, s: poisson_arrivals(r, n, s)),
            (
                "bursty",
                (("burst_factor", 3.0),),
                lambda r, n, s: bursty_arrivals(r, n, s, burst_factor=3.0),
            ),
            (
                "diurnal",
                (("period_requests", 40),),
                lambda r, n, s: diurnal_arrivals(r, n, s, period_requests=40),
            ),
            (
                "flash",
                (("spike_factor", 5.0),),
                lambda r, n, s: flash_crowd_arrivals(r, n, s, spike_factor=5.0),
            ),
        ],
    )
    def test_generate_matches_direct_call(self, shape, params, reference):
        spec = ArrivalSpec(
            rate_per_sec=2e5, n_requests=120, seed=7, shape=shape, params=params
        )
        assert spec.generate() == reference(2e5, 120, 7)


@pytest.fixture(scope="module")
def keys():
    raw = np.random.default_rng(0).integers(
        0, 2**50, size=4000, dtype=np.uint64
    )
    return np.unique(raw)


class TestKeySpaceSpec:
    def test_degenerate_sample_is_request_keys(self, keys):
        """Full-range uniform sampling must reproduce the router's
        request_keys stream exactly -- the byte-identity differential
        rests on this."""
        for seed in (0, 7, 42):
            spec = KeySpaceSpec(seed=seed)
            assert spec.sample(keys, 333) == request_keys(keys, 333, seed)

    def test_subrange_stays_in_bounds(self, keys):
        spec = KeySpaceSpec(lo_frac=0.25, hi_frac=0.5, seed=3)
        lo, hi = spec.bounds(len(keys))
        sampled = spec.sample(keys, 500)
        lo_key, hi_key = int(keys[lo]), int(keys[hi - 1])
        assert all(lo_key <= k <= hi_key for k in sampled)

    def test_hotspot_deterministic_and_in_bounds(self, keys):
        spec = KeySpaceSpec(lo_frac=0.0, hi_frac=0.5, hot_theta=0.99, seed=5)
        a = spec.sample(keys, 400)
        assert a == spec.sample(keys, 400)
        lo, hi = spec.bounds(len(keys))
        allowed = set(int(k) for k in keys[lo:hi])
        assert set(a) <= allowed

    def test_hotspot_concentrates_mass(self, keys):
        """Zipf sampling must visibly concentrate on few keys compared
        to uniform over the same slice."""
        from collections import Counter

        hot = KeySpaceSpec(hi_frac=0.5, hot_theta=0.99, seed=5)
        cold = KeySpaceSpec(hi_frac=0.5, seed=5)
        top_hot = Counter(hot.sample(keys, 2000)).most_common(1)[0][1]
        top_cold = Counter(cold.sample(keys, 2000)).most_common(1)[0][1]
        assert top_hot > 4 * top_cold

    def test_bounds_never_empty(self):
        spec = KeySpaceSpec(lo_frac=0.99, hi_frac=1.0)
        lo, hi = spec.bounds(10)
        assert hi > lo
        with pytest.raises(ValueError):
            spec.bounds(0)

    def test_sample_requires_requests(self, keys):
        with pytest.raises(ValueError):
            KeySpaceSpec().sample(keys, 0)

"""Property tests for live reconfiguration (:mod:`repro.serve.reconfig`).

The contract the differential and determinism suites rest on:

* **Total, non-overlapping partition.**  Every :class:`ShardEpoch` --
  the initial one and every one a split or merge produces -- covers the
  whole key space with strictly-increasing bounds and unique owners, so
  ``shard_for`` maps every key to exactly one shard.
* **Split/merge round-trip.**  ``ShardMap.split`` is inverted by
  ``merge`` of the same shard, and the epoch a split+merge pair leaves
  behind owns the original ranges.
* **Epoch monotonicity.**  Versions on a run's epoch history are
  ``0, 1, 2, ...`` with non-decreasing install times.
* **Schedule determinism and horizon purity.**  Per the
  :mod:`repro.serve.faults` doctrine, :func:`reconfig_schedule` is a
  pure function of (spec, topology, horizon), and a shorter horizon's
  schedule is byte-identical to the prefix of a longer one's.
"""

from __future__ import annotations

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim.counters import PerfCountersF
from repro.serve.arrivals import poisson_arrivals
from repro.serve.cluster import Cluster, simulate_cluster
from repro.serve.core import ServiceModel
from repro.serve.reconfig import (
    AutoscaleSpec,
    MergeSpec,
    RebuildSpec,
    ReconfigSpec,
    ShardEpoch,
    SplitSpec,
    autoscale_decision,
    reconfig_schedule,
)
from repro.serve.router import RouterPolicy, ShardMap

_SEEDS = st.integers(min_value=0, max_value=2**31 - 1)

# Strictly increasing lower bounds with room to split every range.
_BOUNDS = st.lists(
    st.integers(min_value=0, max_value=2**40), min_size=1, max_size=6,
    unique=True,
).map(sorted)


def counters():
    return PerfCountersF(
        instructions=50, branch_misses=1.0, llc_misses=3.0, l1_hits=4.0
    )


def splittable(bounds):
    """Shard indices with a key strictly inside their range."""
    return [
        i
        for i in range(len(bounds) - 1)
        if bounds[i] + 1 < bounds[i + 1]
    ]


class TestPartition:
    @given(bounds=_BOUNDS, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_split_preserves_total_partition(self, bounds, data):
        m = ShardMap(bounds)
        epoch = ShardEpoch(
            version=0,
            time_ns=0.0,
            bounds=tuple(m.lower_bounds),
            owners=tuple(range(m.n_shards)),
        )
        next_sid = m.n_shards
        # Apply a random chain of valid splits, maintaining the epoch
        # exactly as ReconfigRuntime does (new sim-shard id appended,
        # never renumbered).
        for _ in range(data.draw(st.integers(min_value=0, max_value=3))):
            cands = splittable(list(epoch.bounds))
            if not cands:
                break
            i = data.draw(st.sampled_from(cands))
            lo, hi = epoch.bounds[i], epoch.bounds[i + 1]
            at = data.draw(
                st.integers(min_value=lo + 1, max_value=hi - 1)
            )
            new_bounds = ShardMap(list(epoch.bounds)).split(i, at)
            owners = list(epoch.owners)
            owners.insert(i + 1, next_sid)
            next_sid += 1
            epoch = ShardEpoch(
                version=epoch.version + 1,
                time_ns=epoch.time_ns,
                bounds=tuple(new_bounds.lower_bounds),
                owners=tuple(owners),
            )
        # Totality + non-overlap: strictly increasing bounds, unique
        # owners, and every probe key resolves to exactly one range.
        assert list(epoch.bounds) == sorted(set(epoch.bounds))
        assert len(set(epoch.owners)) == len(epoch.owners)
        assert len(epoch.owners) == epoch.n_ranges
        probes = {epoch.bounds[0], epoch.bounds[-1], 0, 2**40}
        for b in epoch.bounds:
            probes.update((b, b - 1, b + 1))
        for key in probes:
            owner = epoch.shard_for(key)
            assert owner in epoch.owners
            i = epoch.owners.index(owner)
            lo = epoch.bounds[i]
            hi = epoch.bounds[i + 1] if i + 1 < epoch.n_ranges else None
            # Keys below the first bound route to range 0 (total map).
            if key >= epoch.bounds[0]:
                assert key >= lo and (hi is None or key < hi)

    @given(bounds=_BOUNDS, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_split_then_merge_roundtrips(self, bounds, data):
        m = ShardMap(bounds)
        cands = splittable(bounds)
        if not cands:
            return
        i = data.draw(st.sampled_from(cands))
        at = data.draw(
            st.integers(
                min_value=bounds[i] + 1, max_value=bounds[i + 1] - 1
            )
        )
        assert m.split(i, at).merge(i) == m
        assert m.split(i, at) != m


class TestEpochMonotonicity:
    def run_with(self, spec, seed=3):
        cluster = Cluster(
            shard_map=ShardMap([0, 1000, 2000]),
            services=[ServiceModel(counters()) for _ in range(3)],
            n_replicas=2,
            n_cores=2,
            policy=RouterPolicy(),
            faults=None,
            reconfig=spec,
        )
        arrivals = poisson_arrivals(6e6, 300, seed=seed)
        keys = [((i * 37) % 3000) for i in range(300)]
        return simulate_cluster(cluster, arrivals, keys)

    def test_versions_strictly_monotone(self):
        span = 300 / 6e6 * 1e9
        spec = ReconfigSpec(
            splits=(SplitSpec(at_ns=0.2 * span, shard=0, at_key=500),),
            merges=(MergeSpec(at_ns=0.6 * span, shard=0),),
        )
        result = self.run_with(spec)
        versions = [e.version for e in result.epochs]
        times = [e.time_ns for e in result.epochs]
        assert versions == list(range(len(versions)))
        assert len(versions) == 3  # initial + split + merge
        assert times == sorted(times)
        # The merge undoes the split: final epoch owns the original map.
        assert result.epochs[-1].bounds == result.epochs[0].bounds
        assert result.epochs[-1].owners == result.epochs[0].owners


class TestScheduleDeterminism:
    def spec(self, span):
        return ReconfigSpec(
            splits=(SplitSpec(at_ns=0.25 * span, shard=0, at_key=7),),
            rebuilds=(
                RebuildSpec(
                    at_ns=0.5 * span,
                    shard=1,
                    replica=0,
                    build_ns=0.1 * span,
                ),
            ),
            autoscale=AutoscaleSpec(interval_ns=span / 10, up_depth=4),
        )

    @given(
        span=st.floats(min_value=1e3, max_value=1e9),
        frac=st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_horizon_prefix_purity(self, span, frac):
        spec = self.spec(span)
        full = reconfig_schedule(spec, 4, 2, span)
        short = reconfig_schedule(spec, 4, 2, frac * span)
        assert full[: len(short)] == short
        assert all(ev.time_ns < frac * span for ev in short)

    @given(span=st.floats(min_value=1e3, max_value=1e9), seed=_SEEDS)
    @settings(max_examples=30, deadline=None)
    def test_schedule_is_pure(self, span, seed):
        # No hidden state: two calls (and a rebuilt spec from JSON)
        # produce the identical event list.
        spec = self.spec(span)
        again = ReconfigSpec.from_json(spec.to_json())
        assert reconfig_schedule(spec, 4, 2, span) == reconfig_schedule(
            again, 4, 2, span
        )

    def test_schedule_sorted_and_filtered(self):
        spec = self.spec(1e6)
        events = reconfig_schedule(spec, 4, 2, 1e6)
        keyed = [(ev.time_ns,) for ev in events]
        assert keyed == sorted(keyed)
        assert all(0.0 <= ev.time_ns < 1e6 for ev in events)
        # Autoscale ticks at k * interval for k >= 1.
        ticks = [ev for ev in events if ev.kind == "autoscale"]
        assert len(ticks) == 9


class TestAutoscaleDecision:
    @given(
        backlog=st.integers(min_value=0, max_value=50),
        live=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_decision_bounded_and_pure(self, backlog, live):
        spec = AutoscaleSpec(
            interval_ns=1e3,
            up_depth=6,
            down_depth=0,
            min_replicas=2,
            max_replicas=4,
        )
        d = autoscale_decision(spec, backlog, None, live)
        assert d == autoscale_decision(spec, backlog, None, live)
        assert d in (-1, 0, 1)
        if d == 1:
            assert backlog >= 6 and live < 4
        if d == -1:
            assert backlog == 0 and live > 2

    def test_p99_trigger(self):
        spec = AutoscaleSpec(
            interval_ns=1e3, up_depth=100, up_p99_ns=500.0, max_replicas=4
        )
        assert autoscale_decision(spec, 0, 600.0, 2) == 1
        assert autoscale_decision(spec, 0, 400.0, 2) in (0, -1)
        assert autoscale_decision(spec, 0, None, 2) in (0, -1)


class TestRuntimeEdges:
    def run_with(self, spec, n=300, rate=6e6):
        cluster = Cluster(
            shard_map=ShardMap([0, 1000]),
            services=[ServiceModel(counters()) for _ in range(2)],
            n_replicas=2,
            n_cores=2,
            policy=RouterPolicy(),
            faults=None,
            reconfig=spec,
        )
        arrivals = poisson_arrivals(rate, n, seed=3)
        keys = [((i * 37) % 2000) for i in range(n)]
        return simulate_cluster(cluster, arrivals, keys)

    def test_p99_autoscale_trigger_scales_up(self):
        # An absurdly low p99 threshold: every tick looks overloaded, so
        # the latency-collection path drives the scale-ups.
        span = 300 / 6e6 * 1e9
        spec = ReconfigSpec(
            autoscale=AutoscaleSpec(
                interval_ns=span / 10,
                up_depth=10_000,
                up_p99_ns=1.0,
                min_replicas=2,
                max_replicas=3,
            )
        )
        result = self.run_with(spec)
        # The p99 path fires scale-ups (idle ticks may scale back down:
        # no completions since the last tick means p99 is unknown).
        assert any(d == 1 for _, _, d in result.scale_events)
        assert 4 <= result.live_replicas <= 6  # within [min, max] bounds

    def test_split_out_of_range_raises(self):
        span = 300 / 6e6 * 1e9
        spec = ReconfigSpec(
            splits=(SplitSpec(at_ns=0.2 * span, shard=5, at_key=500),)
        )
        with pytest.raises(ValueError, match="split targets"):
            self.run_with(spec)


class TestSpecValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            lambda: SplitSpec(at_ns=-1.0, shard=0, at_key=5),
            lambda: SplitSpec(at_ns=1.0, shard=-1, at_key=5),
            lambda: MergeSpec(at_ns=-1.0, shard=0),
            lambda: MergeSpec(at_ns=1.0, shard=-1),
            lambda: RebuildSpec(at_ns=-1.0, shard=0, replica=0, build_ns=1.0),
            lambda: RebuildSpec(at_ns=1.0, shard=-1, replica=0, build_ns=1.0),
            lambda: RebuildSpec(at_ns=1.0, shard=0, replica=0, build_ns=0.0),
            lambda: RebuildSpec(
                at_ns=1.0, shard=0, replica=0, build_ns=1.0, speedup=0.0
            ),
            lambda: AutoscaleSpec(interval_ns=0.0, up_depth=4),
            lambda: AutoscaleSpec(interval_ns=1.0, up_depth=0),
            lambda: AutoscaleSpec(interval_ns=1.0, up_depth=4, down_depth=4),
            lambda: AutoscaleSpec(interval_ns=1.0, up_depth=4, min_replicas=0),
            lambda: AutoscaleSpec(
                interval_ns=1.0, up_depth=4, min_replicas=3, max_replicas=2
            ),
            lambda: AutoscaleSpec(interval_ns=1.0, up_depth=4, up_p99_ns=0.0),
        ],
    )
    def test_bad_field_values_rejected(self, bad):
        with pytest.raises(ValueError):
            bad()

    def test_schema_mismatch_rejected(self):
        d = ReconfigSpec(merges=(MergeSpec(at_ns=1.0, shard=0),)).to_dict()
        d["schema"] = 999
        with pytest.raises(ValueError, match="schema"):
            ReconfigSpec.from_dict(d)
        del d["schema"]
        with pytest.raises(ValueError, match="schema"):
            ReconfigSpec.from_dict(d)

    def test_content_key_is_pinned(self):
        """Cached reconfigured runs replay only while this holds."""
        spec = ReconfigSpec(
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
        )
        assert spec.content_key() == (
            "7c6c21f41a7132d4f9d249f2c1c939f7427754df"
        )
        # Fields added later stay out of the JSON form while unset.
        assert ReconfigSpec().to_dict() == {"schema": 1}
        assert "up_p99_ns" not in AutoscaleSpec(1e5, 6).to_dict()

    def test_nonpositive_horizon_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            reconfig_schedule(ReconfigSpec(), 2, 2, 0.0)

    def test_epoch_validation_and_dict(self):
        with pytest.raises(ValueError):
            ShardEpoch(
                version=0, time_ns=0.0, bounds=(0, 10), owners=(0,)
            )
        with pytest.raises(ValueError):
            ShardEpoch(
                version=0, time_ns=0.0, bounds=(0, 10), owners=(1, 1)
            )
        e = ShardEpoch(
            version=2, time_ns=5.0, bounds=(0, 10), owners=(0, 3)
        )
        assert e.to_dict() == {
            "version": 2,
            "time_ns": 5.0,
            "bounds": [0, 10],
            "owners": [0, 3],
        }

    def test_merge_and_autoscale_roundtrip(self):
        spec = ReconfigSpec(
            merges=(MergeSpec(at_ns=3.0, shard=1),),
            autoscale=AutoscaleSpec(
                interval_ns=2.0, up_depth=4, up_p99_ns=900.0
            ),
        )
        again = ReconfigSpec.from_json(spec.to_json())
        assert again == spec
        assert again.autoscale.up_p99_ns == 900.0
    def test_split_at_boundary_rejected(self):
        m = ShardMap([0, 100])
        with pytest.raises(ValueError):
            m.split(0, 0)
        with pytest.raises(ValueError):
            m.split(0, 100)
        with pytest.raises(ValueError):
            m.merge(1)  # no right neighbour

    def test_schedule_rejects_bad_rebuild_target(self):
        spec = ReconfigSpec(
            rebuilds=(
                RebuildSpec(at_ns=10.0, shard=5, replica=0, build_ns=1.0),
            )
        )
        with pytest.raises(ValueError):
            reconfig_schedule(spec, 2, 2, 1e6)

    def test_roundtrip_and_content_key(self):
        span = 1e6
        spec = ReconfigSpec(
            splits=(SplitSpec(at_ns=0.2 * span, shard=0, at_key=42),),
            autoscale=AutoscaleSpec(interval_ns=span / 8, up_depth=6),
        )
        again = ReconfigSpec.from_json(spec.to_json())
        assert again == spec
        assert again.content_key() == spec.content_key()
        assert ReconfigSpec().enabled is False
        assert spec.enabled is True

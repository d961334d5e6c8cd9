"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import make_dataset, make_workload
from repro.memsim import AddressSpace, FastEngine, TracedArray, TraceRecorder
from serve_reference import EVENT_QUEUES, use_event_queue


@pytest.fixture(scope="session")
def amzn_small():
    return make_dataset("amzn", 5_000, seed=3)


@pytest.fixture(scope="session")
def osm_small():
    return make_dataset("osm", 5_000, seed=3)


@pytest.fixture(scope="session")
def all_datasets_small():
    return {
        name: make_dataset(name, 4_000, seed=5)
        for name in ("amzn", "face", "osm", "wiki")
    }


@pytest.fixture()
def amzn_workload(amzn_small):
    return make_workload(amzn_small, 400, seed=11, mode="mixed")


@pytest.fixture()
def traced_keys(amzn_small):
    """(space, data TracedArray) pair over the small amzn dataset."""
    space = AddressSpace()
    data = TracedArray.allocate(space, amzn_small.keys, name="data")
    return space, data


def build(name, dataset, **config):
    """Helper: build an index over a dataset in a fresh space."""
    from repro.core import make_index

    space = AddressSpace()
    data = TracedArray.allocate(space, dataset.keys, name="data")
    return make_index(name, **config).build(data, space)


def mirror_built(arr):
    """Whether ``arr`` holds its list mirror; never builds it.

    ``object.__getattribute__`` reads the slot itself, past any hook the
    class could add to build the mirror on access.
    """
    try:
        object.__getattribute__(arr, "_py")
    except AttributeError:
        return False
    return True


class ReplayedFastEngine:
    """A :class:`FastEngine` fed only through ``replay``.

    ``read``/``instr``/``branch`` are recorded; every observation
    (``snapshot``, ``flush_caches``, ``n_branch_sites``, ``replay``)
    first replays the events recorded since the last one as a single
    trace.  So the same event stream that a plain fast engine takes per
    call reaches this one through the replay path, in segments that
    start against live engine state.  The engine tests parametrize it
    under the id ``vector``.
    """

    name = "vector"

    def __init__(self, sites=None, **geometry):
        self._engine = FastEngine(sites=sites, **geometry)
        self.sites = self._engine.sites
        self._recorder = TraceRecorder(sites=self.sites)

    def read(self, addr, size=8):
        self._recorder.read(addr, size)

    def instr(self, n=1):
        self._recorder.instr(n)

    def branch(self, site, taken):
        self._recorder.branch(site, taken)

    def _synced(self):
        if len(self._recorder):
            trace = self._recorder.finish()
            self._recorder = TraceRecorder(sites=self.sites)
            self._engine.replay(trace)
        return self._engine

    def replay(self, trace):
        self._synced().replay(trace)

    def snapshot(self):
        return self._synced().snapshot()

    @property
    def counters(self):
        return self.snapshot()

    def flush_caches(self):
        self._synced().flush_caches()

    def n_branch_sites(self):
        return self._synced().n_branch_sites()


@pytest.fixture()
def extreme_probe_keys(amzn_small):
    keys = amzn_small.keys
    return [
        0,
        1,
        int(keys[0]) - 1,
        int(keys[0]),
        int(keys[0]) + 1,
        int(keys[len(keys) // 2]),
        int(keys[-1]) - 1,
        int(keys[-1]),
        int(keys[-1]) + 1,
        2**63,
        2**64 - 1,
    ]


@pytest.fixture(params=EVENT_QUEUES)
def event_queue(request, monkeypatch):
    """Run a serving test on each event queue.

    ``fast`` is the simulators' own sealed queue; ``event`` swaps in the
    plain-heap oracle (``serve_reference.HeapEventQueue``).  Every
    assertion must hold on both, and an ``event`` run must actually
    have simulated on the oracle.
    """
    built = use_event_queue(monkeypatch, request.param)
    yield request.param
    if request.param == "event":
        assert built, "no simulation in this test ran on the oracle queue"

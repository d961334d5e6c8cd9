"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import make_dataset, make_workload
from repro.memsim import AddressSpace, TracedArray
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

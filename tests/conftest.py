"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.engine import WorkerServer
from repro.setsystem import SetSystem
from repro.workloads import planted_instance, uniform_random_instance


@pytest.fixture
def tiny_system() -> SetSystem:
    """A 4-element instance with optimum 2 ({0,1} + {2,3})."""
    return SetSystem(4, [[0, 1], [2, 3], [0, 2], [1], [3]])


@pytest.fixture
def singleton_system() -> SetSystem:
    """Each element coverable only by its own singleton: optimum n."""
    return SetSystem(5, [[0], [1], [2], [3], [4]])


@pytest.fixture
def infeasible_system() -> SetSystem:
    """Element 3 is in no set."""
    return SetSystem(4, [[0, 1], [2], [0, 2]])


@pytest.fixture
def planted_small():
    """A planted instance with known optimum 4."""
    return planted_instance(n=60, m=40, opt=4, seed=11)


@pytest.fixture
def uniform_small() -> SetSystem:
    return uniform_random_instance(40, 30, density=0.15, seed=7)


@pytest.fixture(scope="module")
def worker_fleet(tmp_path_factory):
    """Two in-process workers serving the whole pytest tmp tree."""
    root = tmp_path_factory.getbasetemp()
    servers = [WorkerServer(root).start(), WorkerServer(root).start()]
    yield [server.address for server in servers]
    for server in servers:
        server.stop()

"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro import Cluster
from repro.fabric import Client, Fabric, IndirectionPolicy, make_placement

NODE_SIZE = 8 << 20  # 8 MiB per node keeps tests fast

# Tier-1 is the same every run: ``tier1`` (the default) derives each
# property test's examples from the test itself and keeps no example
# database, so a run can neither draw nor replay a seed the previous run
# did not. Seed *exploration* is opt-in — the CI soak steps pass
# ``--hypothesis-profile=explore`` — and prints the reproduction blob of
# any failure it finds.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", print_blob=True)
settings.load_profile("tier1")


@pytest.fixture(autouse=True)
def _deterministic_client_ids():
    """Reset the process-global client-id counter before every test.

    ``Client._next_id`` seeds client names, lease-lock tokens, and retry
    jitter; without the reset those depend on how many clients earlier
    tests created, making failures order-dependent and unreproducible in
    isolation.
    """
    Client.reset_ids()
    yield


@pytest.fixture
def cluster() -> Cluster:
    """A single-node cluster with reliable notifications."""
    return Cluster(node_count=1, node_size=NODE_SIZE)


@pytest.fixture
def cluster2() -> Cluster:
    """A two-node, range-placed cluster."""
    return Cluster(node_count=2, node_size=NODE_SIZE)


@pytest.fixture
def striped_cluster() -> Cluster:
    """A four-node cluster with page-interleaved placement."""
    return Cluster(node_count=4, node_size=NODE_SIZE, interleaved=True)


@pytest.fixture
def client(cluster: Cluster) -> Client:
    return cluster.client()


@pytest.fixture
def fabric() -> Fabric:
    return Fabric(make_placement(2, NODE_SIZE))


@pytest.fixture
def striped_fabric() -> Fabric:
    return Fabric(make_placement(4, NODE_SIZE, interleaved=True, granularity=4096))


@pytest.fixture
def error_policy_cluster() -> Cluster:
    """Two nodes with the section 7.1 ERROR indirection policy."""
    return Cluster(
        node_count=2,
        node_size=NODE_SIZE,
        indirection_policy=IndirectionPolicy.ERROR,
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running integration/stress tests"
    )

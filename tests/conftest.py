"""Shared fixtures.

Session-scoped fixtures build the (deterministic) SCIONLab world and a
small measured campaign once; tests that mutate state build their own
objects instead.
"""

from __future__ import annotations

import pytest
from hypothesis import strategies as st

from repro.docdb.client import DocDBClient
from repro.experiments.world import run_campaign
from repro.scion.snet import ScionHost
from repro.suite.cli import seed_servers
from repro.suite.config import SuiteConfig
from tests.helpers import build_tiny_world


TEST_SEED = 424242


@pytest.fixture(scope="session", autouse=True)
def hypothesis_text_table():
    """Build Hypothesis's utf-8 character table before the first test.

    A fresh checkout has no cached table, and the first text strategy
    spends ~3 s building it inside whichever property test draws text
    first, which then fails Hypothesis's too_slow health check.
    """
    st.text().validate()


@pytest.fixture(scope="session")
def tiny_topology():
    return build_tiny_world()


@pytest.fixture(scope="session")
def tiny_host(tiny_topology):
    return ScionHost(tiny_topology, "1-ffaa:1:1")


@pytest.fixture(scope="session")
def world_host():
    """The canonical SCIONLab world (read-only use!)."""
    return ScionHost.scionlab(seed=TEST_SEED)


@pytest.fixture()
def fresh_world_host():
    """A SCIONLab host tests may freely mutate (episodes, health, clock)."""
    return ScionHost.scionlab(seed=TEST_SEED)


@pytest.fixture(scope="session")
def measured_world():
    """A small but complete campaign: Ireland + Magdeburg, 2 iterations."""
    return run_campaign([1, 3], iterations=2, seed=TEST_SEED)


@pytest.fixture()
def seeded_db():
    """A fresh database with the availableServers collection populated."""
    client = DocDBClient()
    db = client["upin"]
    seed_servers(db)
    return db

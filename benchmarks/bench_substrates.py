"""Micro-benchmarks of the substrates the reproduction is built on.

Not figures from the paper — these keep the simulator and the document
store honest about their own performance (profiling-first workflow).
"""

import pytest

from repro.docdb.client import DocDBClient
from repro.netsim.packet import PacketSpec
from repro.scion.beaconing import Beaconer
from repro.scion.combinator import combine_paths
from repro.topology.scionlab import build_scionlab_world


@pytest.fixture(scope="module")
def world():
    return build_scionlab_world()


def test_bench_topology_build(benchmark):
    topo = benchmark(build_scionlab_world)
    assert len(topo) == 36


def test_bench_path_combination(benchmark, world):
    def run():
        beaconer = Beaconer(world)  # cold caches each round
        return combine_paths(beaconer, "17-ffaa:1:e01", "16-ffaa:0:1003")

    paths = benchmark(run)
    assert len(paths) == 42  # all ranked paths before the -m cap


def test_bench_ping_probe(benchmark, scionlab_host):
    path = scionlab_host.paths("16-ffaa:0:1002", max_paths=1)[0]
    traversals = path.traversals(scionlab_host.topology)
    packet = PacketSpec(payload_bytes=16, n_hops=path.hop_count)

    series = benchmark(
        lambda: scionlab_host.network.probe_batch(traversals, packet, 1, 0.1, 1.0)
    )
    assert series.count == 1
    assert series.received == 0 or series.received_rtts()[0] > 0


def test_bench_fluid_transfer(benchmark, scionlab_host):
    path = scionlab_host.paths("19-ffaa:0:1303", max_paths=1)[0]
    traversals = path.traversals(scionlab_host.topology)
    packet = PacketSpec(payload_bytes=1472, n_hops=path.hop_count)

    result = benchmark(
        lambda: scionlab_host.network.fluid_transfer(
            traversals, 12e6, packet, 3.0, 100.0
        )
    )
    assert result.achieved_bps > 0


def test_bench_docdb_indexed_query(benchmark):
    coll = DocDBClient()["bench"]["stats"]
    coll.create_index("server_id")
    coll.create_index("avg_latency_ms")
    coll.insert_many(
        [
            {"_id": i, "server_id": i % 21 + 1, "avg_latency_ms": float(i % 400)}
            for i in range(5000)
        ]
    )

    def query():
        return coll.find(
            {"server_id": 2, "avg_latency_ms": {"$lt": 100}},
            sort=[("avg_latency_ms", 1)],
            limit=10,
        )

    docs = benchmark(query)
    assert docs and all(d["server_id"] == 2 for d in docs)


def test_bench_docdb_aggregation(benchmark):
    coll = DocDBClient()["bench"]["stats"]
    coll.insert_many(
        [
            {"_id": i, "path_id": f"2_{i % 30}", "avg_latency_ms": float(i % 200)}
            for i in range(3000)
        ]
    )

    def aggregate():
        return coll.aggregate(
            [
                {
                    "$group": {
                        "_id": "$path_id",
                        "avg": {"$avg": "$avg_latency_ms"},
                        "n": {"$sum": 1},
                    }
                },
                {"$sort": {"avg": 1}},
            ]
        )

    groups = benchmark(aggregate)
    assert len(groups) == 30


def test_bench_whatif_policy_sweep(benchmark, scionlab_host):
    """Full 21-destination diversity evaluation for one exclusion policy."""
    from repro.analysis.whatif import ExclusionPolicy, path_diversity

    policy = ExclusionPolicy.make(countries=["US", "SG"])
    result = benchmark(lambda: path_diversity(scionlab_host, policy))
    assert result.reachable_count < 21
    assert result.diversity_of(1).reachable


def test_bench_monitoring_round(benchmark):
    """One scheduler round (collect + measure one destination)."""
    from repro.docdb.client import DocDBClient
    from repro.scion.snet import ScionHost
    from repro.suite.cli import seed_servers
    from repro.suite.config import SuiteConfig
    from repro.suite.scheduler import MonitoringScheduler

    def round_once():
        client = DocDBClient()
        db = client["upin"]
        seed_servers(db)
        host = ScionHost.scionlab(seed=1)
        config = SuiteConfig(iterations=1, destination_ids=[3])
        return MonitoringScheduler(host, db, config, period_s=600.0).run(rounds=1)

    report = benchmark.pedantic(round_once, rounds=1, iterations=1)
    assert report.stats_stored == 6

"""Bench of the §6 study campaign: 5 destinations, one iteration.

The paper gathered ~3000 samples over 5 destinations; this bench runs a
scaled-down version of the same campaign and checks its bookkeeping.
"""

from benchmarks.conftest import BENCH_SEED, write_figure
from repro.docdb.client import DocDBClient
from repro.scion.snet import ScionHost
from repro.scionlab.defaults import study_destination_ids
from repro.suite.cli import seed_servers
from repro.suite.collect import PathsCollector
from repro.suite.config import STATS_COLLECTION, SuiteConfig
from repro.suite.runner import TestRunner


def _study_env(iterations: int):
    client = DocDBClient()
    db = client["upin"]
    seed_servers(db)
    host = ScionHost.scionlab(seed=BENCH_SEED)
    config = SuiteConfig(
        iterations=iterations, destination_ids=study_destination_ids()
    )
    PathsCollector(host, db, config).collect()
    return host, db, config


def test_study_campaign_sequential(benchmark):
    def run():
        host, db, config = _study_env(iterations=1)
        report = TestRunner(host, db, config).run()
        return db, report

    db, report = benchmark.pedantic(run, rounds=1, iterations=1)
    # 5 study destinations: Ireland 22 + N.Virginia 32 + Magdeburg 6 +
    # Singapore 18 + KAIST 2 = 80 paths per iteration.
    assert report.paths_tested == 80
    assert report.stats_stored == 80
    assert db[STATS_COLLECTION].count_documents() == 80
    write_figure(
        "campaign.txt",
        f"study campaign: {report.stats_stored} samples, "
        f"{report.sim_seconds:.0f} simulated seconds, "
        f"{report.measurement_errors} errors",
    )


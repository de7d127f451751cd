"""Bench: the study campaign under injected faults (§4.1.2).

Runs the 5-destination study campaign with a 10 % per-flush data-loss
probability plus a one-iteration outage on the first destination, and
checks the graceful-degradation bookkeeping: every batch is either
stored or counted lost, nothing aborts, and the injected-fault tallies
are reflected in the campaign telemetry.  The table holds only
simulation figures, so it is a pure function of the seed.
"""

from benchmarks.conftest import BENCH_ITERATIONS, BENCH_SEED, write_figure
from repro.docdb.client import DocDBClient
from repro.netsim.network import ServerHealth
from repro.scion.snet import ScionHost
from repro.scionlab.defaults import study_destination_ids
from repro.suite import metrics as m
from repro.suite.cli import seed_servers
from repro.suite.collect import PathsCollector
from repro.suite.config import SuiteConfig
from repro.suite.faults import DataLossFault, FaultPlan, ServerOutage
from repro.suite.runner import TestRunner

LOSS_PROBABILITY = 0.10


def _faulted_env():
    client = DocDBClient()
    db = client["upin"]
    seed_servers(db)
    host = ScionHost.scionlab(seed=BENCH_SEED)
    dest_ids = study_destination_ids()
    config = SuiteConfig(
        iterations=BENCH_ITERATIONS, destination_ids=dest_ids, max_retries=1
    )
    PathsCollector(host, db, config).collect()
    plan = FaultPlan(
        outages=[ServerOutage(dest_ids[0], 0, 1, ServerHealth.DOWN)],
        data_loss=DataLossFault(probability=LOSS_PROBABILITY, seed=BENCH_SEED),
    )
    return host, db, config, plan


def test_campaign_under_injected_faults(benchmark):
    def run():
        host, db, config, plan = _faulted_env()
        report = TestRunner(host, db, config, faults=plan).run()
        return report, plan

    report, plan = benchmark.pedantic(run, rounds=1, iterations=1)

    # Graceful degradation: faults were really injected, nothing aborted.
    assert report.iterations == BENCH_ITERATIONS
    assert plan.injected_outages >= 1
    assert plan.injected_losses >= 1
    assert report.stats_lost > 0
    assert report.stats_stored > 0
    # Conservation: every measured path either landed or was counted lost.
    assert report.stats_stored + report.stats_lost == report.paths_tested
    # Telemetry agrees with the report.
    assert m.counter_value(report.metrics, m.DOCS_LOST) == report.stats_lost
    assert m.counter_value(report.metrics, m.FLUSH_FAILURES) == plan.injected_losses

    write_figure(
        "campaign_faults.txt",
        f"study campaign under {LOSS_PROBABILITY:.0%} data loss: "
        f"{report.stats_stored} stored, {report.stats_lost} lost, "
        f"{report.paths_tested} path tests, "
        f"{plan.injected_outages} outages, {plan.injected_losses} crashed "
        f"flushes, {m.counter_value(report.metrics, m.RETRIES):g} retries",
    )

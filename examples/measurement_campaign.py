#!/usr/bin/env python
"""The paper's §6 measurement study, end to end.

Reproduces the full pipeline: seed the ``availableServers`` collection,
collect paths to the five study destinations (Germany, Ireland,
N. Virginia, Singapore, Korea), run the three-measurement campaign, and
print the per-destination analysis tables — the data behind Figures 5-9.

Run:  python examples/measurement_campaign.py [iterations] [db-dir]
"""

import sys

from repro.analysis.bandwidth import bandwidth_by_path, summarize
from repro.analysis.latency import latency_by_path, latency_layers
from repro.analysis.loss import loss_by_path
from repro.analysis.report import format_table
from repro.docdb.client import DocDBClient
from repro.scion.snet import ScionHost
from repro.scionlab.defaults import study_destination_ids
from repro.suite.cli import seed_servers
from repro.suite.collect import PathsCollector
from repro.suite.config import SuiteConfig
from repro.suite.runner import TestRunner


def main() -> None:
    iterations = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    db_dir = sys.argv[2] if len(sys.argv) > 2 else None

    # With a db-dir, every write goes through the write-ahead log and the
    # run ends with a checkpoint; reopen the directory with DocDBClient.open.
    client = DocDBClient.open(db_dir, fsync="never") if db_dir else DocDBClient()
    db = client["upin"]
    print(f"seeded {seed_servers(db)} available servers")

    host = ScionHost.scionlab()
    config = SuiteConfig(
        iterations=iterations, destination_ids=study_destination_ids()
    )

    collection = PathsCollector(host, db, config).collect()
    print(
        f"collected {collection.paths_stored} paths over "
        f"{collection.destinations} destinations"
    )

    report = TestRunner(host, db, config).run()
    print(
        f"campaign: {report.stats_stored} samples "
        f"({report.paths_tested} path tests, {report.measurement_errors} errors, "
        f"{report.sim_seconds / 60:.1f} simulated minutes)\n"
    )

    # -- latency: Ireland (the Fig 5 destination) -----------------------------
    series = latency_by_path(db, 1)
    rows = [
        (s.path_id, s.hop_count, f"{s.stats.mean:.1f}", f"{s.stats.spread:.1f}")
        for s in series
    ]
    print(format_table(
        ["path", "hops", "mean ms", "spread ms"], rows,
        title="Latency per path to AWS Ireland",
    ))
    layers = latency_layers(series)
    print(f"latency layers: {len(layers)} (Europe / via Ohio / via Singapore)\n")

    # -- bandwidth: Magdeburg (the Fig 7 destination) --------------------------
    bw = bandwidth_by_path(db, 3, target_mbps=12.0)
    summary = summarize(bw)
    print(
        "Magdeburg bandwidth (12 Mbps target): "
        f"up64={summary.mean_up_small:.1f} upMTU={summary.mean_up_mtu:.1f} "
        f"down64={summary.mean_down_small:.1f} downMTU={summary.mean_down_mtu:.1f} Mbps"
    )
    print(f"  downstream > upstream: {summary.downstream_beats_upstream}")
    print(f"  MTU > 64B:             {summary.mtu_beats_small}\n")

    # -- loss: N. Virginia (the Fig 9 destination) -------------------------------
    loss = loss_by_path(db, 2)
    worst = sorted(loss, key=lambda s: -s.mean_loss_pct)[:5]
    print(format_table(
        ["path", "mean loss %"],
        [(s.path_id, f"{s.mean_loss_pct:.2f}") for s in worst],
        title="Highest-loss N. Virginia paths",
    ))

    if db_dir:
        client.checkpoint()
        client.close()
        print(f"\ndatabase persisted under {db_dir}")


if __name__ == "__main__":
    main()

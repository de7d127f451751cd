"""Data-plane bench: absolute timings of the one batch engine.

Written to ``benchmarks/output/netsim_fastpath.txt``:

1. **Per call** — over chain paths of 1/3/7 links (2/4/8 ASes), each
   resolved once into a route: wall time of one 30-probe echo series
   (:meth:`~repro.netsim.network.NetworkSim.probe_batch`), of one
   traceroute at 3 probes per hop
   (:meth:`~repro.scion.scmp.ScmpService.traceroute`, one depth-laned
   batch), and packet throughput of one long echo series.
2. **Campaign** — the seeded §6 study campaign end to end.

Every figure is the best of :data:`REPEATS` runs, since single cold
runs on a shared machine jitter by 30%+.  The numbers are wall-clock
and depend on the host; the end-to-end trajectory lives in
``perfbench/``.
"""

from __future__ import annotations

import time
from typing import Callable, List, Tuple

import numpy as np

from benchmarks.conftest import BENCH_SEED, write_figure
from repro.docdb.client import DocDBClient
from repro.netsim.batch import TRACEROUTE
from repro.netsim.config import NetworkConfig
from repro.netsim.network import LinkTraversal, NetworkSim, Route
from repro.netsim.packet import PacketSpec
from repro.scion.snet import ScionHost
from repro.scionlab.defaults import study_destination_ids
from repro.suite.cli import seed_servers
from repro.suite.collect import PathsCollector
from repro.suite.config import SuiteConfig
from repro.suite.runner import TestRunner
from repro.topology.builder import TopologyBuilder
from repro.topology.entities import ASRole
from repro.topology.isd_as import ISDAS
from repro.topology.scionlab import (
    MY_AS,
    build_scionlab_world,
    scionlab_network_config,
)

OUTPUT_NAME = "netsim_fastpath.txt"
CHAIN_LINKS = (1, 3, 7)  # 2-, 4- and 8-AS paths
CALLS = 2000  # calls per per-call timing
LONG_PROBES = 3000  # probes in the long echo series
REPEATS = 3
ECHO_COUNT = 30
PROBES_PER_HOP = 3


def _chain_world(n_links: int):
    """A provider chain: one core AS with ``n_links`` descendants."""
    b = TopologyBuilder()
    b.add_as("1-ffaa:0:1", "chain0", role=ASRole.CORE, lat=47.4, lon=8.5,
             country="CH", operator="Op", ip="10.0.0.1")
    for i in range(1, n_links + 1):
        b.add_as(f"1-ffaa:0:{i + 1}", f"chain{i}", role=ASRole.NON_CORE,
                 lat=47.4 + 0.3 * i, lon=8.5 + 0.3 * i, country="CH",
                 operator="Op", ip=f"10.0.0.{i + 1}")
        b.parent_link(f"1-ffaa:0:{i}", f"1-ffaa:0:{i + 1}")
    return b.build()


def _chain_traversals(topology, n_links: int) -> List[LinkTraversal]:
    steps = []
    for i in range(1, n_links + 1):
        link = topology.link_between(f"1-ffaa:0:{i}", f"1-ffaa:0:{i + 1}")[0]
        steps.append(LinkTraversal(link=link, sender=ISDAS.parse(f"1-ffaa:0:{i}")))
    return steps


def _best_of(run: Callable[[], float]) -> float:
    return min(run() for _ in range(REPEATS))


def _per_call_row(n_links: int) -> Tuple[float, float, float]:
    """(µs per echo series, µs per traceroute, long-series pkt/s).

    Each timing gets its own seeded network, whose route for the chain
    is resolved once, as :meth:`repro.scion.path.Path.route` does for
    the apps, and calls step through simulated time the way a campaign
    does.
    """
    topology = _chain_world(n_links)
    packet = PacketSpec(payload_bytes=16, n_hops=n_links + 1, n_segments=2)
    depths = np.repeat(np.arange(1, n_links + 1), PROBES_PER_HOP)

    def timed(body: Callable[[NetworkSim, Route, int], None], n: int):
        def run() -> float:
            net = NetworkSim(topology, NetworkConfig(seed=BENCH_SEED))
            steps = net.route(_chain_traversals(topology, n_links))
            start = time.perf_counter()
            for i in range(n):
                body(net, steps, i)
            return time.perf_counter() - start

        return _best_of(run)

    series_s = timed(
        lambda net, steps, i: net.probe_batch(steps, packet, ECHO_COUNT, 0.1, i * 3.0),
        CALLS,
    )
    trace_s = timed(
        lambda net, steps, i: net.probe_depths(
            steps, packet, depths, purpose=TRACEROUTE, interval_s=0.05, t0_s=i * 3.0
        ),
        CALLS,
    )
    long_s = timed(
        lambda net, steps, i: net.probe_batch(steps, packet, LONG_PROBES, 0.1, 0.0), 1
    )
    return series_s / CALLS * 1e6, trace_s / CALLS * 1e6, LONG_PROBES / long_s


def _one_campaign_run() -> float:
    client = DocDBClient()
    db = client["upin"]
    seed_servers(db)
    host = ScionHost(
        build_scionlab_world(), MY_AS, config=scionlab_network_config(seed=BENCH_SEED)
    )
    config = SuiteConfig(iterations=1, destination_ids=study_destination_ids())
    PathsCollector(host, db, config).collect()
    start = time.perf_counter()
    report = TestRunner(host, db, config).run()
    elapsed = time.perf_counter() - start
    assert report.paths_tested == 80
    return elapsed


def _scionlab_traceroute_us() -> Tuple[float, float]:
    """(µs per traceroute, mean links) over the study destinations' best paths."""
    host = ScionHost.scionlab(seed=BENCH_SEED)
    paths = [
        host.paths(dst, max_paths=1)[0]
        for dst in ("16-ffaa:0:1002", "19-ffaa:0:1303", "16-ffaa:0:1004")
    ]

    def run() -> float:
        start = time.perf_counter()
        for i in range(CALLS):
            host.scmp.traceroute(paths[i % len(paths)])
        return time.perf_counter() - start

    mean_links = sum(p.n_links for p in paths) / len(paths)
    return _best_of(run) / CALLS * 1e6, mean_links


def run_fastpath_table() -> str:
    lines = [
        "netsim data plane: absolute timings of the batch engine "
        f"(best of {REPEATS})",
        "",
        f"  per call: {ECHO_COUNT}-probe echo series, traceroute at "
        f"{PROBES_PER_HOP} probes per hop ({CALLS} calls each),",
        f"  and packet throughput of one {LONG_PROBES}-probe series",
        f"  {'links':>5}  {'ases':>4}  {'series us':>10}  "
        f"{'traceroute us':>13}  {'pkt/s':>10}",
    ]
    for n_links in CHAIN_LINKS:
        series_us, trace_us, pps = _per_call_row(n_links)
        lines.append(
            f"  {n_links:>5}  {n_links + 1:>4}  {series_us:>10.1f}  "
            f"{trace_us:>13.1f}  {pps:>10.0f}"
        )
    trace_us, mean_links = _scionlab_traceroute_us()
    campaign_s = _best_of(_one_campaign_run)
    lines += [
        "",
        f"  ScmpService.traceroute on SCIONLab best paths "
        f"({mean_links:.1f} links on average): {trace_us:.1f} us per call",
        "  study campaign end to end (5 destinations x 1 iteration, "
        f"80 paths): {campaign_s:.2f} s",
    ]
    return "\n".join(lines)


def test_fastpath_timing_table():
    """Regenerate the committed table."""
    text = run_fastpath_table()
    write_figure(OUTPUT_NAME, text)
    assert "traceroute" in text


def main() -> None:
    text = run_fastpath_table()
    write_figure(OUTPUT_NAME, text)
    print(text)


if __name__ == "__main__":
    main()

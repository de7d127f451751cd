"""The measurement runner (the ``run_tests.py`` component, §5.3).

Three nested loops — iterations, destinations, paths — and three
measurements per path:

1. latency + loss: ``scion ping -c 30 --interval 0.1s --sequence ...``
2. bandwidth with 64-byte packets: ``scion-bwtestclient -cs 3,64,?,12Mbps``
3. bandwidth with MTU-sized packets: ``-cs 3,MTU,?,12Mbps``

plus the traversed-ISD set, all stored as one ``paths_stats`` document
per (path, timestamp), batch-inserted after each destination completes
(§4.2.2).  Failures are tolerated per the §4.1.2 families: unreachable
or misbehaving servers are retried then skipped, lost batches are
counted but never abort the campaign.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.apps.bwtester import BwtestApp
from repro.apps.ping import PingApp
from repro.crypto.rsa import RSAKeyPair
from repro.docdb.database import Database
from repro.errors import (
    DataLossError,
    MeasurementError,
    NoPathError,
    ParseError,
)
from repro.scion.snet import ScionHost
from repro.suite import metrics as m
from repro.suite.collect import PathsCollector
from repro.suite.config import (
    PATHS_COLLECTION,
    STATS_COLLECTION,
    SuiteConfig,
)
from repro.suite.faults import FaultPlan
from repro.suite.retry import RetryExecutor, RetryPolicy
from repro.suite.storage import StatsRepository, stats_document_id
from repro.util.rng import derive_seed
from repro.util.timefmt import TimestampSource


@dataclass
class CampaignReport:
    """Summary of one campaign run."""

    iterations: int = 0
    destinations_tested: int = 0
    paths_tested: int = 0
    stats_stored: int = 0
    stats_lost: int = 0
    measurement_errors: int = 0
    error_log: List[str] = field(default_factory=list)
    sim_seconds: float = 0.0
    wall_seconds: float = 0.0
    #: Snapshot of the runner's :class:`~repro.suite.metrics.MetricsRegistry`.
    metrics: Dict[str, Any] = field(default_factory=dict)

    @property
    def retries(self) -> int:
        return int(m.counter_value(self.metrics, m.RETRIES))

    def record_error(self, message: str, *, cap: int = 200) -> None:
        self.measurement_errors += 1
        if len(self.error_log) < cap:
            self.error_log.append(message)

    def format_text(self) -> str:
        """Human summary, shaped like the suite CLI's closing line."""
        lines = [
            f"campaign: {self.stats_stored} stats stored over "
            f"{self.iterations} iteration(s)",
            f"  path tests: {self.paths_tested}  "
            f"lost: {self.stats_lost}  errors: {self.measurement_errors}",
            f"  simulated time: {self.sim_seconds:.1f} s",
        ]
        metrics_block = m.format_metrics(self.metrics)
        if metrics_block:
            lines.append(metrics_block)
        if self.error_log:
            lines.append("  first errors:")
            lines.extend(f"    - {msg}" for msg in self.error_log[:5])
        return "\n".join(lines)


class TestRunner:
    """Executes measurement campaigns against the path database."""

    __test__ = False  # "Test" prefix is the paper's naming, not pytest's

    def __init__(
        self,
        host: ScionHost,
        db: Database,
        config: SuiteConfig,
        *,
        faults: Optional[FaultPlan] = None,
        signer: Optional[RSAKeyPair] = None,
        signer_subject: str = "",
        metrics: Optional[m.MetricsRegistry] = None,
    ) -> None:
        self.host = host
        self.db = db
        self.config = config
        self.faults = faults
        self.metrics = metrics if metrics is not None else m.MetricsRegistry()
        self.ping_app = PingApp(host)
        self.bw_app = BwtestApp(host)
        self.collector = PathsCollector(host, db, config)
        stats_coll = db[STATS_COLLECTION]
        stats_coll.create_index("path_id")
        # The best-path hot path filters on (server_id, timestamp_ms >= t):
        # a compound index answers it with an equality prefix + range on
        # the trailing field, and its one-field prefix serves
        # {server_id: S} (see docs/DATABASE.md, "Compound indexes").
        stats_coll.create_index([("server_id", 1), ("timestamp_ms", 1)])
        self.stats = StatsRepository(
            stats_coll,
            signer=signer,
            signer_subject=signer_subject,
            flush_hook=faults.flush_hook if faults is not None else None,
        )
        # The simulated clock restarts at 0 in every process; starting
        # above the newest stored stamp keeps ``<path>_<timestamp>`` ids
        # unique when a campaign reruns on a persisted database.
        latest = stats_coll.find_one(sort=[("timestamp_ms", -1)])
        self._timestamps = TimestampSource(
            now_ms=lambda: host.clock.now_ms,
            start=int(latest["timestamp_ms"]) + 1 if latest else 0,
        )
        # Backoff jitter draws come from a stream keyed off the host's
        # network seed, so the retry schedule is reproducible and the
        # host's own network streams are left untouched.
        self._retry = RetryExecutor(
            RetryPolicy.from_config(config),
            host.clock,
            seed=derive_seed(host.network.config.seed, "suite:retry"),
            metrics=self.metrics,
        )

    # -- campaign --------------------------------------------------------------------

    def run(self, iterations: Optional[int] = None) -> CampaignReport:
        """Run the full 3-nested-loop campaign."""
        iterations = self.config.iterations if iterations is None else iterations
        report = CampaignReport()
        start_s = self.host.clock.now_s
        start_wall = time.perf_counter()
        destinations = self.collector.destinations()
        for iteration in range(iterations):
            report.iterations = iteration + 1
            for server in destinations:
                self._run_destination(iteration, server, report)
        report.sim_seconds = self.host.clock.now_s - start_s
        report.wall_seconds = time.perf_counter() - start_wall
        # Requested work, not loop-progress: ``report.iterations`` is only
        # written inside the loop, so deriving the count from it reported
        # stale numbers for 0-iteration campaigns.
        report.destinations_tested = len(destinations) * iterations
        # Add the host's data-plane counters (batch probes, sampler
        # cache, ledger prunes) to the campaign snapshot as ``net.<slot>``.
        # Both sides are deterministic per (world, seed, campaign), so the
        # snapshot is byte-identical across runs.
        report.metrics = self.metrics.snapshot()
        counters = report.metrics["counters"]
        for slot, value in self.host.network.counters.snapshot().items():
            counters[f"net.{slot}"] = float(value)
        report.metrics["counters"] = dict(sorted(counters.items()))
        return report

    def _run_destination(
        self, iteration: int, server: Dict[str, Any], report: CampaignReport
    ) -> None:
        server_id = int(server["_id"])
        isd_as = str(server["isd_as"])
        ip = str(server["ip"])
        start_sim = self.host.clock.now_s
        start_wall = time.perf_counter()
        if self.faults is not None:
            self.faults.apply_server_health(
                self.host.network, iteration, server_id, isd_as, ip
            )
        path_docs = self.db[PATHS_COLLECTION].find(
            {"server_id": server_id}, sort=[("path_index", 1)]
        )
        try:
            for path_doc in path_docs:
                try:
                    doc = self.measure_path(path_doc, server)
                except MeasurementError as exc:
                    report.record_error(f"{path_doc['_id']}: {exc}")
                    if not self.config.continue_on_error:
                        raise
                    continue
                except (NoPathError, ParseError) as exc:
                    # The stored sequence no longer combines, or is not
                    # a sequence at all: skip this path, keep the rest.
                    report.record_error(f"{path_doc['_id']}: {exc}")
                    continue
                self.stats.add(doc)
                report.paths_tested += 1
            # Batch storage per destination (§4.2.2).
            try:
                stored = self.stats.flush()
                report.stats_stored += stored
                if stored:
                    self.metrics.inc(m.FLUSHES)
                    self.metrics.observe(m.BATCH_SIZE, stored)
            except DataLossError as exc:
                # Per-flush delta, NOT the repository's cumulative counter:
                # the cumulative value re-adds every earlier lost batch.
                lost = self.stats.lost_last_flush
                report.stats_lost += lost
                self.metrics.inc(m.FLUSH_FAILURES)
                self.metrics.inc(m.DOCS_LOST, lost)
                report.record_error(f"destination {server_id}: {exc}")
        finally:
            self.metrics.observe(
                m.DEST_SIM_S, self.host.clock.now_s - start_sim
            )
            self.metrics.observe(
                m.DEST_WALL_S, time.perf_counter() - start_wall
            )

    # -- one path -----------------------------------------------------------------------

    def measure_path(
        self, path_doc: Dict[str, Any], server: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Run the three measurements for one stored path."""
        address = str(server["address"])
        # Each measurement pins the stored path by its hop predicates,
        # the way test_suite.sh calls ``scion ping --sequence``.
        sequence = str(path_doc["sequence"])

        stats = self._with_retries(
            lambda: self.ping_app.run(
                address,
                count=self.config.ping_count,
                interval=self.config.ping_interval,
                sequence=sequence,
            ).stats
        )
        bw_small = self._with_retries(
            lambda: self.bw_app.run(
                address,
                cs=self.config.bw_params(self.config.bw_small_bytes),
                sequence=sequence,
            )
        )
        bw_mtu = self._with_retries(
            lambda: self.bw_app.run(
                address, cs=self.config.bw_params("MTU"), sequence=sequence
            )
        )

        timestamp = self._timestamps.next()
        avg = stats.avg_ms
        doc: Dict[str, Any] = {
            "_id": stats_document_id(str(path_doc["_id"]), timestamp),
            "path_id": str(path_doc["_id"]),
            "server_id": int(server["_id"]),
            "timestamp_ms": timestamp,
            "hop_count": int(path_doc["hop_count"]),
            "isds": list(path_doc["isds"]),
            "avg_latency_ms": None if math.isnan(avg) else avg,
            "min_latency_ms": None if math.isnan(stats.min_ms) else stats.min_ms,
            "max_latency_ms": None if math.isnan(stats.max_ms) else stats.max_ms,
            "mdev_latency_ms": stats.mdev_ms if stats.rtts_ms else None,
            "loss_pct": stats.loss_pct,
            "target_mbps": bw_small.cs.params.target.mbps,
            "bw_up_small_mbps": bw_small.cs.achieved.mbps,
            "bw_down_small_mbps": bw_small.sc.achieved.mbps,
            "bw_up_mtu_mbps": bw_mtu.cs.achieved.mbps,
            "bw_down_mtu_mbps": bw_mtu.sc.achieved.mbps,
        }
        return doc

    def _with_retries(self, action):
        """Transient failures retry with deterministic exponential backoff.

        Delegates to :class:`~repro.suite.retry.RetryExecutor`: backoff
        advances the simulated clock only, permanent
        :class:`~repro.errors.NoPathError` s are never retried.
        """
        return self._retry.call(action)

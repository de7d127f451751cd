"""Lightweight campaign telemetry: counters and histograms.

Production measurement fleets (cf. the SCIONLab coordinator, which must
tolerate flaky user ASes) live and die by their retry/backoff/batch
telemetry.  This module gives the test-suite the same discipline at
simulation scale:

* :class:`MetricsRegistry` — a single-threaded named-instrument registry.
  Counters accumulate monotonically (``retries``, ``flush_failures``);
  histograms track ``count/total/min/max`` (``backoff_s``,
  ``batch_size``, ``destination_wall_s``, ``destination_sim_s``).
* ``snapshot()`` renders the registry as a plain, JSON-friendly dict so
  :class:`~repro.suite.runner.CampaignReport` can carry it by value;
  the runner adds the host's data-plane counters to it as
  ``net.<slot>``, one per :class:`~repro.netsim.counters.NetCounters`
  slot.
* The query-planner and WAL blocks of ``--metrics`` are formatted
  straight from the counters each layer keeps: ``Collection.stats``
  and ``Collection.cache`` (:func:`format_database_stats`) and
  ``DocDBClient.wal_stats()`` (:func:`format_wal_stats`).

Only the ``*_wall_s`` instruments observe the host's real clock; every
other metric is a pure function of ``(world, seed, campaign)`` and is
therefore byte-stable across runs.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

#: Snapshot schema version (bumped if the dict layout ever changes).
SNAPSHOT_VERSION = 1

# Canonical instrument names used by the suite.
RETRIES = "retries"
RETRY_EXHAUSTED = "retry_exhausted"
FLUSHES = "flushes"
FLUSH_FAILURES = "flush_failures"
DOCS_LOST = "docs_lost"
BACKOFF_S = "backoff_s"
BATCH_SIZE = "batch_size"
DEST_WALL_S = "destination_wall_s"
DEST_SIM_S = "destination_sim_s"

# Flow-health monitor counters (recorded by ``repro.monitor`` into the
# monitor's own registry and printed by :func:`format_metrics` — see
# docs/MONITOR.md).
MON_PROBES = "monitor_probes_sent"
MON_SAMPLES = "monitor_samples"
MON_BREACHES = "monitor_breaches"
MON_TRANSITIONS = "monitor_transitions"
MON_FLAPS_SUPPRESSED = "monitor_flaps_suppressed"
MON_FAILOVERS = "monitor_failovers"
MON_FAILOVERS_FAILED = "monitor_failovers_failed"
MON_REVOCATIONS = "monitor_revocations"
MON_MTTR_S = "monitor_time_to_repair_s"
MON_ROUND_WALL_S = "monitor_round_wall_s"


class MetricsRegistry:
    """Counters + histograms, snapshotted as a plain dict."""

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {}
        # name -> [count, total, min, max]
        self._histograms: Dict[str, List[float]] = {}

    # -- write side -----------------------------------------------------------

    def inc(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to counter ``name`` (created at zero)."""
        self._counters[name] = self._counters.get(name, 0.0) + float(value)

    def observe(self, name: str, value: float) -> None:
        """Record one sample into histogram ``name``."""
        v = float(value)
        agg = self._histograms.get(name)
        if agg is None:
            self._histograms[name] = [1.0, v, v, v]
        else:
            agg[0] += 1.0
            agg[1] += v
            agg[2] = min(agg[2], v)
            agg[3] = max(agg[3], v)

    # -- read side ------------------------------------------------------------

    def counter(self, name: str) -> float:
        return self._counters.get(name, 0.0)

    def snapshot(self) -> Dict[str, Any]:
        """A deep, JSON-friendly copy with deterministically sorted keys."""
        return {
            "version": SNAPSHOT_VERSION,
            "counters": {k: self._counters[k] for k in sorted(self._counters)},
            "histograms": {
                k: {
                    "count": int(agg[0]),
                    "total": agg[1],
                    "min": agg[2],
                    "max": agg[3],
                }
                for k, agg in sorted(self._histograms.items())
            },
        }


def counter_value(snapshot: Optional[Dict[str, Any]], name: str) -> float:
    """Counter ``name`` out of a snapshot dict (0 when absent)."""
    if not snapshot:
        return 0.0
    return float(snapshot.get("counters", {}).get(name, 0.0))


def histogram_stats(
    snapshot: Optional[Dict[str, Any]], name: str
) -> Optional[Dict[str, float]]:
    """Histogram aggregate for ``name`` (None when never observed)."""
    if not snapshot:
        return None
    return snapshot.get("histograms", {}).get(name)


def format_wal_stats(stats: Dict[str, Any], *, indent: str = "  ") -> str:
    """Human-readable durability block from ``DocDBClient.wal_stats()``
    (empty when volatile)."""
    if not stats:
        return ""
    lines = [
        f"{indent}wal: {stats['appends']:.0f} appends "
        f"({stats['bytes_written']:.0f} bytes), {stats['fsyncs']:.0f} fsyncs, "
        f"{stats['rotations']:.0f} rotations",
        f"{indent}wal: lsn {stats['last_lsn']:.0f} "
        f"(checkpoint {stats['checkpoint_lsn']:.0f}, "
        f"{stats['checkpoints']:.0f} checkpoints, "
        f"{stats['records_replayed']:.0f} records replayed at open)",
    ]
    torn = stats["torn_bytes_truncated"]
    if torn:
        lines.append(f"{indent}wal: torn tail rolled back ({torn:.0f} bytes)")
    return "\n".join(lines)


def format_database_stats(db: Any, *, indent: str = "  ") -> str:
    """Human-readable query-planner block for a
    :class:`~repro.docdb.database.Database`, summed over its
    collections (empty when nothing recorded)."""
    colls = [db[name] for name in db.list_collection_names()]
    hits = sum(c.stats["index_hits"] for c in colls)
    scans = sum(c.stats["scans"] for c in colls)
    examined = sum(c.stats["docs_examined"] for c in colls)
    cache_h = sum(c.cache.hits for c in colls)
    cache_m = sum(c.cache.misses for c in colls)
    if not any((hits, scans, examined, cache_h, cache_m)):
        return ""
    lines = [
        f"{indent}query planner: {hits:.0f} index hits, {scans:.0f} collection "
        f"scans, {examined:.0f} docs examined",
        f"{indent}query cache: {cache_h:.0f} hits / {cache_m:.0f} misses",
    ]
    return "\n".join(lines)


def format_metrics(snapshot: Optional[Dict[str, Any]], *, indent: str = "  ") -> str:
    """Human-readable metrics block (empty string when nothing recorded)."""
    if not snapshot:
        return ""
    lines: List[str] = []
    retries = counter_value(snapshot, RETRIES)
    exhausted = counter_value(snapshot, RETRY_EXHAUSTED)
    backoff = histogram_stats(snapshot, BACKOFF_S)
    if retries or exhausted:
        backoff_total = backoff["total"] if backoff else 0.0
        lines.append(
            f"{indent}retries: {retries:.0f} "
            f"(gave up: {exhausted:.0f}, backoff: {backoff_total:.2f} sim s)"
        )
    batches = histogram_stats(snapshot, BATCH_SIZE)
    if batches and batches["count"]:
        mean = batches["total"] / batches["count"]
        lines.append(
            f"{indent}batches: {batches['count']} flushed "
            f"(avg {mean:.1f} docs, max {batches['max']:.0f})"
        )
    failures = counter_value(snapshot, FLUSH_FAILURES)
    lost = counter_value(snapshot, DOCS_LOST)
    if failures or lost:
        lines.append(
            f"{indent}flush failures: {failures:.0f} ({lost:.0f} documents lost)"
        )
    probes = counter_value(snapshot, MON_PROBES)
    breaches = counter_value(snapshot, MON_BREACHES)
    failovers = counter_value(snapshot, MON_FAILOVERS)
    if probes or breaches or failovers:
        suppressed = counter_value(snapshot, MON_FLAPS_SUPPRESSED)
        mttr = histogram_stats(snapshot, MON_MTTR_S)
        line = (
            f"{indent}monitor: {probes:.0f} probes, {breaches:.0f} breaches, "
            f"{failovers:.0f} failovers ({suppressed:.0f} flaps suppressed)"
        )
        if mttr and mttr["count"]:
            line += f", MTTR {mttr['total'] / mttr['count']:.1f} sim s"
        lines.append(line)
    batch_series = counter_value(snapshot, "net.batch_series")
    batch_packets = counter_value(snapshot, "net.batch_packets")
    if batch_series:
        lines.append(
            f"{indent}data plane: {batch_series:.0f} batch series "
            f"({batch_packets:.0f} packets)"
        )
        sampler_h = counter_value(snapshot, "net.sampler_hits")
        sampler_m = counter_value(snapshot, "net.sampler_misses")
        pruned = counter_value(snapshot, "net.ledger_pruned_flows")
        if sampler_h or sampler_m or pruned:
            lines.append(
                f"{indent}data plane: sampler cache {sampler_h:.0f} hits / "
                f"{sampler_m:.0f} misses, {pruned:.0f} ledger flows pruned"
            )
    wall = histogram_stats(snapshot, DEST_WALL_S)
    sim = histogram_stats(snapshot, DEST_SIM_S)
    if wall and sim and wall["count"]:
        lines.append(
            f"{indent}per destination: "
            f"{sim['total'] / sim['count']:.1f} sim s, "
            f"{wall['total'] / wall['count'] * 1e3:.1f} wall ms (avg)"
        )
    return "\n".join(lines)

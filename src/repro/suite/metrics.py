"""Lightweight campaign telemetry: counters and histograms.

Production measurement fleets (cf. the SCIONLab coordinator, which must
tolerate flaky user ASes) live and die by their retry/backoff/batch
telemetry.  This module gives the test-suite the same discipline at
simulation scale:

* :class:`MetricsRegistry` — a thread-safe named-instrument registry.
  Counters accumulate monotonically (``retries``, ``flush_failures``);
  histograms track ``count/total/min/max`` (``backoff_s``,
  ``batch_size``, ``destination_wall_s``, ``destination_sim_s``).
* ``snapshot()`` renders the registry as a plain, JSON-friendly dict so
  :class:`~repro.suite.runner.CampaignReport` can carry it across thread
  boundaries by value.
* :func:`merge_snapshots` folds several snapshots into one view; the
  runner uses it to add the host's data-plane counters to its own.
  The fold is commutative and associative, so the order of the inputs
  does not matter.

Only the ``*_wall_s`` instruments observe the host's real clock; every
other metric is a pure function of ``(world, seed, campaign)`` and is
therefore byte-stable across runs.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, List, Optional

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

# Flow-health monitor counters (recorded by ``repro.monitor.loop`` into
# its own registry and folded into the campaign view the same way the
# planner counters are — see docs/MONITOR.md).
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

# Durability / write-ahead-log counters (folded from
# ``DocDBClient.wal_stats()`` by :func:`wal_stats_snapshot`; zero/absent
# for volatile clients).  See docs/STORAGE.md.
WAL_APPENDS = "wal_appends"
WAL_BYTES = "wal_bytes_written"
WAL_FSYNCS = "wal_fsyncs"
WAL_ROTATIONS = "wal_segment_rotations"
WAL_SEGMENTS = "wal_segments"
WAL_CHECKPOINTS = "wal_checkpoints"
WAL_SEGMENTS_REMOVED = "wal_segments_removed"
WAL_LAST_LSN = "wal_last_lsn"
WAL_CHECKPOINT_LSN = "wal_checkpoint_lsn"
WAL_RECORDS_REPLAYED = "wal_records_replayed"
WAL_TORN_BYTES = "wal_torn_bytes_truncated"

#: ``DocDBClient.wal_stats()`` key -> canonical instrument name.
_WAL_STAT_NAMES = {
    "appends": WAL_APPENDS,
    "bytes_written": WAL_BYTES,
    "fsyncs": WAL_FSYNCS,
    "rotations": WAL_ROTATIONS,
    "segments": WAL_SEGMENTS,
    "checkpoints": WAL_CHECKPOINTS,
    "segments_removed": WAL_SEGMENTS_REMOVED,
    "last_lsn": WAL_LAST_LSN,
    "checkpoint_lsn": WAL_CHECKPOINT_LSN,
    "records_replayed": WAL_RECORDS_REPLAYED,
    "torn_bytes_truncated": WAL_TORN_BYTES,
}

# Database/query-planner counters (folded from ``Collection.stats`` by
# :func:`database_stats_snapshot` — read-time aggregation, deliberately
# NOT recorded in the runner's registry: the collections are shared by
# every client of the store, so the campaign snapshot the determinism
# tests compare byte-for-byte holds only what the campaign itself did).
DB_COLLSCANS = "db_collection_scans"
DB_INDEX_HITS = "db_index_hits"
DB_DOCS_EXAMINED = "db_docs_examined"
DB_CACHE_HITS = "db_query_cache_hits"
DB_CACHE_MISSES = "db_query_cache_misses"

#: ``Collection.stats`` key -> canonical instrument name.
_DB_STAT_NAMES = {
    "scans": DB_COLLSCANS,
    "index_hits": DB_INDEX_HITS,
    "docs_examined": DB_DOCS_EXAMINED,
    "cache_hits": DB_CACHE_HITS,
    "cache_misses": DB_CACHE_MISSES,
}

# Simulated data-plane counters (folded from ``NetworkSim.counters`` by
# :func:`network_stats_snapshot`).  Every value is a pure function of
# ``(world, seed, campaign)`` — see docs/ARCHITECTURE.md, "Measurement
# fast path", whose metric table is diff-tested against this mapping.
NET_BATCH_SERIES = "net_batch_probe_series"
NET_BATCH_PACKETS = "net_batch_packets"
NET_SAMPLER_HITS = "net_sampler_cache_hits"
NET_SAMPLER_MISSES = "net_sampler_cache_misses"
NET_LEDGER_PRUNED = "net_ledger_pruned_flows"

#: ``NetCounters`` slot -> canonical instrument name.
_NET_STAT_NAMES = {
    "batch_series": NET_BATCH_SERIES,
    "batch_packets": NET_BATCH_PACKETS,
    "sampler_hits": NET_SAMPLER_HITS,
    "sampler_misses": NET_SAMPLER_MISSES,
    "ledger_pruned_flows": NET_LEDGER_PRUNED,
}


class MetricsRegistry:
    """Thread-safe counters + histograms, snapshotted as a plain dict."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        # name -> [count, total, min, max]
        self._histograms: Dict[str, List[float]] = {}

    # -- write side -----------------------------------------------------------

    def inc(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to counter ``name`` (created at zero)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + float(value)

    def observe(self, name: str, value: float) -> None:
        """Record one sample into histogram ``name``."""
        v = float(value)
        with self._lock:
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
        with self._lock:
            return self._counters.get(name, 0.0)

    def snapshot(self) -> Dict[str, Any]:
        """A deep, JSON-friendly copy with deterministically sorted keys."""
        with self._lock:
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


def merge_snapshots(snapshots: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold snapshots into one (commutative: scheduling-independent)."""
    counters: Dict[str, float] = {}
    histograms: Dict[str, Dict[str, float]] = {}
    for snap in snapshots:
        if not snap:
            continue
        for name, value in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0.0) + float(value)
        for name, agg in snap.get("histograms", {}).items():
            merged = histograms.get(name)
            if merged is None:
                histograms[name] = dict(agg)
            else:
                merged["count"] += agg["count"]
                merged["total"] += agg["total"]
                merged["min"] = min(merged["min"], agg["min"])
                merged["max"] = max(merged["max"], agg["max"])
    return {
        "version": SNAPSHOT_VERSION,
        "counters": {k: counters[k] for k in sorted(counters)},
        "histograms": {k: histograms[k] for k in sorted(histograms)},
    }


def database_stats_snapshot(db: Any) -> Dict[str, Any]:
    """Fold every collection's planner/cache counters into one snapshot.

    ``db`` is a :class:`~repro.docdb.database.Database`.  Returns a
    metrics-shaped dict (``{"version", "counters", "histograms"}``) with
    both database-wide totals under the canonical ``db_*`` names and
    per-collection counters under ``db.<collection>.<stat>`` — the
    "planner counters folded into suite metrics" surface the CLI prints
    with ``--metrics``.
    """
    counters: Dict[str, float] = {}
    for coll_name in db.list_collection_names():
        stats = db[coll_name].stats
        for stat_key, canonical in _DB_STAT_NAMES.items():
            value = float(stats.get(stat_key, 0))
            counters[canonical] = counters.get(canonical, 0.0) + value
            counters[f"db.{coll_name}.{stat_key}"] = value
    return {
        "version": SNAPSHOT_VERSION,
        "counters": {k: counters[k] for k in sorted(counters)},
        "histograms": {},
    }


def network_stats_snapshot(network: Any) -> Dict[str, Any]:
    """Fold a :class:`~repro.netsim.network.NetworkSim`'s data-plane
    counters into a metrics-shaped snapshot.

    Returns the canonical ``net_*`` instrument names; every counter is
    deterministic per ``(world, seed, campaign)``, so the campaign
    snapshot stays byte-identical across runs.
    """
    raw = network.counters.snapshot() if hasattr(network, "counters") else {}
    counters: Dict[str, float] = {}
    for stat_key, canonical in _NET_STAT_NAMES.items():
        if stat_key in raw:
            counters[canonical] = float(raw[stat_key])
    return {
        "version": SNAPSHOT_VERSION,
        "counters": {k: counters[k] for k in sorted(counters)},
        "histograms": {},
    }


def wal_stats_snapshot(client: Any) -> Dict[str, Any]:
    """Fold a durable client's WAL counters into a metrics snapshot.

    ``client`` is a :class:`~repro.docdb.client.DocDBClient`; volatile
    clients yield an empty snapshot (nothing to report).
    """
    raw = client.wal_stats() if hasattr(client, "wal_stats") else {}
    counters: Dict[str, float] = {}
    for stat_key, canonical in _WAL_STAT_NAMES.items():
        if stat_key in raw:
            counters[canonical] = float(raw[stat_key])
    return {
        "version": SNAPSHOT_VERSION,
        "counters": {k: counters[k] for k in sorted(counters)},
        "histograms": {},
    }


def format_wal_stats(
    snapshot: Optional[Dict[str, Any]], *, indent: str = "  "
) -> str:
    """Human-readable durability block (empty when volatile)."""
    if not snapshot or not snapshot.get("counters"):
        return ""
    appends = counter_value(snapshot, WAL_APPENDS)
    wal_bytes = counter_value(snapshot, WAL_BYTES)
    fsyncs = counter_value(snapshot, WAL_FSYNCS)
    rotations = counter_value(snapshot, WAL_ROTATIONS)
    last_lsn = counter_value(snapshot, WAL_LAST_LSN)
    ckpt_lsn = counter_value(snapshot, WAL_CHECKPOINT_LSN)
    checkpoints = counter_value(snapshot, WAL_CHECKPOINTS)
    replayed = counter_value(snapshot, WAL_RECORDS_REPLAYED)
    lines = [
        f"{indent}wal: {appends:g} appends ({wal_bytes:g} bytes), "
        f"{fsyncs:g} fsyncs, {rotations:g} rotations",
        f"{indent}wal: lsn {last_lsn:g} (checkpoint {ckpt_lsn:g}, "
        f"{checkpoints:g} checkpoints, {replayed:g} records replayed at open)",
    ]
    torn = counter_value(snapshot, WAL_TORN_BYTES)
    if torn:
        lines.append(f"{indent}wal: torn tail rolled back ({torn:g} bytes)")
    return "\n".join(lines)


def format_database_stats(
    snapshot: Optional[Dict[str, Any]], *, indent: str = "  "
) -> str:
    """Human-readable query-planner block (empty when nothing recorded)."""
    if not snapshot:
        return ""
    hits = counter_value(snapshot, DB_INDEX_HITS)
    scans = counter_value(snapshot, DB_COLLSCANS)
    examined = counter_value(snapshot, DB_DOCS_EXAMINED)
    cache_h = counter_value(snapshot, DB_CACHE_HITS)
    cache_m = counter_value(snapshot, DB_CACHE_MISSES)
    if not any((hits, scans, examined, cache_h, cache_m)):
        return ""
    lines = [
        f"{indent}query planner: {hits:g} index hits, {scans:g} collection "
        f"scans, {examined:g} docs examined",
        f"{indent}query cache: {cache_h:g} hits / {cache_m:g} misses",
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
            f"{indent}retries: {retries:g} "
            f"(gave up: {exhausted:g}, backoff: {backoff_total:.2f} sim s)"
        )
    batches = histogram_stats(snapshot, BATCH_SIZE)
    if batches and batches["count"]:
        mean = batches["total"] / batches["count"]
        lines.append(
            f"{indent}batches: {batches['count']} flushed "
            f"(avg {mean:.1f} docs, max {batches['max']:g})"
        )
    failures = counter_value(snapshot, FLUSH_FAILURES)
    lost = counter_value(snapshot, DOCS_LOST)
    if failures or lost:
        lines.append(
            f"{indent}flush failures: {failures:g} ({lost:g} documents lost)"
        )
    probes = counter_value(snapshot, MON_PROBES)
    breaches = counter_value(snapshot, MON_BREACHES)
    failovers = counter_value(snapshot, MON_FAILOVERS)
    if probes or breaches or failovers:
        suppressed = counter_value(snapshot, MON_FLAPS_SUPPRESSED)
        mttr = histogram_stats(snapshot, MON_MTTR_S)
        line = (
            f"{indent}monitor: {probes:g} probes, {breaches:g} breaches, "
            f"{failovers:g} failovers ({suppressed:g} flaps suppressed)"
        )
        if mttr and mttr["count"]:
            line += f", MTTR {mttr['total'] / mttr['count']:.1f} sim s"
        lines.append(line)
    batch_series = counter_value(snapshot, NET_BATCH_SERIES)
    batch_packets = counter_value(snapshot, NET_BATCH_PACKETS)
    if batch_series:
        lines.append(
            f"{indent}data plane: {batch_series:g} batch series "
            f"({batch_packets:g} packets)"
        )
        sampler_h = counter_value(snapshot, NET_SAMPLER_HITS)
        sampler_m = counter_value(snapshot, NET_SAMPLER_MISSES)
        pruned = counter_value(snapshot, NET_LEDGER_PRUNED)
        if sampler_h or sampler_m or pruned:
            lines.append(
                f"{indent}data plane: sampler cache {sampler_h:g} hits / "
                f"{sampler_m:g} misses, {pruned:g} ledger flows pruned"
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

"""Export figure data as CSV for external plotting.

The text tables are self-contained, but anyone re-drawing the paper's
figures (matplotlib, gnuplot, a spreadsheet) wants machine-readable
series.  Every figure result type gets a row-oriented exporter; the
format is plain ``csv`` module output — no new dependencies.
"""

from __future__ import annotations

import csv
import io
from typing import Any, Dict, List, Sequence

from repro.analysis.bandwidth import BandwidthSeries
from repro.analysis.latency import IsdGroupSeries, PathLatencySeries
from repro.analysis.loss import LossDotSeries
from repro.analysis.reachability import ReachabilityResult
from repro.analysis.stats import WhiskerStats


def _whisker_fields(stats: WhiskerStats) -> Dict[str, Any]:
    return {
        "n": stats.n,
        "mean": stats.mean,
        "min": stats.minimum,
        "q1": stats.q1,
        "median": stats.median,
        "q3": stats.q3,
        "max": stats.maximum,
        "whisker_low": stats.whisker_low,
        "whisker_high": stats.whisker_high,
        "outliers": list(stats.outliers),
    }


def reachability_records(result: ReachabilityResult) -> List[Dict[str, Any]]:
    return [
        {"min_hops": hops, "destinations": count}
        for hops, count in result.rows()
    ]


def latency_records(series: Sequence[PathLatencySeries]) -> List[Dict[str, Any]]:
    return [
        {
            "path_id": s.path_id,
            "path_index": s.path_index,
            "hop_count": s.hop_count,
            **_whisker_fields(s.stats),
        }
        for s in series
    ]


def isd_group_records(groups: Sequence[IsdGroupSeries]) -> List[Dict[str, Any]]:
    return [
        {
            "isds": "+".join(str(i) for i in g.isds),
            "hop_count": g.hop_count,
            "paths": len(g.path_ids),
            **_whisker_fields(g.stats),
        }
        for g in groups
    ]


def bandwidth_records(series: Sequence[BandwidthSeries]) -> List[Dict[str, Any]]:
    out: List[Dict[str, Any]] = []
    for s in series:
        for (direction, packet), stats in sorted(s.whiskers.items()):
            out.append(
                {
                    "path_id": s.path_id,
                    "hop_count": s.hop_count,
                    "target_mbps": s.target_mbps,
                    "direction": direction,
                    "packet": packet,
                    **_whisker_fields(stats),
                }
            )
    return out


def loss_records(series: Sequence[LossDotSeries]) -> List[Dict[str, Any]]:
    out: List[Dict[str, Any]] = []
    for s in series:
        for loss_pct, count in s.dots:
            out.append(
                {
                    "path_id": s.path_id,
                    "path_index": s.path_index,
                    "loss_pct": loss_pct,
                    "measurements": count,
                }
            )
    return out


# ---------------------------------------------------------------------------
# serializers
# ---------------------------------------------------------------------------


def to_csv(records: Sequence[Dict[str, Any]]) -> str:
    """Render records as CSV text (lists flattened to ';'-joined cells)."""
    if not records:
        return ""
    fieldnames = list(records[0].keys())
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for record in records:
        row = {
            key: (";".join(str(v) for v in value) if isinstance(value, list) else value)
            for key, value in record.items()
        }
        writer.writerow(row)
    return buffer.getvalue()


def write_csv(path: str, records: Sequence[Dict[str, Any]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_csv(records))

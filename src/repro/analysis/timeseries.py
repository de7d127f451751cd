"""Time-series analysis of stored measurements.

The paper's Fig 9 discussion *infers* a temporal cause — "since these
measurements were carried out in succession ... our hypothesis is that
one or more of these common nodes experienced a period of congestion" —
but never checks it in the data.  With timestamps on every stored
sample, the reproduction can: this module builds per-path timelines and
detects the simulated-time windows where loss concentrates, confirming
(or refuting) that a failure cluster is a *period*, not a property of
the paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.docdb.database import Database
from repro.suite.config import STATS_COLLECTION


@dataclass(frozen=True)
class LossSample:
    path_id: str
    timestamp_ms: int
    loss_pct: float


@dataclass(frozen=True)
class LossWindow:
    """A contiguous simulated-time interval of heavy loss."""

    start_ms: int
    end_ms: int
    samples: int
    affected_paths: Tuple[str, ...]


def loss_timeline(db: Database, server_id: int) -> List[LossSample]:
    """All loss samples for a destination, in measurement order."""
    docs = db[STATS_COLLECTION].find(
        {"server_id": server_id}, sort=[("timestamp_ms", 1)]
    )
    return [
        LossSample(
            path_id=str(d["path_id"]),
            timestamp_ms=int(d["timestamp_ms"]),
            loss_pct=float(d["loss_pct"]),
        )
        for d in docs
        if d.get("loss_pct") is not None
    ]


def heavy_loss_windows(
    timeline: Sequence[LossSample],
    *,
    threshold_pct: float = 50.0,
    merge_gap_ms: int = 60_000,
) -> List[LossWindow]:
    """Contiguous windows where samples exceed ``threshold_pct`` loss.

    Consecutive heavy samples closer than ``merge_gap_ms`` fold into one
    window — matching how a single congestion period swallows several
    back-to-back measurements.
    """
    heavy = [s for s in timeline if s.loss_pct >= threshold_pct]
    if not heavy:
        return []
    windows: List[LossWindow] = []
    start = heavy[0].timestamp_ms
    end = heavy[0].timestamp_ms
    paths = {heavy[0].path_id}
    count = 1
    for sample in heavy[1:]:
        if sample.timestamp_ms - end <= merge_gap_ms:
            end = sample.timestamp_ms
            paths.add(sample.path_id)
            count += 1
        else:
            windows.append(
                LossWindow(start_ms=start, end_ms=end, samples=count,
                           affected_paths=tuple(sorted(paths)))
            )
            start = end = sample.timestamp_ms
            paths = {sample.path_id}
            count = 1
    windows.append(
        LossWindow(start_ms=start, end_ms=end, samples=count,
                   affected_paths=tuple(sorted(paths)))
    )
    return windows


def temporal_concentration(
    timeline: Sequence[LossSample],
    windows: Sequence[LossWindow],
    *,
    threshold_pct: float = 50.0,
) -> float:
    """Fraction of heavy-loss samples falling inside detected windows.

    1.0 means every failure is temporally clustered — the signature of
    a transient congestion period rather than permanently broken paths.
    """
    heavy = [s for s in timeline if s.loss_pct >= threshold_pct]
    if not heavy:
        return 1.0
    inside = sum(
        1
        for s in heavy
        if any(w.start_ms <= s.timestamp_ms <= w.end_ms for w in windows)
    )
    return inside / len(heavy)

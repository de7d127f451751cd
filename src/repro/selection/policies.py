"""Scoring policies: turn aggregated path statistics into a rank score.

Lower scores are better across every policy so the engine can sort
uniformly.  ``PathAggregate`` is the per-path summary the engine
computes from ``paths_stats`` documents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.errors import ValidationError
from repro.selection.request import Metric


@dataclass(frozen=True)
class PathAggregate:
    """Aggregated measurements for one stored path."""

    path_id: str
    server_id: int
    hop_count: int
    isds: Sequence[int]
    ases: Sequence[str]
    samples: int
    avg_latency_ms: Optional[float]
    latency_stddev_ms: Optional[float]
    avg_loss_pct: float
    avg_bw_down_mbps: Optional[float]
    avg_bw_up_mbps: Optional[float]
    #: The stored path's ``sequence`` and ``hops_display`` fields.
    sequence: str = ""
    hops_display: str = ""

    def usable(self) -> bool:
        """A path with zero successful samples cannot be recommended."""
        return self.samples > 0 and self.avg_latency_ms is not None


class Policy:
    """Base scoring policy; lower score = preferred path."""

    name = "policy"

    def score(self, agg: PathAggregate) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def describe(self, agg: PathAggregate) -> str:
        return f"{self.name} score {self.score(agg):.3f}"


class LatencyPolicy(Policy):
    """Prefer the lowest average round-trip latency."""

    name = "latency"

    def score(self, agg: PathAggregate) -> float:
        return agg.avg_latency_ms if agg.avg_latency_ms is not None else math.inf

    def describe(self, agg: PathAggregate) -> str:
        return f"avg latency {agg.avg_latency_ms:.1f} ms over {agg.samples} samples"


class JitterPolicy(Policy):
    """Prefer latency *consistency* — the §6.1 VoIP/streaming criterion.

    Score = stddev + a small latency tiebreaker, so among equally stable
    paths the faster one wins.
    """

    name = "jitter"

    def score(self, agg: PathAggregate) -> float:
        if agg.latency_stddev_ms is None:
            return math.inf
        tiebreak = (agg.avg_latency_ms or 0.0) * 1e-3
        return agg.latency_stddev_ms + tiebreak

    def describe(self, agg: PathAggregate) -> str:
        return (
            f"latency spread {agg.latency_stddev_ms:.2f} ms "
            f"(avg {agg.avg_latency_ms:.1f} ms)"
        )


class BandwidthPolicy(Policy):
    """Prefer the highest measured bandwidth (down- or upstream)."""

    def __init__(self, *, downstream: bool = True) -> None:
        self.downstream = downstream
        self.name = "bandwidth_down" if downstream else "bandwidth_up"

    def score(self, agg: PathAggregate) -> float:
        bw = agg.avg_bw_down_mbps if self.downstream else agg.avg_bw_up_mbps
        return -bw if bw is not None else math.inf

    def describe(self, agg: PathAggregate) -> str:
        bw = agg.avg_bw_down_mbps if self.downstream else agg.avg_bw_up_mbps
        direction = "downstream" if self.downstream else "upstream"
        return f"avg {direction} bandwidth {bw:.1f} Mbps"


class LossPolicy(Policy):
    """Prefer the lowest average packet loss."""

    name = "loss"

    def score(self, agg: PathAggregate) -> float:
        # Latency tiebreaker: most paths sit at 0% loss (Fig 9).
        return agg.avg_loss_pct + (agg.avg_latency_ms or 0.0) * 1e-4

    def describe(self, agg: PathAggregate) -> str:
        return f"avg loss {agg.avg_loss_pct:.2f}%"


class CompositePolicy(Policy):
    """Weighted blend of normalised metrics.

    Each metric is min-max normalised over the candidate set (so weights
    are comparable), then combined; the candidate set must therefore be
    supplied via :meth:`fit` before scoring.
    """

    name = "composite"

    _EXTRACTORS = {
        "latency": lambda a: a.avg_latency_ms,
        "jitter": lambda a: a.latency_stddev_ms,
        "loss": lambda a: a.avg_loss_pct,
        # Bandwidths are benefits: negate so that lower stays better.
        "bandwidth_down": lambda a: -(a.avg_bw_down_mbps or 0.0),
        "bandwidth_up": lambda a: -(a.avg_bw_up_mbps or 0.0),
    }

    def __init__(self, weights: Dict[str, float]) -> None:
        unknown = set(weights) - set(self._EXTRACTORS)
        if unknown:
            raise ValidationError(f"unknown composite metrics: {sorted(unknown)}")
        if not weights or all(w == 0 for w in weights.values()):
            raise ValidationError("composite weights must not be empty/zero")
        self.weights = dict(weights)
        self._ranges: Dict[str, tuple] = {}

    def fit(self, candidates: List[PathAggregate]) -> "CompositePolicy":
        for metric in self.weights:
            values = [
                v
                for v in (self._EXTRACTORS[metric](a) for a in candidates)
                if v is not None
            ]
            if values:
                self._ranges[metric] = (min(values), max(values))
        return self

    def score(self, agg: PathAggregate) -> float:
        total = 0.0
        for metric, weight in self.weights.items():
            raw = self._EXTRACTORS[metric](agg)
            if raw is None:
                return math.inf
            lo, hi = self._ranges.get(metric, (raw, raw))
            normalised = 0.0 if hi == lo else (raw - lo) / (hi - lo)
            total += weight * normalised
        return total

    def describe(self, agg: PathAggregate) -> str:
        parts = ", ".join(f"{m}*{w:g}" for m, w in self.weights.items())
        return f"composite({parts}) = {self.score(agg):.3f}"


def policy_for(metric: Metric, weights: Optional[Dict[str, float]] = None) -> Policy:
    """Factory mapping a request metric onto a policy instance."""
    if metric is Metric.LATENCY:
        return LatencyPolicy()
    if metric is Metric.JITTER:
        return JitterPolicy()
    if metric is Metric.BANDWIDTH_DOWN:
        return BandwidthPolicy(downstream=True)
    if metric is Metric.BANDWIDTH_UP:
        return BandwidthPolicy(downstream=False)
    if metric is Metric.LOSS:
        return LossPolicy()
    if metric is Metric.COMPOSITE:
        return CompositePolicy(weights or {})
    raise ValidationError(f"unsupported metric: {metric}")

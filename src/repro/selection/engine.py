"""The selection engine: query the database, filter, score, rank.

This is the query side of the paper's pipeline — "this database is then
queried to provide users with the best possible path they can choose
for reaching a specific destination, based on performance, geographic
placement of devices traversed, and operators that run them".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.docdb.database import Database
from repro.errors import NoPathError
from repro.selection.policies import (
    CompositePolicy,
    PathAggregate,
    Policy,
    policy_for,
)
from repro.selection.request import Metric, UserRequest
from repro.suite.config import PATHS_COLLECTION, STATS_COLLECTION
from repro.topology.entities import AutonomousSystem
from repro.topology.graph import Topology
from repro.topology.isd_as import ISDAS


@dataclass(frozen=True)
class RankedPath:
    """One candidate path with its score and human explanation."""

    aggregate: PathAggregate
    score: float
    explanation: str
    sequence: str
    hops_display: str


@dataclass
class SelectionResult:
    """Outcome of a selection query."""

    request: UserRequest
    best: Optional[RankedPath]
    alternatives: List[RankedPath] = field(default_factory=list)
    excluded: Dict[str, List[str]] = field(default_factory=dict)

    @property
    def ranked(self) -> List[RankedPath]:
        return ([self.best] if self.best else []) + self.alternatives

    def format_text(self) -> str:
        from repro.selection.explain import render_selection

        return render_selection(self)


class PathSelector:
    """Answers user path requests from the measurement database."""

    def __init__(self, db: Database, topology: Topology) -> None:
        self.db = db
        self.topology = topology

    # -- aggregation -------------------------------------------------------------

    def aggregates(
        self, server_id: int, *, since_ms: Optional[int] = None
    ) -> List[PathAggregate]:
        """Per-path measurement summaries for one destination.

        ``since_ms`` restricts to samples taken at or after that
        timestamp — what a *live* controller uses so stale measurements
        do not dilute fresh congestion signals.
        """
        match: Dict[str, object] = {"server_id": server_id}
        if since_ms is not None:
            match["timestamp_ms"] = {"$gte": since_ms}
        grouped = self.db[STATS_COLLECTION].aggregate(
            [
                {"$match": match},
                {
                    "$group": {
                        "_id": "$path_id",
                        "samples": {"$sum": 1},
                        "avg_latency": {"$avg": "$avg_latency_ms"},
                        "latency_stddev": {"$stdDevPop": "$avg_latency_ms"},
                        "avg_loss": {"$avg": "$loss_pct"},
                        "avg_bw_down": {"$avg": "$bw_down_mtu_mbps"},
                        "avg_bw_up": {"$avg": "$bw_up_mtu_mbps"},
                    }
                },
            ]
        )
        by_path = {g["_id"]: g for g in grouped}
        out: List[PathAggregate] = []
        for path_doc in self.db[PATHS_COLLECTION].find(
            {"server_id": server_id}, sort=[("path_index", 1)]
        ):
            g = by_path.get(path_doc["_id"])
            if g is None:
                continue
            out.append(
                PathAggregate(
                    path_id=str(path_doc["_id"]),
                    server_id=server_id,
                    hop_count=int(path_doc["hop_count"]),
                    isds=list(path_doc["isds"]),
                    ases=list(path_doc["ases"]),
                    samples=int(g["samples"]),
                    avg_latency_ms=g["avg_latency"],
                    latency_stddev_ms=g["latency_stddev"],
                    avg_loss_pct=float(g["avg_loss"] or 0.0),
                    avg_bw_down_mbps=g["avg_bw_down"],
                    avg_bw_up_mbps=g["avg_bw_up"],
                    sequence=str(path_doc.get("sequence", "")),
                    hops_display=str(path_doc.get("hops_display", "")),
                )
            )
        return out

    # -- filtering ------------------------------------------------------------------

    def _violations(
        self,
        agg: PathAggregate,
        request: UserRequest,
        ases: Dict[str, AutonomousSystem],
    ) -> List[str]:
        """Why this path is inadmissible (empty = admissible); ``ases``
        maps each AS string of the path to its AS."""
        reasons: List[str] = []
        if agg.path_id in request.exclude_paths:
            reasons.append("path explicitly excluded (failover/revocation)")
        for ia_str in agg.ases:
            asys = ases[ia_str]
            if asys.country.upper() in request.exclude_countries:
                reasons.append(f"traverses country {asys.country} ({ia_str})")
            if asys.operator in request.exclude_operators:
                reasons.append(f"traverses operator {asys.operator} ({ia_str})")
            if ia_str in request.exclude_ases:
                reasons.append(f"traverses excluded AS {ia_str}")
        for isd in agg.isds:
            if isd in request.exclude_isds:
                reasons.append(f"traverses excluded ISD {isd}")
        if not agg.usable():
            reasons.append("no successful measurements")
        if (
            request.max_latency_ms is not None
            and agg.avg_latency_ms is not None
            and agg.avg_latency_ms > request.max_latency_ms
        ):
            reasons.append(
                f"latency {agg.avg_latency_ms:.1f} ms exceeds "
                f"{request.max_latency_ms:.1f} ms"
            )
        if request.max_loss_pct is not None and agg.avg_loss_pct > request.max_loss_pct:
            reasons.append(
                f"loss {agg.avg_loss_pct:.1f}% exceeds {request.max_loss_pct:.1f}%"
            )
        if (
            request.min_bandwidth_down_mbps is not None
            and (agg.avg_bw_down_mbps or 0.0) < request.min_bandwidth_down_mbps
        ):
            reasons.append(
                f"downstream bandwidth below {request.min_bandwidth_down_mbps:.1f} Mbps"
            )
        return reasons

    # -- selection ----------------------------------------------------------------------

    def select(
        self,
        request: UserRequest,
        *,
        top_k: int = 5,
        since_ms: Optional[int] = None,
    ) -> SelectionResult:
        """Pick the best admissible path for ``request``."""
        candidates = self.aggregates(request.server_id, since_ms=since_ms)
        if not candidates:
            raise NoPathError(
                f"no measured paths for destination {request.server_id} "
                "(run the test-suite first)"
            )
        # Each distinct AS is resolved once per select, in first-use order.
        ases = {
            ia_str: self.topology.as_of(ia_str)
            for ia_str in dict.fromkeys(ia for agg in candidates for ia in agg.ases)
        }
        admissible: List[PathAggregate] = []
        excluded: Dict[str, List[str]] = {}
        for agg in candidates:
            reasons = self._violations(agg, request, ases)
            if reasons:
                excluded[agg.path_id] = reasons
            else:
                admissible.append(agg)

        result = SelectionResult(request=request, best=None, excluded=excluded)
        if not admissible:
            return result

        policy = policy_for(request.metric, request.weights)
        if isinstance(policy, CompositePolicy):
            policy.fit(admissible)

        ranked = sorted(
            (self._rank(agg, policy) for agg in admissible),
            key=lambda r: (r.score, r.aggregate.path_id),
        )
        result.best = ranked[0]
        result.alternatives = ranked[1 : 1 + max(0, top_k - 1)]
        return result

    def _rank(self, agg: PathAggregate, policy: Policy) -> RankedPath:
        return RankedPath(
            aggregate=agg,
            score=policy.score(agg),
            explanation=policy.describe(agg),
            sequence=agg.sequence,
            hops_display=agg.hops_display,
        )

    # -- recommendation (the paper's stated future-work feature) ---------------------------

    def recommend(self, server_id: int, *, top_k: int = 3) -> Dict[str, List[RankedPath]]:
        """Best paths per optimisation criterion — a menu for the user."""
        menu: Dict[str, List[RankedPath]] = {}
        for metric in (
            Metric.LATENCY,
            Metric.JITTER,
            Metric.BANDWIDTH_DOWN,
            Metric.LOSS,
        ):
            request = UserRequest.make(server_id, metric)
            try:
                result = self.select(request, top_k=top_k)
            except NoPathError:
                continue
            menu[metric.value] = result.ranked[:top_k]
        return menu

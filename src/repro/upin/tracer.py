"""Path Tracer: gather measurements on active traffic (§2.1).

"The Path Tracer gathers measurements on the traffic in the UPIN
domain.  The goal is to store important details for the possible
verification."  The tracer runs SCMP traceroutes along installed flows
and stores the observed hop sequences in the database, which is exactly
what the verifier later replays against the user's intent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.docdb.database import Database
from repro.scion.scmp import ScmpService
from repro.scion.snet import ScionHost
from repro.upin.controller import FlowRule
from repro.util.timefmt import TimestampSource

TRACES_COLLECTION = "path_traces"


@dataclass(frozen=True)
class TraceRecord:
    """One stored trace of one flow.

    ``path_fingerprint`` pins the trace to the concrete path the flow
    was on *when the trace ran*.  After a failover the flow's rule
    carries a different path, and the verifier uses the fingerprint to
    tell "the network disobeyed the intent" (same path, different
    hops — a real violation) from "this trace predates the failover"
    (different path — stale evidence, not a violation).
    """

    flow_user: str
    server_id: int
    timestamp_ms: int
    observed_hops: Tuple[str, ...]
    observed_interfaces: Tuple[int, ...]
    rtts_ms: Tuple[Optional[float], ...]
    #: Fingerprint of the path the rule was pinned to at trace time
    #: ("" on documents that predate fingerprinting).
    path_fingerprint: str = ""

    def to_document(self) -> Dict[str, Any]:
        return {
            "_id": f"{self.flow_user}_{self.server_id}_{self.timestamp_ms}",
            "user": self.flow_user,
            "server_id": self.server_id,
            "timestamp_ms": self.timestamp_ms,
            "observed_hops": list(self.observed_hops),
            "observed_interfaces": list(self.observed_interfaces),
            "rtts_ms": list(self.rtts_ms),
            "path_fingerprint": self.path_fingerprint,
        }


class PathTracer:
    """Traces installed flows and persists the observations."""

    def __init__(self, host: ScionHost, db: Database) -> None:
        self.host = host
        self.db = db
        self._timestamps = TimestampSource(now_ms=lambda: host.clock.now_ms)

    def trace_flow(self, rule: FlowRule) -> TraceRecord:
        """Run a traceroute along the flow's pinned path and store it."""
        hops = self.host.scmp.traceroute(rule.path)
        record = TraceRecord(
            flow_user=rule.user,
            server_id=rule.server_id,
            timestamp_ms=self._timestamps.next(),
            observed_hops=tuple(str(h.isd_as) for h in hops),
            observed_interfaces=tuple(h.interface for h in hops),
            rtts_ms=tuple(
                (sorted(r for r in h.rtts_ms if r is not None) or [None])[0]
                for h in hops
            ),
            path_fingerprint=rule.path.fingerprint(),
        )
        self.db[TRACES_COLLECTION].insert_one(record.to_document())
        return record


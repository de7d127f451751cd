"""Append-only structured journal of everything the monitor does.

Every observation, state transition, revocation and failover lands as
one immutable document in the ``flow_events`` collection, in strict
monotonic sequence order.  The journal is the monitor's source of
truth: ``upin-frontend monitor events`` prints it, the failover report
aggregates it, and :func:`repro.monitor.health.replay_events` rebuilds
the exact tracker state from it (the auditability property the paper's
"possible verification" goal asks of every control decision).

Event types (``EVENT_TYPES`` — docs/MONITOR.md's reference table is
diff-tested against this set):

==================== =====================================================
``flow_registered``  a flow entered monitoring (also re-emitted after a
                     failover re-registers the flow on its new path)
``sample``           one health observation folded into the tracker
``state_transition`` the tracker changed a flow's health state
``revocation``       an interface revocation was injected
``failover``         a flow was atomically rerouted (old/new path, cause,
                     detection→recovery latency)
``failover_suppressed`` a wanted failover was damped by the cooldown
``failover_failed``  reselection found no admissible replacement path
==================== =====================================================

Events appended inside :meth:`FlowEventJournal.batch` (one monitor
round, one revocation) are written together as one ``insert_many``: one
epoch bump and, on a durable store, one atomic WAL record — the same
all-or-nothing batch contract the suite's statistics flush uses
(§4.2.2).  An event appended outside a batch is written at once.

The journal creates no secondary index: a round only appends, and its
readers (``events``, the failover report) run once, at report time,
where a scan costs less than keeping an index up to date on every
append.  A store written while the journal still created its ``type``
and ``(user, server_id)`` indexes reopens with them kept.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from repro.docdb.collection import Collection

FLOW_EVENTS_COLLECTION = "flow_events"

EVENT_FLOW_REGISTERED = "flow_registered"
EVENT_SAMPLE = "sample"
EVENT_STATE_TRANSITION = "state_transition"
EVENT_REVOCATION = "revocation"
EVENT_FAILOVER = "failover"
EVENT_FAILOVER_SUPPRESSED = "failover_suppressed"
EVENT_FAILOVER_FAILED = "failover_failed"

#: Every event type the journal can emit (tested against the docs).
EVENT_TYPES = frozenset(
    {
        EVENT_FLOW_REGISTERED,
        EVENT_SAMPLE,
        EVENT_STATE_TRANSITION,
        EVENT_REVOCATION,
        EVENT_FAILOVER,
        EVENT_FAILOVER_SUPPRESSED,
        EVENT_FAILOVER_FAILED,
    }
)


class FlowEventJournal:
    """Sequenced writer/reader for the ``flow_events`` collection."""

    def __init__(self, collection: Collection) -> None:
        self.collection = collection
        # Resume the sequence when attached to a pre-existing journal.
        existing = collection.find({}, sort=[("seq", -1)], limit=1)
        self._seq = int(existing[0]["seq"]) + 1 if existing else 0
        #: Events of the open batch, not yet written; None outside one.
        self._pending: Optional[List[Dict[str, Any]]] = None

    def __len__(self) -> int:
        return self.collection.count_documents()

    # -- append side -----------------------------------------------------------

    def append(
        self,
        event_type: str,
        t_s: float,
        *,
        user: Optional[str] = None,
        server_id: Optional[int] = None,
        **payload: Any,
    ) -> Dict[str, Any]:
        """Append one event; returns the document it writes."""
        if event_type not in EVENT_TYPES:
            raise ValueError(f"unknown event type: {event_type!r}")
        doc: Dict[str, Any] = {
            "_id": f"flowevt_{self._seq:08d}",
            "seq": self._seq,
            "type": event_type,
            "t_s": t_s,
            "timestamp_ms": int(t_s * 1000.0),
            "user": user,
            "server_id": server_id,
        }
        doc.update(payload)
        if self._pending is None:
            self.collection.insert_many([doc])
        else:
            self._pending.append(doc)
        self._seq += 1
        return doc

    @contextmanager
    def batch(self) -> Iterator[None]:
        """Write the events appended inside as one ``insert_many``.

        The events keep their ``seq`` order.  A nested batch joins the
        outer one, and the batch is written even when its body raises,
        so no appended event is lost.
        """
        if self._pending is not None:
            yield
            return
        self._pending = []
        try:
            yield
        finally:
            pending, self._pending = self._pending, None
            if pending:
                self.collection.insert_many(pending)

    # -- query side ------------------------------------------------------------

    def events(
        self,
        *,
        event_type: Optional[str] = None,
        user: Optional[str] = None,
        server_id: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """Journal entries in append order, optionally filtered."""
        flt: Dict[str, Any] = {}
        if event_type is not None:
            flt["type"] = event_type
        if user is not None:
            flt["user"] = user
        if server_id is not None:
            flt["server_id"] = server_id
        return self.collection.find(flt, sort=[("seq", 1)])

    def failovers(self) -> List[Dict[str, Any]]:
        return self.events(event_type=EVENT_FAILOVER)

    def transitions(
        self, user: Optional[str] = None, server_id: Optional[int] = None
    ) -> List[Dict[str, Any]]:
        return self.events(
            event_type=EVENT_STATE_TRANSITION, user=user, server_id=server_id
        )

    # -- reporting ------------------------------------------------------------

    def failover_report(self) -> str:
        """Human summary of every failover with time-to-repair."""
        failovers = self.failovers()
        suppressed = self.events(event_type=EVENT_FAILOVER_SUPPRESSED)
        failed = self.events(event_type=EVENT_FAILOVER_FAILED)
        lines = [
            f"failover report: {len(failovers)} failover(s), "
            f"{len(suppressed)} suppressed by cooldown, "
            f"{len(failed)} with no replacement path"
        ]
        repairs: List[float] = []
        for doc in failovers:
            ttr = doc.get("detection_to_recovery_s")
            if ttr is not None:
                repairs.append(float(ttr))
            lines.append(
                f"  [{doc['t_s']:8.1f}s] {doc['user']}/{doc['server_id']}: "
                f"{doc['old_path_id']} -> {doc['new_path_id']}"
            )
            lines.append(
                f"             cause: {doc['cause']}"
                + (
                    f"  detection->recovery: {float(ttr):.1f}s"
                    if ttr is not None
                    else ""
                )
            )
        if repairs:
            lines.append(
                f"  mean time-to-repair: {sum(repairs) / len(repairs):.1f}s "
                f"(max {max(repairs):.1f}s)"
            )
        if not failovers:
            lines.append("  (no failovers recorded)")
        return "\n".join(lines)

    def format_events(self, *, limit: Optional[int] = None) -> str:
        """The journal as readable lines (newest last)."""
        docs = self.events()
        if limit is not None:
            docs = docs[-limit:]
        lines: List[str] = []
        for doc in docs:
            flow = (
                f"{doc['user']}/{doc['server_id']}"
                if doc.get("user") is not None
                else "-"
            )
            detail = _event_detail(doc)
            lines.append(
                f"  #{doc['seq']:04d} [{doc['t_s']:8.1f}s] "
                f"{doc['type']:20s} {flow:14s} {detail}"
            )
        return "\n".join(lines) if lines else "  (journal empty)"


def _event_detail(doc: Dict[str, Any]) -> str:
    etype = doc["type"]
    if etype == EVENT_SAMPLE:
        lat = doc.get("latency_ms")
        lat_txt = f"{lat:.1f}ms" if lat is not None else "lost"
        return (
            f"{doc.get('source', 'probe')}: {lat_txt} "
            f"loss {doc.get('loss_pct', 0.0):.0f}% "
            f"breach={doc.get('breach')}"
        )
    if etype == EVENT_STATE_TRANSITION:
        return f"{doc['from']} -> {doc['to']} ({doc['cause']})"
    if etype == EVENT_FAILOVER:
        return (
            f"{doc['old_path_id']} -> {doc['new_path_id']} ({doc['cause']})"
        )
    if etype == EVENT_FAILOVER_SUPPRESSED:
        return f"cooldown {doc.get('cooldown_remaining_s', 0.0):.1f}s left"
    if etype == EVENT_FAILOVER_FAILED:
        return str(doc.get("cause", ""))
    if etype == EVENT_REVOCATION:
        return f"{doc['isd_as']}#{doc['interface']} ({doc.get('reason', '')})"
    if etype == EVENT_FLOW_REGISTERED:
        return f"path {doc['path_id']}"
    return ""

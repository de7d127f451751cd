"""EWMA flow-health tracking with K-of-N hysteresis.

One :class:`FlowHealthTracker` watches every installed flow.  Each
monitoring round folds fresh measurement samples (``paths_stats``
documents and targeted SCMP probes) into per-flow exponentially
weighted moving averages, evaluates them against the flow's
:class:`~repro.monitor.slo.FlowSLO`, and advances a small state
machine:

::

              breaches appear               >= K of last N breach
      OK  ───────────────────▶  DEGRADED  ─────────────────────▶  VIOLATED
       ▲                            │  window clean again              │
       └────────────────────────────┘◀──── window clean ───────────────┘
                                         (recovery; failover resets)

      any state ──── path traverses an active revocation ────▶  DEAD

Hysteresis laws (property-tested in ``tests/test_monitor_properties``):

* a flow only reaches VIOLATED when at least ``K`` of its last ``N``
  samples breached the SLO — one bad probe never reroutes anybody;
* recovery back to OK requires the *whole* window clean, so a flow
  cannot oscillate OK↔VIOLATED on alternating samples;
* the tracker is a pure fold over its observation stream: replaying
  the journal's sample events through a fresh tracker reconstructs the
  exact tracker state (see :func:`replay_events`).

The tracker never performs I/O; the monitor loop feeds it and reacts
to the transitions it reports.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.errors import ValidationError
from repro.monitor.slo import FlowSLO

FlowKey = Tuple[str, int]  # (user, server_id)

#: EWMA smoothing factor: weight of the newest sample.
DEFAULT_EWMA_ALPHA = 0.4


class FlowHealth(enum.Enum):
    """The four health states of a monitored flow."""

    OK = "ok"
    DEGRADED = "degraded"
    VIOLATED = "violated"
    DEAD = "dead"


@dataclass(frozen=True)
class HealthSample:
    """One health observation for a flow's pinned path.

    ``latency_ms``/``bw_down_mbps`` may be None (a fully lost probe has
    no RTT; stats rows carry no bandwidth when the transfer failed) —
    EWMA state then keeps its previous value and only loss moves.
    """

    t_s: float
    loss_pct: float
    latency_ms: Optional[float] = None
    bw_down_mbps: Optional[float] = None
    source: str = "probe"  # "probe" | "stats"

    def __post_init__(self) -> None:
        if not (0.0 <= self.loss_pct <= 100.0):
            raise ValidationError(f"loss_pct out of range: {self.loss_pct}")
        if self.latency_ms is not None and (
            self.latency_ms < 0 or math.isnan(self.latency_ms)
        ):
            raise ValidationError(f"bad latency sample: {self.latency_ms}")

    def to_payload(self) -> Dict[str, Any]:
        """Journal payload; ``t_s`` travels on the event doc itself."""
        return {
            "loss_pct": self.loss_pct,
            "latency_ms": self.latency_ms,
            "bw_down_mbps": self.bw_down_mbps,
            "source": self.source,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "HealthSample":
        return cls(
            t_s=float(payload["t_s"]),
            loss_pct=float(payload["loss_pct"]),
            latency_ms=payload.get("latency_ms"),
            bw_down_mbps=payload.get("bw_down_mbps"),
            source=str(payload.get("source", "probe")),
        )


@dataclass(frozen=True)
class Observation:
    """What folding one sample did: was it a breach, did state change."""

    breached: bool
    transition: Optional["Transition"]


@dataclass(frozen=True)
class Transition:
    """One state change reported by the tracker."""

    key: FlowKey
    from_state: FlowHealth
    to_state: FlowHealth
    t_s: float
    cause: str
    #: Time of the first breach of the streak that caused the alarm
    #: (None for recoveries) — the "detection" end of time-to-repair.
    first_breach_s: Optional[float] = None


@dataclass
class _FlowState:
    """Mutable per-flow tracking state."""

    slo: FlowSLO
    path_id: str
    state: FlowHealth = FlowHealth.OK
    window: Deque[bool] = field(default_factory=deque)  # newest right
    ewma_latency_ms: Optional[float] = None
    ewma_loss_pct: Optional[float] = None
    ewma_bw_down_mbps: Optional[float] = None
    samples: int = 0
    breaches: int = 0
    last_sample_s: Optional[float] = None
    #: First breach of the current uninterrupted breach presence
    #: (reset when the window goes fully clean).
    first_breach_s: Optional[float] = None
    last_transition_s: float = 0.0
    dead_cause: Optional[str] = None

    def snapshot(self) -> Dict[str, Any]:
        """JSON-friendly view; equality of snapshots == equality of state."""
        return {
            "path_id": self.path_id,
            "state": self.state.value,
            "window": list(self.window),
            "ewma_latency_ms": self.ewma_latency_ms,
            "ewma_loss_pct": self.ewma_loss_pct,
            "ewma_bw_down_mbps": self.ewma_bw_down_mbps,
            "samples": self.samples,
            "breaches": self.breaches,
            "last_sample_s": self.last_sample_s,
            "first_breach_s": self.first_breach_s,
            "dead_cause": self.dead_cause,
        }


class FlowHealthTracker:
    """Folds health samples into hysteresis-filtered per-flow state."""

    def __init__(self, *, ewma_alpha: float = DEFAULT_EWMA_ALPHA) -> None:
        if not (0.0 < ewma_alpha <= 1.0):
            raise ValidationError("ewma_alpha must be in (0, 1]")
        self.ewma_alpha = ewma_alpha
        self._flows: Dict[FlowKey, _FlowState] = {}

    # -- registration ----------------------------------------------------------

    def register(
        self, key: FlowKey, slo: FlowSLO, path_id: str, t_s: float
    ) -> None:
        """Start (or restart, after a failover) tracking a flow.

        Registration resets all smoothed state — the samples belonged
        to the *old* path, and judging a fresh path by them is exactly
        the staleness bug the failover/verifier interplay fixes.
        """
        self._flows[key] = _FlowState(
            slo=slo, path_id=path_id, last_transition_s=t_s
        )

    def is_tracked(self, key: FlowKey) -> bool:
        return key in self._flows

    def state_of(self, key: FlowKey) -> FlowHealth:
        return self._state(key).state

    def slo_of(self, key: FlowKey) -> FlowSLO:
        return self._state(key).slo

    def first_breach_of(self, key: FlowKey) -> Optional[float]:
        return self._state(key).first_breach_s

    def _state(self, key: FlowKey) -> _FlowState:
        st = self._flows.get(key)
        if st is None:
            raise ValidationError(f"flow {key!r} is not tracked")
        return st

    # -- observation fold ------------------------------------------------------

    def observe(self, key: FlowKey, sample: HealthSample) -> Observation:
        """Fold one sample; reports the breach flag and any transition.

        DEAD is sticky: a revoked path stays dead no matter what later
        samples say — only re-registration (failover) clears it.
        """
        st = self._state(key)
        st.samples += 1
        st.last_sample_s = sample.t_s
        a = self.ewma_alpha

        def fold(prev: Optional[float], x: Optional[float]) -> Optional[float]:
            if x is None:
                return prev
            return x if prev is None else a * x + (1.0 - a) * prev

        st.ewma_latency_ms = fold(st.ewma_latency_ms, sample.latency_ms)
        st.ewma_loss_pct = fold(st.ewma_loss_pct, sample.loss_pct)
        st.ewma_bw_down_mbps = fold(st.ewma_bw_down_mbps, sample.bw_down_mbps)

        breached = bool(self._breach_reasons(st))
        st.window.append(breached)
        while len(st.window) > st.slo.window_n:
            st.window.popleft()
        if breached:
            st.breaches += 1
            if st.first_breach_s is None:
                st.first_breach_s = sample.t_s

        if st.state is FlowHealth.DEAD:
            return Observation(breached=breached, transition=None)
        return Observation(
            breached=breached, transition=self._advance(key, st, sample.t_s)
        )

    def observe_staleness(self, key: FlowKey, now_s: float) -> Optional[Transition]:
        """Count a data gap as a breach (no sample within max_staleness_s).

        Only meaningful when probing is disabled — an actively probed
        flow always has fresh samples.
        """
        st = self._state(key)
        last = st.last_sample_s
        if last is not None and now_s - last <= st.slo.max_staleness_s:
            return None
        st.window.append(True)
        while len(st.window) > st.slo.window_n:
            st.window.popleft()
        st.breaches += 1
        if st.first_breach_s is None:
            st.first_breach_s = now_s
        if st.state is FlowHealth.DEAD:
            return None
        return self._advance(key, st, now_s, cause="staleness")

    def mark_dead(self, key: FlowKey, cause: str, t_s: float) -> Optional[Transition]:
        """Immediately declare the flow dead (revocation path)."""
        st = self._state(key)
        if st.state is FlowHealth.DEAD:
            return None
        prev = st.state
        st.state = FlowHealth.DEAD
        st.dead_cause = cause
        st.last_transition_s = t_s
        if st.first_breach_s is None:
            st.first_breach_s = t_s
        return Transition(
            key=key,
            from_state=prev,
            to_state=FlowHealth.DEAD,
            t_s=t_s,
            cause=cause,
            first_breach_s=st.first_breach_s,
        )

    def _breach_reasons(self, st: _FlowState) -> List[str]:
        """Why the smoothed state currently breaches the SLO."""
        slo = st.slo
        reasons: List[str] = []
        if (
            slo.max_latency_ms is not None
            and st.ewma_latency_ms is not None
            and st.ewma_latency_ms > slo.max_latency_ms
        ):
            reasons.append(
                f"latency {st.ewma_latency_ms:.1f}ms > {slo.max_latency_ms:g}ms"
            )
        if st.ewma_loss_pct is not None and st.ewma_loss_pct > slo.max_loss_pct:
            reasons.append(
                f"loss {st.ewma_loss_pct:.1f}% > {slo.max_loss_pct:g}%"
            )
        if (
            slo.min_bandwidth_down_mbps is not None
            and st.ewma_bw_down_mbps is not None
            and st.ewma_bw_down_mbps < slo.min_bandwidth_down_mbps
        ):
            reasons.append(
                f"bw {st.ewma_bw_down_mbps:.1f}Mbps < "
                f"{slo.min_bandwidth_down_mbps:g}Mbps"
            )
        return reasons

    def breach_reasons(self, key: FlowKey) -> List[str]:
        return self._breach_reasons(self._state(key))

    def _advance(
        self, key: FlowKey, st: _FlowState, t_s: float, *, cause: str = ""
    ) -> Optional[Transition]:
        """Run the K-of-N state machine after the window moved."""
        count = sum(st.window)
        if count >= st.slo.breach_k:
            target = FlowHealth.VIOLATED
        elif count > 0:
            # Hysteresis: an alarmed flow stays alarmed until the window
            # is fully clean — partial recovery only downgrades flows
            # that never alarmed.
            target = (
                FlowHealth.VIOLATED
                if st.state is FlowHealth.VIOLATED
                else FlowHealth.DEGRADED
            )
        else:
            target = FlowHealth.OK
            st.first_breach_s = None
        if target is st.state:
            return None
        prev = st.state
        st.state = target
        st.last_transition_s = t_s
        if not cause:
            if target is FlowHealth.OK:
                cause = "window clean"
            else:
                reasons = self._breach_reasons(st)
                cause = "; ".join(reasons) if reasons else f"{count} breach(es)"
        return Transition(
            key=key,
            from_state=prev,
            to_state=target,
            t_s=t_s,
            cause=cause,
            first_breach_s=st.first_breach_s,
        )

    # -- introspection ---------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Deterministic JSON-friendly dump of every tracked flow."""
        return {
            f"{user}/{server_id}": self._flows[(user, server_id)].snapshot()
            for user, server_id in sorted(self._flows)
        }

    def counts_by_state(self) -> Dict[str, int]:
        out = {h.value: 0 for h in FlowHealth}
        for st in self._flows.values():
            out[st.state.value] += 1
        return out


def replay_events(events: List[Dict[str, Any]]) -> FlowHealthTracker:
    """Reconstruct tracker state from journal documents.

    Consumes ``flow_registered`` (register/reset), ``sample`` (observe),
    ``state_transition`` with ``to == "dead"`` (revocation kills) and
    ``failover`` (the engine re-registers, which the journal records as
    a fresh ``flow_registered`` — nothing extra to do here).  The result
    must satisfy ``replayed.snapshot() == live.snapshot()``; the
    property tests enforce it.
    """
    tracker = FlowHealthTracker()
    for doc in sorted(events, key=lambda d: d["seq"]):
        if doc.get("user") is None or doc.get("server_id") is None:
            # Journal-wide events (revocations, round markers) carry no
            # flow key and do not move tracker state.
            continue
        key = (str(doc["user"]), int(doc["server_id"]))
        etype = doc["type"]
        if etype == "flow_registered":
            tracker.register(
                key,
                FlowSLO.from_document(doc["slo"]),
                str(doc["path_id"]),
                float(doc["t_s"]),
            )
        elif etype == "sample":
            tracker.observe(key, HealthSample.from_payload(doc))
        elif etype == "state_transition" and doc["to"] == FlowHealth.DEAD.value:
            tracker.mark_dead(key, str(doc["cause"]), float(doc["t_s"]))
    return tracker

"""The monitor control loop: one pass per measurement round.

:class:`FlowMonitor` is the piece that ties the subsystem together and
plugs into :class:`~repro.suite.scheduler.MonitoringScheduler` as a
round hook.  Each pass it

1. reacts to revocations — flows pinned to a revoked interface are
   marked DEAD and force-failed-over immediately;
2. folds every *fresh* ``paths_stats`` sample for each flow's pinned
   path into the health tracker (a per-flow cursor guarantees each
   sample is folded exactly once); the samples are read once per
   pinned path and cursor, not once per flow;
3. sends a lightweight targeted SCMP probe along each distinct pinned
   path (3 echoes by default — two orders of magnitude cheaper than a
   measurement round), when the pass first reaches a flow on it, and
   feeds that one sample to every flow on the path, so a flow's health
   never goes stale between campaign samples;
4. hands VIOLATED flows to the :class:`~repro.monitor.failover.
   FailoverEngine`, which respects the SLO cooldown, and re-registers
   swapped flows on their new path.

The pass visits flows in ``(user, server_id)`` order, and its journal
events are written as one batch (:meth:`~repro.monitor.journal.
FlowEventJournal.batch`).

Everything runs on the shared :class:`~repro.netsim.clock.SimClock`;
two runs with equal seeds produce byte-identical journals (pinned by
the determinism test).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.docdb.database import Database
from repro.monitor import journal as jn
from repro.monitor.failover import FailoverEngine
from repro.monitor.health import (
    FlowHealth,
    FlowHealthTracker,
    FlowKey,
    HealthSample,
    Transition,
)
from repro.monitor.journal import FLOW_EVENTS_COLLECTION, FlowEventJournal
from repro.monitor.revocation import Revocation, RevocationStore
from repro.monitor.slo import FlowSLO
from repro.scion.snet import ScionHost
from repro.selection.request import UserRequest
from repro.suite import metrics as m
from repro.suite.config import STATS_COLLECTION
from repro.topology.isd_as import ISDAS
from repro.upin.controller import FlowRule, PathController

DEFAULT_PROBE_COUNT = 3
DEFAULT_PROBE_INTERVAL_S = 0.05


class FlowMonitor:
    """Keeps every installed flow rule inside its SLO."""

    def __init__(
        self,
        host: ScionHost,
        db: Database,
        controller: PathController,
        *,
        probe_count: int = DEFAULT_PROBE_COUNT,
        probe_interval_s: float = DEFAULT_PROBE_INTERVAL_S,
        ewma_alpha: float = 0.4,
        slo_factory: Optional[Callable[[UserRequest], FlowSLO]] = None,
        metrics: Optional[m.MetricsRegistry] = None,
    ) -> None:
        self.host = host
        self.db = db
        self.controller = controller
        self.probe_count = probe_count
        self.probe_interval_s = probe_interval_s
        self.slo_factory = slo_factory or FlowSLO.from_request
        self.metrics = metrics if metrics is not None else m.MetricsRegistry()
        self.tracker = FlowHealthTracker(ewma_alpha=ewma_alpha)
        self.revocations = RevocationStore(host.topology)
        self.journal = FlowEventJournal(db[FLOW_EVENTS_COLLECTION])
        self.engine = FailoverEngine(
            self.controller, self.revocations, self.journal,
            metrics=self.metrics,
        )
        #: Per-flow high-water mark over ``paths_stats`` timestamps so
        #: each stored sample is folded into the tracker exactly once.
        self._stats_cursor_ms: Dict[FlowKey, int] = {}
        self.rounds_observed = 0

    @property
    def clock(self):
        return self.host.clock

    # -- flow registration -----------------------------------------------------

    def watch(self, rule: FlowRule, slo: Optional[FlowSLO] = None) -> FlowSLO:
        """Put an installed flow under SLA monitoring."""
        slo = slo if slo is not None else self.slo_factory(rule.request)
        now = self.clock.now_s
        self.tracker.register(rule.key, slo, rule.path_id, now)
        self._stats_cursor_ms[rule.key] = self.clock.now_ms
        self.journal.append(
            jn.EVENT_FLOW_REGISTERED,
            now,
            user=rule.user,
            server_id=rule.server_id,
            path_id=rule.path_id,
            slo=slo.to_document(),
        )
        return slo

    # -- revocations -----------------------------------------------------------

    def revoke(self, revocation: Revocation, *, blackhole: bool = True) -> None:
        """Learn (and optionally enact in netsim) an interface revocation.

        Flows whose pinned path crosses the revoked interface are marked
        DEAD and failed over *now*, bypassing any cooldown.
        """
        self.revocations.inject(
            revocation, network=self.host.network if blackhole else None
        )
        self.metrics.inc(m.MON_REVOCATIONS)
        with self.journal.batch():
            self.journal.append(
                jn.EVENT_REVOCATION,
                self.clock.now_s,
                isd_as=str(revocation.isd_as),
                interface=revocation.interface,
                issued_at_s=revocation.issued_at_s,
                expires_at_s=revocation.expires_at_s,
                reason=revocation.reason,
            )
            self._handle_revocations(self.clock.now_s)

    # -- the per-round pass ----------------------------------------------------

    def after_round(self, record: Any = None) -> None:
        """One monitoring pass; scheduler round hook (record unused)."""
        start_wall = time.perf_counter()
        now = self.clock.now_s
        # This pass's ``paths_stats`` reads, by (path_id, cursor), and
        # probe samples, by path_id: each is shared by a path's flows.
        stats: Dict[Tuple[str, int], List[Dict[str, Any]]] = {}
        probes: Dict[str, HealthSample] = {}
        with self.journal.batch():
            self._handle_revocations(now)
            for rule in self.controller.flows():
                key = rule.key
                if not self.tracker.is_tracked(key):
                    continue
                if self.tracker.state_of(key) is FlowHealth.DEAD:
                    # A dead flow that could not fail over yet: retry.
                    self._attempt_failover(rule, cause="path dead", force=True)
                    continue
                if self._ingest_stats(rule, stats):
                    continue  # failed over mid-pass; fresh path next round
                if self.probe_count > 0:
                    if rule.path_id not in probes:
                        probes[rule.path_id] = self._probe(rule)
                    self._feed(rule, probes[rule.path_id])
                else:
                    transition = self.tracker.observe_staleness(key, now)
                    if transition is not None:
                        self._journal_transition(rule, transition)
                        if transition.to_state is FlowHealth.VIOLATED:
                            self._attempt_failover(rule, cause="staleness")
        self.rounds_observed += 1
        self.metrics.observe(
            m.MON_ROUND_WALL_S, time.perf_counter() - start_wall
        )

    # -- internals -------------------------------------------------------------

    def _handle_revocations(self, now_s: float) -> None:
        if not len(self.revocations):
            return
        for rule in self.controller.flows():
            key = rule.key
            if not self.tracker.is_tracked(key):
                continue
            revocation = self.revocations.affecting_path(rule.path, now_s)
            if revocation is None:
                continue
            if self.tracker.state_of(key) is not FlowHealth.DEAD:
                transition = self.tracker.mark_dead(
                    key, f"revoked: {revocation.isd_as}#{revocation.interface}",
                    now_s,
                )
                if transition is not None:
                    self._journal_transition(rule, transition)
            self._attempt_failover(
                rule,
                cause=(
                    f"revocation {revocation.isd_as}#{revocation.interface} "
                    f"({revocation.reason})"
                ),
                force=True,
            )

    def _ingest_stats(
        self,
        rule: FlowRule,
        reads: Dict[Tuple[str, int], List[Dict[str, Any]]],
    ) -> bool:
        """Fold fresh campaign samples; True when a failover swapped.

        ``reads`` holds the pass's query results, so flows on one path
        with one cursor share a single ``paths_stats`` query.
        """
        key = rule.key
        cursor = self._stats_cursor_ms.get(key, 0)
        read = (rule.path_id, cursor)
        if read not in reads:
            reads[read] = self.db[STATS_COLLECTION].find(
                {"path_id": rule.path_id, "timestamp_ms": {"$gte": cursor}},
                sort=[("timestamp_ms", 1)],
            )
        for doc in reads[read]:
            self._stats_cursor_ms[key] = int(doc["timestamp_ms"]) + 1
            sample = HealthSample(
                t_s=float(doc["timestamp_ms"]) / 1000.0,
                loss_pct=float(doc["loss_pct"]),
                latency_ms=doc.get("avg_latency_ms"),
                bw_down_mbps=doc.get("bw_down_mtu_mbps"),
                source="stats",
            )
            if self._feed(rule, sample):
                return True
        return False

    def _probe(self, rule: FlowRule) -> HealthSample:
        """One targeted SCMP probe series along the flow's pinned path."""
        _, dst_ip = ISDAS.parse_address(rule.server_address)
        stats = self.host.scmp.echo_series(
            rule.path,
            dst_ip,
            count=self.probe_count,
            interval_s=self.probe_interval_s,
        )
        self.metrics.inc(m.MON_PROBES, self.probe_count)
        return HealthSample(
            t_s=self.clock.now_s,
            loss_pct=stats.loss_pct,
            latency_ms=stats.avg_ms if stats.rtts_ms else None,
            bw_down_mbps=None,
            source="probe",
        )

    def _feed(self, rule: FlowRule, sample: HealthSample) -> bool:
        """Fold one sample; journal it; failover on VIOLATED."""
        key = rule.key
        observation = self.tracker.observe(key, sample)
        self.metrics.inc(m.MON_SAMPLES)
        if observation.breached:
            self.metrics.inc(m.MON_BREACHES)
        self.journal.append(
            jn.EVENT_SAMPLE,
            sample.t_s,
            user=rule.user,
            server_id=rule.server_id,
            path_id=rule.path_id,
            breach=observation.breached,
            **sample.to_payload(),
        )
        if observation.transition is not None:
            self._journal_transition(rule, observation.transition)
        if self.tracker.state_of(key) is FlowHealth.VIOLATED:
            reasons = self.tracker.breach_reasons(key)
            cause = "; ".join(reasons) if reasons else "SLO breached"
            return self._attempt_failover(rule, cause=cause)
        return False

    def _attempt_failover(
        self, rule: FlowRule, *, cause: str, force: bool = False
    ) -> bool:
        key = rule.key
        slo = self.tracker.slo_of(key)
        outcome = self.engine.try_failover(
            rule,
            slo,
            cause,
            self.clock.now_s,
            detected_at_s=self.tracker.first_breach_of(key),
            force=force,
        )
        if not outcome.swapped:
            return False
        assert outcome.new_rule is not None
        self.watch(outcome.new_rule, slo)
        return True

    def _journal_transition(self, rule: FlowRule, transition: Transition) -> None:
        self.metrics.inc(m.MON_TRANSITIONS)
        self.journal.append(
            jn.EVENT_STATE_TRANSITION,
            transition.t_s,
            user=rule.user,
            server_id=rule.server_id,
            path_id=rule.path_id,
            **{
                "from": transition.from_state.value,
                "to": transition.to_state.value,
            },
            cause=transition.cause,
            first_breach_s=transition.first_breach_s,
        )

    # -- reporting -------------------------------------------------------------

    def metrics_snapshot(self) -> Dict[str, Any]:
        return self.metrics.snapshot()

    def format_status(self) -> str:
        """One line per monitored flow: state, path, smoothed health."""
        lines = ["monitored flows:"]
        snap = self.tracker.snapshot()
        if not snap:
            return "monitored flows:\n  (none)"
        for flow, st in snap.items():
            lat = st["ewma_latency_ms"]
            loss = st["ewma_loss_pct"]
            lat_txt = f"{lat:7.1f}ms" if lat is not None else "    n/a  "
            loss_txt = f"{loss:5.1f}%" if loss is not None else "  n/a "
            lines.append(
                f"  {flow:16s} {st['state']:9s} path {st['path_id']:12s} "
                f"lat {lat_txt} loss {loss_txt}  samples {st['samples']} "
                f"breaches {st['breaches']}"
            )
        counts = self.tracker.counts_by_state()
        lines.append(
            "  totals: "
            + "  ".join(f"{state}={n}" for state, n in sorted(counts.items()))
        )
        return "\n".join(lines)

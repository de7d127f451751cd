"""The failover engine: reselect-and-swap when a flow's promise breaks.

On a VIOLATED or DEAD flow the engine re-runs the controller's memoized
selection with the *original* user constraints plus an exclusion set —
the failed path and every path currently crossing an active revocation —
resolves the winner to a live path, and atomically swaps the flow rule.
The original :class:`~repro.selection.request.UserRequest` stays on the
rule untouched; only the selection/path move.

Flap damping: a flow that failed over inside its SLO's ``cooldown_s``
window is *suppressed* (journaled, counted) rather than rerouted again —
unless the trigger is a revocation, which makes holding the path
pointless.  Every decision, including the suppressed and the failed
ones, is journaled with cause and detection→recovery latency.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, FrozenSet, Optional, Tuple

from repro.errors import NoPathError
from repro.monitor import journal as jn
from repro.monitor.health import FlowKey
from repro.monitor.journal import FlowEventJournal
from repro.monitor.revocation import RevocationStore
from repro.monitor.slo import FlowSLO
from repro.suite import metrics as m
from repro.suite.config import PATHS_COLLECTION, SERVERS_COLLECTION
from repro.topology.isd_as import ISDAS
from repro.upin.controller import FlowRule, PathController


@dataclass(frozen=True)
class FailoverOutcome:
    """What one failover attempt did."""

    swapped: bool
    suppressed: bool = False
    old_path_id: Optional[str] = None
    new_path_id: Optional[str] = None
    cause: str = ""
    detected_at_s: Optional[float] = None
    recovered_at_s: Optional[float] = None
    new_rule: Optional[FlowRule] = None
    error: Optional[str] = None

    @property
    def detection_to_recovery_s(self) -> Optional[float]:
        if self.detected_at_s is None or self.recovered_at_s is None:
            return None
        return self.recovered_at_s - self.detected_at_s


class FailoverEngine:
    """Reroutes unhealthy flows through the controller, atomically."""

    def __init__(
        self,
        controller: PathController,
        revocations: RevocationStore,
        journal: FlowEventJournal,
        *,
        metrics: Optional[m.MetricsRegistry] = None,
    ) -> None:
        self.controller = controller
        self.revocations = revocations
        self.journal = journal
        self.metrics = metrics if metrics is not None else m.MetricsRegistry()
        self._last_failover_s: Dict[FlowKey, float] = {}
        #: server_id -> (stamp, revoked path ids): the last answer of
        #: :meth:`_revoked_path_ids`, valid while its stamp holds.
        self._revoked: Dict[int, Tuple[Tuple[Any, ...], FrozenSet[str]]] = {}

    # -- cooldown --------------------------------------------------------------

    def cooldown_remaining(
        self, key: FlowKey, slo: FlowSLO, now_s: float
    ) -> float:
        last = self._last_failover_s.get(key)
        if last is None:
            return 0.0
        return max(0.0, last + slo.cooldown_s - now_s)

    # -- the swap --------------------------------------------------------------

    def try_failover(
        self,
        rule: FlowRule,
        slo: FlowSLO,
        cause: str,
        now_s: float,
        *,
        detected_at_s: Optional[float] = None,
        force: bool = False,
    ) -> FailoverOutcome:
        """Reselect around the failed path and swap the flow rule.

        ``force=True`` (revocations) bypasses the cooldown.  Returns a
        :class:`FailoverOutcome`; ``swapped=False`` either means the
        cooldown suppressed the attempt or no admissible replacement
        exists (both journaled).
        """
        key = rule.key
        old_path_id = rule.path_id
        remaining = self.cooldown_remaining(key, slo, now_s)
        if remaining > 0 and not force:
            self.metrics.inc(m.MON_FLAPS_SUPPRESSED)
            self.journal.append(
                jn.EVENT_FAILOVER_SUPPRESSED,
                now_s,
                user=rule.user,
                server_id=rule.server_id,
                path_id=old_path_id,
                cause=cause,
                cooldown_remaining_s=remaining,
            )
            return FailoverOutcome(
                swapped=False,
                suppressed=True,
                old_path_id=old_path_id,
                cause=cause,
            )

        exclusions = self._exclusion_set(rule, old_path_id, now_s)
        reroute_request = replace(
            rule.request,
            exclude_paths=rule.request.exclude_paths | exclusions,
        )
        try:
            selection = self.controller.cached_select(reroute_request)
        except NoPathError as exc:
            return self._failed(rule, old_path_id, cause, now_s, str(exc))
        if selection.best is None:
            return self._failed(
                rule, old_path_id, cause, now_s,
                "no admissible replacement path under the original constraints",
            )

        server = self.controller.selector.db[SERVERS_COLLECTION].find_one(
            {"_id": rule.server_id}
        )
        dst_ia = ISDAS.parse(str(server["isd_as"])) if server else rule.path.dst
        try:
            new_path = self.controller.host.daemon.resolve(
                dst_ia, selection.best.sequence
            )
        except NoPathError:
            return self._failed(
                rule, old_path_id, cause, now_s,
                f"replacement {selection.best.aggregate.path_id} "
                "no longer resolvable",
            )

        new_rule = FlowRule(
            user=rule.user,
            server_id=rule.server_id,
            server_address=rule.server_address,
            path=new_path,
            request=rule.request,  # the original intent, verbatim
            selection=selection,
        )
        self.controller.swap_flow(new_rule)
        self._last_failover_s[key] = now_s
        new_path_id = new_rule.path_id
        detected = detected_at_s if detected_at_s is not None else now_s
        ttr = now_s - detected
        self.metrics.inc(m.MON_FAILOVERS)
        self.metrics.observe(m.MON_MTTR_S, ttr)
        self.journal.append(
            jn.EVENT_FAILOVER,
            now_s,
            user=rule.user,
            server_id=rule.server_id,
            old_path_id=old_path_id,
            new_path_id=new_path_id,
            cause=cause,
            detected_at_s=detected,
            recovered_at_s=now_s,
            detection_to_recovery_s=ttr,
            excluded_paths=sorted(exclusions),
        )
        return FailoverOutcome(
            swapped=True,
            old_path_id=old_path_id,
            new_path_id=new_path_id,
            cause=cause,
            detected_at_s=detected,
            recovered_at_s=now_s,
            new_rule=new_rule,
        )

    def _exclusion_set(
        self, rule: FlowRule, old_path_id: str, now_s: float
    ) -> frozenset:
        """Failed path + everything crossing an active revocation."""
        return frozenset({old_path_id}) | self._revoked_path_ids(
            rule.server_id, now_s
        )

    def _revoked_path_ids(self, server_id: int, now_s: float) -> FrozenSet[str]:
        """The destination's stored paths that cross an active revocation.

        A pure function of the ``paths`` collection and the revocations
        in force, so it is memoised per destination under the
        collection (a dropped and re-created one restarts its epoch),
        its write epoch and the active revocations: the flows that fail
        over in one revocation round share one read.
        """
        active = tuple(self.revocations.active(now_s))
        if not active:
            return frozenset()
        paths = self.controller.selector.db[PATHS_COLLECTION]
        stamp = (paths, paths.epoch, active)
        memo = self._revoked.get(server_id)
        if memo is None or memo[0] != stamp:
            revoked = frozenset(
                self.revocations.affected_path_ids(
                    paths.find({"server_id": server_id}), now_s
                )
            )
            memo = self._revoked[server_id] = (stamp, revoked)
        return memo[1]

    def _failed(
        self,
        rule: FlowRule,
        old_path_id: str,
        cause: str,
        now_s: float,
        error: str,
    ) -> FailoverOutcome:
        self.metrics.inc(m.MON_FAILOVERS_FAILED)
        self.journal.append(
            jn.EVENT_FAILOVER_FAILED,
            now_s,
            user=rule.user,
            server_id=rule.server_id,
            path_id=old_path_id,
            cause=f"{cause}: {error}",
        )
        return FailoverOutcome(
            swapped=False,
            old_path_id=old_path_id,
            cause=cause,
            error=error,
        )

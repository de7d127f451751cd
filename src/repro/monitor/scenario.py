"""The scripted outage scenario the demo surfaces all share.

CLI (``upin-frontend monitor …``), example
(``examples/continuous_monitoring.py``), tests and the failover
benchmark all need the same thing: a deterministic world in which a
monitored flow actually suffers, fails over, and recovers.  Building it
ad hoc in four places invites drift, so this module is the single
source of truth.

The script (all times on the simulation clock):

1. build the SCIONLab world, collect paths, run one warm-up campaign
   round so selection has data;
2. a user installs an intent (``Metric.LOSS`` — "route me around
   loss") and the flow goes under monitoring;
3. a **congestion episode** blacks out one link of the pinned path for
   ``congest_rounds`` — chosen as a link the best *alternative* path
   avoids, so the failover has somewhere good to land.  Probes breach,
   hysteresis trips (K-of-N), the flow goes VIOLATED and fails over;
4. later one **interface revocation** hits the flow's *current* path
   (again picked so that admissible replacements survive).  The flow is
   marked DEAD and force-failed-over immediately, cooldown bypassed;
5. the monitor rides along as a scheduler round hook for ``rounds``
   periodic rounds; every decision lands in the ``flow_events``
   journal.

Everything is a pure function of ``seed``: two runs produce
byte-identical journals (pinned by the determinism test).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import ReproError
from repro.monitor.loop import FlowMonitor
from repro.monitor.revocation import Revocation, sequence_interfaces
from repro.netsim.congestion import CongestionEpisode
from repro.scion.path import Path
from repro.selection.request import Metric, UserRequest
from repro.suite.collect import PathsCollector
from repro.suite.config import PATHS_COLLECTION, SuiteConfig
from repro.suite.runner import TestRunner
from repro.suite.scheduler import MonitoringReport, MonitoringScheduler
from repro.topology.isd_as import ISDAS
from repro.upin.controller import FlowRule
from repro.upin.frontend import Frontend
from repro.experiments.world import CampaignWorld, build_world

DEFAULT_SCENARIO_SEED = 20231112
DEFAULT_SERVER_ID = 3  # Magdeburg, the paper's best-connected target
DEFAULT_USER = "alice"
DEFAULT_PERIOD_S = 120.0
DEFAULT_ROUNDS = 8


@dataclass
class OutageScenario:
    """Everything the demo surfaces need after the script has run."""

    world: CampaignWorld
    frontend: Frontend
    monitor: FlowMonitor
    scheduler: MonitoringScheduler
    user: str
    server_id: int
    initial_rule: FlowRule
    report: Optional[MonitoringReport] = None
    #: ``(isd_as, interface)`` the congestion episode blacked out.
    congested_interface: Optional[Tuple[str, int]] = None
    #: The revocation injected mid-run (None until it fires).
    revocation: Optional[Revocation] = None
    path_history: List[str] = field(default_factory=list)

    @property
    def journal(self):
        return self.monitor.journal

    def current_rule(self) -> Optional[FlowRule]:
        return self.frontend.controller.active_flow(self.user, self.server_id)

    def format_summary(self) -> str:
        """The demo's closing lines: journey, causes, recovery latency."""
        lines = [f"flow {self.user}->server {self.server_id}:"]
        lines.append("  path journey: " + " -> ".join(self.path_history))
        for doc in self.journal.failovers():
            ttr = doc.get("detection_to_recovery_s")
            ttr_txt = f"{ttr:.2f} sim s" if ttr is not None else "n/a"
            lines.append(
                f"  failover @{doc['t_s']:.1f}s: {doc['old_path_id']} -> "
                f"{doc['new_path_id']} ({doc['cause']}; "
                f"detection->recovery {ttr_txt})"
            )
        counts = self.monitor.tracker.counts_by_state()
        lines.append(
            "  final states: "
            + "  ".join(f"{s}={n}" for s, n in sorted(counts.items()) if n)
        )
        return "\n".join(lines)


def _interface_pairs(path: Path) -> List[Tuple[str, int]]:
    """Every concrete ``(isd_as, interface)`` pair a path pins, in order."""
    pairs: List[Tuple[str, int]] = []
    for hop in path.hops:
        for ifid in (hop.ingress, hop.egress):
            if ifid:
                pairs.append((str(hop.isd_as), ifid))
    return pairs


def pick_breakable_interface(
    rule: FlowRule, path_docs: List[dict]
) -> Tuple[str, int]:
    """A pinned interface whose loss leaves the flow a way out.

    Walks the flow's interfaces in hop order and returns the first one
    that (a) the best-ranked *alternative* in the flow's own selection
    avoids, and (b) at least one other stored path to the destination
    avoids — so both the immediate failover target and the wider
    reselection pool survive the outage.  Deterministic given the
    selection result.
    """
    alternatives = rule.selection.ranked[1:]
    alt_iface_sets = [
        sequence_interfaces(alt.sequence) for alt in alternatives
    ]
    doc_iface_sets = {
        str(doc["_id"]): sequence_interfaces(str(doc["sequence"]))
        for doc in path_docs
    }
    for pair in _interface_pairs(rule.path):
        alt_ok = any(pair not in ifaces for ifaces in alt_iface_sets)
        survivors = sum(
            1 for ifaces in doc_iface_sets.values() if pair not in ifaces
        )
        if alt_ok and survivors > 0:
            return pair
    raise ReproError(
        f"no breakable interface on path {rule.path_id}: every stored "
        "route shares every pinned link"
    )


def run_outage_scenario(
    *,
    seed: int = DEFAULT_SCENARIO_SEED,
    server_id: int = DEFAULT_SERVER_ID,
    user: str = DEFAULT_USER,
    rounds: int = DEFAULT_ROUNDS,
    period_s: float = DEFAULT_PERIOD_S,
    congest_rounds: Tuple[int, int] = (2, 5),
    revoke_round: int = 6,
    probe_count: int = 3,
    extra_flows: int = 0,
) -> OutageScenario:
    """Build, break, fail over, recover — the whole scripted episode.

    ``extra_flows`` installs additional monitored flows (users
    ``flow-000``, ``flow-001``, …) on the same destination — the
    benchmark's way of scaling per-round overhead without changing the
    script.

    With fewer rounds than ``revoke_round`` the revocation act is
    skipped (the congestion act still plays) — short runs degrade to a
    congestion-only episode instead of erroring.
    """
    config = SuiteConfig(iterations=1, destination_ids=[server_id])
    world = build_world(seed=seed, config=config)
    host, db = world.host, world.db

    # Warm-up: one collection + campaign pass so selection has data.
    PathsCollector(host, db, config).collect()
    TestRunner(host, db, config).run(iterations=1)

    frontend = Frontend(host, db)
    request = UserRequest.make(server_id, Metric.LOSS)
    rule = frontend.controller.apply_intent(user, request)

    monitor = FlowMonitor(
        host, db, frontend.controller, probe_count=probe_count
    )
    with monitor.journal.batch():  # every registration in one write
        monitor.watch(rule)
        for i in range(extra_flows):
            monitor.watch(
                frontend.controller.apply_intent(f"flow-{i:03d}", request)
            )

    scenario = OutageScenario(
        world=world,
        frontend=frontend,
        monitor=monitor,
        scheduler=None,  # type: ignore[arg-type]  # set just below
        user=user,
        server_id=server_id,
        initial_rule=rule,
        path_history=[rule.path_id],
    )

    scheduler = MonitoringScheduler(
        host, db, config, period_s=period_s, recollect_every=max(rounds, 1)
    )
    scenario.scheduler = scheduler

    def record_path(_record) -> None:
        current = scenario.current_rule()
        if current is not None and current.path_id != scenario.path_history[-1]:
            scenario.path_history.append(current.path_id)

    scheduler.add_round_hook(monitor.after_round)
    scheduler.add_round_hook(record_path)

    origin = host.clock.now_s
    path_docs = db[PATHS_COLLECTION].find({"server_id": server_id})

    # -- act one: congestion blacks out one link of the pinned path -----------
    congested = pick_breakable_interface(rule, path_docs)
    scenario.congested_interface = congested
    ia, ifid = congested
    link = host.topology.link_at(ia, ifid)
    host.network.add_episode(
        CongestionEpisode.on_links(
            [link],
            origin + congest_rounds[0] * period_s,
            origin + congest_rounds[1] * period_s,
            loss=1.0,
            capacity_factor=0.0,
            reason="scripted congestion",
        )
    )

    # -- act two: one interface revocation against the *current* path ---------
    def fire_revocation() -> None:
        current = scenario.current_rule()
        if current is None:  # pragma: no cover - flow is never withdrawn
            return
        now = host.clock.now_s
        pair = pick_breakable_interface(
            current, db[PATHS_COLLECTION].find({"server_id": server_id})
        )
        revocation = Revocation(
            isd_as=ISDAS.parse(pair[0]),
            interface=pair[1],
            issued_at_s=now,
            expires_at_s=now + 2 * period_s * rounds,
            reason="scripted maintenance",
        )
        scenario.revocation = revocation
        monitor.revoke(revocation, blackhole=True)

    if revoke_round < rounds:
        scheduler.events.schedule(
            origin + revoke_round * period_s + 1.0, fire_revocation
        )

    scenario.report = scheduler.run(rounds=rounds)
    return scenario

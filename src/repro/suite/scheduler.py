"""Continuous monitoring: periodic campaigns on the simulation clock.

§4.1.2: "continuous measurements require continuous functioning."  The
paper's scripts run campaigns by hand; a deployed UPIN domain needs the
test-suite on a schedule.  :class:`MonitoringScheduler` drives rounds
of measurement through the discrete-event queue: a measurement round
starts at each period boundary (or immediately after the previous round
when a round overruns its period), and path collection is refreshed
every ``recollect_every`` rounds so topology changes are picked up.

All timing lives on the shared :class:`~repro.netsim.clock.SimClock`,
so scheduled congestion episodes, server outages and monitoring rounds
compose on one time axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.docdb.database import Database
from repro.errors import ValidationError
from repro.netsim.events import EventQueue
from repro.scion.snet import ScionHost
from repro.suite.collect import PathsCollector
from repro.suite.config import SuiteConfig
from repro.suite.faults import FaultPlan
from repro.suite.runner import CampaignReport, TestRunner


@dataclass(frozen=True)
class RoundRecord:
    """Bookkeeping for one monitoring round."""

    index: int
    scheduled_at_s: float
    started_at_s: float
    finished_at_s: float
    recollected: bool
    stats_stored: int
    errors: int

    @property
    def duration_s(self) -> float:
        return self.finished_at_s - self.started_at_s

    @property
    def lag_s(self) -> float:
        """How late the round started relative to its period boundary."""
        return self.started_at_s - self.scheduled_at_s


@dataclass
class MonitoringReport:
    """Outcome of a monitoring run."""

    rounds: List[RoundRecord] = field(default_factory=list)

    @property
    def stats_stored(self) -> int:
        return sum(r.stats_stored for r in self.rounds)


class MonitoringScheduler:
    """Runs measurement rounds periodically on the simulated clock."""

    def __init__(
        self,
        host: ScionHost,
        db: Database,
        config: SuiteConfig,
        *,
        period_s: float,
        recollect_every: int = 5,
        faults: Optional[FaultPlan] = None,
        round_hooks: Optional[Sequence[Callable[[RoundRecord], None]]] = None,
    ) -> None:
        if period_s <= 0:
            raise ValidationError("monitoring period must be positive")
        if recollect_every < 1:
            raise ValidationError("recollect_every must be >= 1")
        self.host = host
        self.db = db
        self.config = config
        self.period_s = period_s
        self.recollect_every = recollect_every
        self.collector = PathsCollector(host, db, config)
        self.runner = TestRunner(host, db, config, faults=faults)
        self.events = EventQueue(host.clock)
        #: Called with each finished :class:`RoundRecord`, in order, on
        #: the simulation clock — this is how :class:`~repro.monitor.
        #: loop.FlowMonitor.after_round` plugs into the round cadence.
        self.round_hooks: List[Callable[[RoundRecord], None]] = list(
            round_hooks or []
        )

    def add_round_hook(self, hook: Callable[[RoundRecord], None]) -> None:
        """Register ``hook`` to run after every measurement round."""
        self.round_hooks.append(hook)

    def run(self, *, rounds: int) -> MonitoringReport:
        """Execute ``rounds`` monitoring rounds; returns the report.

        Path collection runs before round 0 and then every
        ``recollect_every`` rounds.
        """
        if rounds < 1:
            raise ValidationError("need at least one round")
        report = MonitoringReport()
        origin = self.host.clock.now_s

        def schedule_round(index: int) -> None:
            boundary = origin + index * self.period_s
            fire_at = max(boundary, self.host.clock.now_s)
            self.events.schedule(fire_at, lambda: run_round(index, boundary))

        def run_round(index: int, boundary: float) -> None:
            started = self.host.clock.now_s
            recollected = index % self.recollect_every == 0
            if recollected:
                self.collector.collect()
            campaign = self.runner.run(iterations=1)
            record = RoundRecord(
                index=index,
                scheduled_at_s=boundary,
                started_at_s=started,
                finished_at_s=self.host.clock.now_s,
                recollected=recollected,
                stats_stored=campaign.stats_stored,
                errors=campaign.measurement_errors,
            )
            report.rounds.append(record)
            for hook in self.round_hooks:
                hook(record)
            if index + 1 < rounds:
                schedule_round(index + 1)

        schedule_round(0)
        self.events.run_all()
        return report

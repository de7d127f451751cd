"""Ablation: measurement-driven selection vs SCION's default ranking.

The paper's premise is that storing path measurements and *querying*
them beats taking whatever path the control plane ranks first (hop
count).  This ablation quantifies that premise under exactly the
disturbance the paper observed in Fig 9 — a transient congestion
episode on a node of the default path:

* **default** strategy: always use the first showpaths path (ranked by
  hop count), like a measurement-oblivious application;
* **upin** strategy: before each transfer, re-select using only the
  *latest* round of stored measurements (loss-aware).

Both strategies are probed with the same 30-echo ping per round; the
deliverable is per-strategy delivery rate and latency across rounds,
showing the selection engine routing around the episode the default
strategy keeps hitting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.analysis.report import format_table
from repro.apps.ping import PingApp
from repro.netsim.congestion import CongestionEpisode
from repro.experiments.world import DEFAULT_SEED, CampaignWorld, run_campaign
from repro.selection.engine import PathSelector
from repro.selection.request import Metric, UserRequest
from repro.suite.config import SuiteConfig
from repro.suite.runner import TestRunner

IRELAND_SERVER_ID = 1
IRELAND_ADDR = "16-ffaa:0:1002,[172.31.43.7]"

#: The AS congested during the disturbance window: the Magdeburg core,
#: which the default (first-ranked) Ireland path transits.
DISTURBED_AS = "19-ffaa:0:1301"

DEFAULT_ROUNDS = 8
DISTURBED_ROUNDS = (2, 6)  # rounds [2, 6) run under congestion


@dataclass(frozen=True)
class RoundOutcome:
    round_index: int
    disturbed: bool
    strategy: str
    path_id: str
    loss_pct: float
    avg_latency_ms: Optional[float]


@dataclass(frozen=True)
class AblationResult:
    outcomes: Tuple[RoundOutcome, ...]

    def delivery_rate(self, strategy: str) -> float:
        mine = [o for o in self.outcomes if o.strategy == strategy]
        return sum(100.0 - o.loss_pct for o in mine) / (100.0 * len(mine))

    def disturbed_delivery_rate(self, strategy: str) -> float:
        mine = [
            o for o in self.outcomes if o.strategy == strategy and o.disturbed
        ]
        if not mine:
            return 1.0
        return sum(100.0 - o.loss_pct for o in mine) / (100.0 * len(mine))

    def switches(self, strategy: str) -> int:
        mine = [o for o in self.outcomes if o.strategy == strategy]
        return sum(1 for a, b in zip(mine, mine[1:]) if a.path_id != b.path_id)

    def rows(self) -> List[Tuple]:
        return [
            (
                o.round_index,
                "yes" if o.disturbed else "no",
                o.strategy,
                o.path_id,
                o.loss_pct,
                o.avg_latency_ms,
            )
            for o in self.outcomes
        ]

    def format_text(self) -> str:
        table = format_table(
            ["round", "congested", "strategy", "path", "loss %", "latency ms"],
            self.rows(),
            title="Ablation — measurement-driven selection vs default ranking",
        )
        return (
            f"{table}\n"
            f"overall delivery:  default {100 * self.delivery_rate('default'):.0f}%  "
            f"upin {100 * self.delivery_rate('upin'):.0f}%\n"
            f"during congestion: default "
            f"{100 * self.disturbed_delivery_rate('default'):.0f}%  "
            f"upin {100 * self.disturbed_delivery_rate('upin'):.0f}%\n"
            f"path switches: default {self.switches('default')}, "
            f"upin {self.switches('upin')}"
        )


def run(
    *, rounds: int = DEFAULT_ROUNDS, seed: int = DEFAULT_SEED
) -> AblationResult:
    world = run_campaign([IRELAND_SERVER_ID], iterations=1, seed=seed)
    host = world.host
    runner = TestRunner(host, world.db, world.config)
    selector = PathSelector(world.db, host.topology)
    ping = PingApp(host)

    request = UserRequest.make(IRELAND_SERVER_ID, Metric.LOSS)

    outcomes: List[RoundOutcome] = []
    episode_installed = False
    lo, hi = DISTURBED_ROUNDS
    #: Simulated seconds one round occupies (measurement pass + 2 probes).
    round_budget_s = 400.0

    for round_index in range(rounds):
        round_start = host.clock.now_s
        disturbed = lo <= round_index < hi
        if disturbed and not episode_installed:
            host.network.add_episode(
                CongestionEpisode.on_ases(
                    [DISTURBED_AS],
                    round_start,
                    round_start + (hi - lo) * round_budget_s,
                    loss=1.0,
                )
            )
            episode_installed = True

        # One fresh measurement round feeds the selection engine.
        round_stamp = host.clock.now_ms
        runner.run(iterations=1)

        # upin strategy: loss-aware selection over THIS round's samples.
        selection = selector.select(request, since_ms=round_stamp)
        if selection.best is not None:
            upin_sequence = selection.best.sequence
            upin_id = selection.best.aggregate.path_id
        else:  # every path measured dead this round; stick with the default
            upin_sequence, upin_id = None, "1_0"

        # ``default`` pings without --sequence (the best-ranked path).
        for strategy, sequence, path_id in (
            ("default", None, "1_0"),
            ("upin", upin_sequence, upin_id),
        ):
            stats = ping.run(
                IRELAND_ADDR, count=30, interval="0.1s", sequence=sequence
            ).stats
            outcomes.append(
                RoundOutcome(
                    round_index=round_index,
                    disturbed=disturbed,
                    strategy=strategy,
                    path_id=path_id,
                    loss_pct=stats.loss_pct,
                    avg_latency_ms=(
                        stats.avg_ms if stats.rtts_ms else None
                    ),
                )
            )
        # Idle until the next round boundary so episodes align.
        host.clock.advance_to(round_start + round_budget_s)

    return AblationResult(outcomes=tuple(outcomes))


def main() -> None:  # pragma: no cover
    print(run().format_text())


if __name__ == "__main__":  # pragma: no cover
    main()

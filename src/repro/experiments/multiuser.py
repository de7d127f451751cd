"""Multi-user contention: what happens when *everyone* controls paths?

§1 motivates examining "the impact on performance that shifting network
control from operators to end users has on traffic".  The paper measures
one client at a time; this experiment puts N simultaneous users behind
MY_AS, all transferring to the Magdeburg server at once (flows
registered in the ledger so they genuinely contend), under two
assignment policies:

* ``selfish`` — every user takes the selection engine's best path;
* ``spread`` — users are round-robined across the top-k admissible paths.

The result: spreading relieves contention on the *interior* links
(same-path flows queue behind each other at every hop, so the selfish
policy compounds losses and is less fair), but both policies saturate
near the shared access-link capacity and per-user goodput collapses as
~C/N — user-driven path control redistributes routes and fairness, not
access capacity.  The experiment reports per-user mean goodput,
aggregate goodput, and Jain's fairness index per user count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import format_table
from repro.experiments.world import DEFAULT_SEED, CampaignWorld, run_campaign
from repro.netsim.packet import PacketSpec
from repro.selection.engine import PathSelector
from repro.selection.request import Metric, UserRequest

GERMANY_SERVER_ID = 3
TARGET_MBPS = 10.0
DURATION_S = 3.0
DEFAULT_USER_COUNTS = (1, 2, 4, 8)


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index: 1.0 = perfectly equal shares."""
    if not values:
        return 1.0
    total = sum(values)
    squares = sum(v * v for v in values)
    if squares == 0:
        return 1.0
    return (total * total) / (len(values) * squares)


@dataclass(frozen=True)
class ContentionPoint:
    users: int
    policy: str
    per_user_mbps: Tuple[float, ...]

    @property
    def aggregate_mbps(self) -> float:
        return sum(self.per_user_mbps)

    @property
    def mean_mbps(self) -> float:
        return self.aggregate_mbps / len(self.per_user_mbps)

    @property
    def fairness(self) -> float:
        return jain_index(self.per_user_mbps)


@dataclass(frozen=True)
class MultiUserResult:
    points: Tuple[ContentionPoint, ...]

    def point(self, users: int, policy: str) -> Optional[ContentionPoint]:
        for p in self.points:
            if p.users == users and p.policy == policy:
                return p
        return None

    def rows(self) -> List[Tuple]:
        return [
            (p.users, p.policy, p.mean_mbps, p.aggregate_mbps, p.fairness)
            for p in self.points
        ]

    def format_text(self) -> str:
        table = format_table(
            ["users", "policy", "per-user Mbps", "aggregate Mbps", "Jain fairness"],
            self.rows(),
            title=(
                "Multi-user contention — simultaneous downstream transfers "
                f"({TARGET_MBPS:g} Mbps target each)"
            ),
        )
        return (
            table
            + "\nNote: spreading improves fairness and interior-link "
            "contention, but the shared access link caps the aggregate — "
            "path control cannot create capacity."
        )


def _paths_for_policy(
    world: CampaignWorld, selector: PathSelector, policy: str, users: int
):
    request = UserRequest.make(GERMANY_SERVER_ID, Metric.BANDWIDTH_DOWN)
    result = selector.select(request, top_k=10)
    ranked = result.ranked
    assert ranked, "campaign must have measured Magdeburg paths"
    dst = "19-ffaa:0:1303"
    resolved = []
    for i in range(users):
        pick = ranked[0] if policy == "selfish" else ranked[i % len(ranked)]
        resolved.append(world.host.daemon.resolve(dst, pick.sequence))
    return resolved


def run(
    *,
    user_counts: Sequence[int] = DEFAULT_USER_COUNTS,
    seed: int = DEFAULT_SEED,
    world: "CampaignWorld | None" = None,
) -> MultiUserResult:
    if world is None:
        world = run_campaign([GERMANY_SERVER_ID], iterations=3, seed=seed)
    selector = PathSelector(world.db, world.host.topology)
    network = world.host.network

    points: List[ContentionPoint] = []
    for policy in ("selfish", "spread"):
        for users in user_counts:
            paths = _paths_for_policy(world, selector, policy, users)
            network.flows.clear()
            t0 = world.host.clock.now_s
            achieved: List[float] = []
            for path in paths:
                traversals = [
                    t.reversed() for t in reversed(path.traversals(world.host.topology))
                ]  # downstream: server -> user
                packet = PacketSpec(
                    payload_bytes=1472,
                    n_hops=path.hop_count,
                    n_segments=path.n_segments,
                )
                result = network.fluid_transfer(
                    traversals,
                    TARGET_MBPS * 1e6,
                    packet,
                    DURATION_S,
                    t0,
                    register_flow=True,
                )
                achieved.append(result.achieved_mbps)
            network.flows.clear()
            world.host.clock.advance(DURATION_S)
            points.append(
                ContentionPoint(
                    users=users, policy=policy, per_user_mbps=tuple(achieved)
                )
            )
    return MultiUserResult(points=tuple(points))


def main() -> None:  # pragma: no cover
    print(run().format_text())


if __name__ == "__main__":  # pragma: no cover
    main()

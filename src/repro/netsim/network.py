"""The network simulator facade: packet probes and fluid transfers.

:class:`NetworkSim` owns one :class:`LinkState` per topology link, a
congestion-episode schedule, a server health directory (for the paper's
fault-tolerance scenarios, §4.1.2) and the shared simulation clock.  The
SCION layer resolves a forwarding path into a list of
:class:`LinkTraversal` records and hands them here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TopologyError, ValidationError
from repro.netsim.clock import SimClock
from repro.netsim.config import NetworkConfig
from repro.netsim.congestion import CongestionEpisode, EpisodeSchedule
from repro.netsim.counters import NetCounters
from repro.netsim.link import LinkHalf, LinkState
from repro.netsim.packet import PacketSpec
from repro.topology.entities import LinkSpec
from repro.topology.graph import Topology
from repro.topology.isd_as import ISDAS
from repro.util.rng import RngStreams

from repro.netsim import batch


@dataclass(frozen=True)
class LinkTraversal:
    """One step of a forwarding path: cross ``link`` starting at ``sender``."""

    link: LinkSpec
    sender: ISDAS

    def reversed(self) -> "LinkTraversal":
        return LinkTraversal(link=self.link, sender=self.link.other(self.sender))


class Route:
    """A path resolved against one network: the link halves it crosses
    out (``forward``) and back (``back``, in return order), with the
    batch engine's per-step constants as (2L, 1) columns.  Resolved once
    per path (:meth:`repro.scion.path.Path.route`)."""

    def __init__(self, forward: Tuple[LinkHalf, ...], back: Tuple[LinkHalf, ...]):
        self.forward, self.back = forward, back
        self.round_trip = halves = forward + back
        self.step_s, self.jitter_ms, self.propagation_ms, self.cap_bps, self.keep = (
            np.array([[getattr(h, name)] for h in halves], dtype=np.float64).reshape(-1, 1)
            for name in ("step_s", "jitter_scale", "propagation_ms", "cap_bps", "keep")
        )
        self._reversed: Optional[Route] = None

    def reversed(self) -> "Route":
        """The same links crossed the other way (the bwtest's s->c half)."""
        if self._reversed is None:
            self._reversed = Route(self.back, self.forward)
            self._reversed._reversed = self
        return self._reversed


@dataclass(frozen=True)
class TransferResult:
    """Outcome of a fluid bandwidth transfer (one direction)."""

    achieved_bps: float
    loss_fraction: float
    sent_packets: int
    received_packets: int

    @property
    def achieved_mbps(self) -> float:
        return self.achieved_bps / 1e6


@dataclass(frozen=True)
class FlowRecord:
    """One registered foreground flow crossing one link direction."""

    link_key: Tuple[str, int, str, int]
    direction: "LinkDirection"
    t0_s: float
    t1_s: float
    wire_bps: float


class FlowLedger:
    """Tracks concurrent foreground flows for capacity sharing.

    The paper measures one path at a time, but a deployed UPIN domain
    serves many users whose transfers overlap.  Registered flows reduce
    the capacity the fluid model hands to later overlapping transfers —
    same-link, same-direction, time-weighted.

    Flows are indexed by ``(link_key, direction)``, so the competing-load
    query touches only the flows that could possibly overlap — O(flows
    on this link direction) instead of O(all flows ever registered) —
    and :meth:`prune` drops records whose window already closed
    (``t1_s < now``).  :meth:`~NetworkSim.fluid_transfer` prunes on
    every call, which keeps the ledger bounded by the number of
    *concurrently open* transfers over a long monitoring run instead of
    growing without bound under ``register_flow=True``.
    """

    def __init__(self, counters: Optional[NetCounters] = None) -> None:
        self._by_key: Dict[
            Tuple[Tuple[str, int, str, int], "LinkDirection"], List[FlowRecord]
        ] = {}
        self._count = 0
        self._counters = counters if counters is not None else NetCounters()

    def register(self, record: FlowRecord) -> None:
        self._by_key.setdefault((record.link_key, record.direction), []).append(
            record
        )
        self._count += 1

    def clear(self) -> None:
        self._by_key.clear()
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def prune(self, now_s: float) -> int:
        """Drop flows whose window closed before ``now_s``; return count."""
        removed = 0
        dead_keys = []
        for key, bucket in self._by_key.items():
            kept = [flow for flow in bucket if flow.t1_s >= now_s]
            removed += len(bucket) - len(kept)
            if kept:
                self._by_key[key] = kept
            else:
                dead_keys.append(key)
        for key in dead_keys:
            del self._by_key[key]
        self._count -= removed
        self._counters.ledger_pruned_flows += removed
        return removed

    def concurrent_load_bps(
        self,
        link_key: Tuple[str, int, str, int],
        direction: "LinkDirection",
        t0_s: float,
        t1_s: float,
    ) -> float:
        """Time-weighted wire load of overlapping flows on this link."""
        if t1_s <= t0_s:
            return 0.0
        window = t1_s - t0_s
        total = 0.0
        for flow in self._by_key.get((link_key, direction), ()):
            overlap = min(t1_s, flow.t1_s) - max(t0_s, flow.t0_s)
            if overlap > 0:
                total += flow.wire_bps * overlap / window
        return total


class ServerHealth(enum.Enum):
    """Health states used by fault injection (§4.1.2 failure families)."""

    UP = "up"
    DOWN = "down"  # server failure: no answer at all
    ERROR = "error"  # answers, but with a bad response


class ServerDirectory:
    """Mutable health registry for destination hosts."""

    def __init__(self) -> None:
        self._state: Dict[Tuple[ISDAS, str], ServerHealth] = {}

    @staticmethod
    def _key(ia: "ISDAS | str", ip: str) -> Tuple[ISDAS, str]:
        return (ISDAS.parse(ia), ip)

    def set_health(self, ia: "ISDAS | str", ip: str, health: ServerHealth) -> None:
        self._state[self._key(ia, ip)] = health

    def health(self, ia: "ISDAS | str", ip: str) -> ServerHealth:
        return self._state.get(self._key(ia, ip), ServerHealth.UP)


class NetworkSim:
    """Simulates packet and fluid traffic over a :class:`Topology`."""

    def __init__(
        self,
        topology: Topology,
        config: Optional[NetworkConfig] = None,
        clock: Optional[SimClock] = None,
    ) -> None:
        self.topology = topology
        self.config = config or NetworkConfig()
        self.clock = clock or SimClock()
        self.episodes = EpisodeSchedule()
        self.servers = ServerDirectory()
        self.counters = NetCounters()
        self.flows = FlowLedger(self.counters)
        self._streams = RngStreams(self.config.seed)
        self._links: Dict[Tuple[str, int, str, int], LinkState] = {}
        for spec in topology.links():
            self._links[spec.key()] = LinkState(
                spec,
                topology.as_of(spec.a),
                topology.as_of(spec.b),
                self.config,
                self._streams,
                self.episodes,
                self.counters,
            )

    # -- episode management ----------------------------------------------------

    def add_episode(self, episode: CongestionEpisode) -> None:
        self.episodes.add(episode)

    # -- lookups -----------------------------------------------------------------

    def link_state(self, spec: LinkSpec) -> LinkState:
        state = self._links.get(spec.key())
        if state is None:
            raise TopologyError(f"link not part of this network: {spec}")
        return state

    def route(self, hops: "Route | Sequence[LinkTraversal]") -> Route:
        """Resolve traversals into a :class:`Route` (a route passes through)."""
        if isinstance(hops, Route):
            return hops
        halves = tuple(
            self.link_state(step.link).half_from(step.sender)
            for step in batch.roundtrip_steps(hops)
        )
        return Route(halves[: len(hops)], halves[len(hops) :])

    # -- round-trip probes (the data-plane engine, see :mod:`.batch`) ---------------

    def probe_batch(
        self,
        traversals: "Route | Sequence[LinkTraversal]",
        packet: PacketSpec,
        count: int,
        interval_s: float,
        t0_s: Optional[float] = None,
    ) -> "batch.BatchEchoSeries":
        """Whole echo series as one steps × lanes matrix (:mod:`.batch`).

        Packet *i* of ``count`` departs at ``t0_s + i * interval_s``
        (``t0_s`` defaults to the simulation clock); jitter and drop
        decisions are drawn as one vector per link step from the links'
        echo streams.  Same seed ⇒ byte-identical series.
        Does **not** advance the clock — callers advance it by
        ``count * interval_s``.
        """
        t0 = self.clock.now_s if t0_s is None else t0_s
        return batch.probe_batch(self, traversals, packet, count, interval_s, t0)

    def probe_depths(
        self,
        traversals: "Route | Sequence[LinkTraversal]",
        packet: PacketSpec,
        depths: Sequence[int],
        *,
        purpose: str,
        interval_s: float = 0.0,
        t0_s: Optional[float] = None,
    ) -> "batch.BatchEchoSeries":
        """Round trips to the routers ``depths`` links down the path.

        Lane *j* probes the router after ``depths[j]`` traversals and
        departs at ``t0_s + j * interval_s`` (``t0_s`` defaults to the
        simulation clock); ``depths`` is sorted ascending.  Jitter and
        drops come from the links' ``purpose`` streams, never from the
        echo streams.  Does **not** advance the clock.
        """
        t0 = self.clock.now_s if t0_s is None else t0_s
        return batch.probe_depths(
            self, traversals, packet, depths, interval_s, t0, purpose=purpose
        )

    # -- fluid transfers -------------------------------------------------------------

    def fluid_transfer(
        self,
        traversals: "Route | Sequence[LinkTraversal]",
        target_bps: float,
        packet: PacketSpec,
        duration_s: float,
        t_s: Optional[float] = None,
        *,
        register_flow: bool = False,
    ) -> TransferResult:
        """Model a constant-rate UDP transfer (the bwtester primitive).

        The client offers ``target_bps`` of *payload*; each link clips the
        flow to its available byte capacity and the sending router's pps
        budget, and residual/episode loss compounds across the fragments
        of each packet.  Achieved bandwidth is the surviving payload rate
        with a small relative measurement noise.

        ``register_flow=True`` records the transfer in the flow ledger so
        *overlapping* transfers contend for the same link capacity (the
        multi-user case the paper's one-at-a-time suite never hits).
        """
        if target_bps <= 0 or duration_s <= 0:
            raise ValidationError("transfer needs positive rate and duration")
        route = self.route(traversals)
        if not route.forward:
            raise ValidationError("empty path")
        t0 = self.clock.now_s if t_s is None else t_s
        t1 = t0 + duration_s
        # Time-based ledger hygiene: flows whose window closed before this
        # transfer starts can never overlap it (or anything later on the
        # monotonic clock), so drop them here — the ledger stays bounded
        # by the number of concurrently open transfers.
        self.flows.prune(t0)

        pps = target_bps / (8.0 * packet.payload_bytes)
        wire_bytes = packet.total_wire_bytes
        fragments = packet.fragments
        # Skipping an empty ledger is exact: a path crosses each link
        # direction once, so no transfer competes with its own records.
        ledger = self.flows if self.flows else None
        survival = 1.0

        rate_pps = pps
        for half in route.forward:
            offered_bps = rate_pps * wire_bytes * 8.0
            offered_pps = rate_pps * fragments
            competing = 0.0 if ledger is None else ledger.concurrent_load_bps(
                half.spec.key(), half.direction, t0, t1
            )
            byte_ratio, pps_ratio = half.share(offered_bps, offered_pps, t0, t1, competing)
            accept = pps_ratio if pps_ratio < byte_ratio else byte_ratio  # min
            if register_flow:
                self.flows.register(
                    FlowRecord(
                        link_key=half.spec.key(),
                        direction=half.direction,
                        t0_s=t0,
                        t1_s=t1,
                        wire_bps=min(offered_bps, offered_bps * accept)
                        if offered_bps > 0
                        else 0.0,
                    )
                )
            frag_survive = accept * half.fluid_keep
            pkt_survive = (frag_survive if frag_survive > 0.0 else 0.0) ** fragments
            survival *= pkt_survive
            rate_pps *= pkt_survive
            if survival <= 1e-9:
                survival = 0.0
                break

        # Measurement shortfall: the real bwtester never quite reaches the
        # configured rate (timer granularity, scheduling), so the noise is
        # one-sided below the fluid prediction.
        noise_rng = self._streams.get("bwtest:noise")
        shortfall = abs(self.config.bw_noise_rel * float(noise_rng.standard_normal()))
        achieved = max(0.0, target_bps * survival * (1.0 - shortfall))
        sent = int(round(pps * duration_s))
        received = int(round(sent * survival))
        return TransferResult(
            achieved_bps=min(achieved, target_bps),
            loss_fraction=1.0 - survival,
            sent_packets=sent,
            received_packets=received,
        )

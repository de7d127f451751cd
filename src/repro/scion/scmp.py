"""SCMP services: echo (ping) and traceroute over the simulated network.

These are the network-level primitives behind ``scion ping`` and
``scion traceroute`` (§3.3).  Echo probes advance the shared simulation
clock by their send interval, so a 30-probe ping occupies 3 simulated
seconds — which is what lets time-windowed congestion episodes knock out
*consecutive* measurements exactly as in Fig 9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.netsim.batch import TRACEROUTE
from repro.netsim.network import NetworkSim, ServerHealth
from repro.netsim.packet import SCMP_HEADER_BYTES, PacketSpec
from repro.scion.path import Path
from repro.topology.isd_as import ISDAS

DEFAULT_PROBE_PAYLOAD = 8  # SCMP echo data bytes used by scion ping


@dataclass(frozen=True)
class EchoStats:
    """The statistics block ``scion ping`` reports after a run."""

    destination: str
    sent: int
    received: int
    rtts_ms: Tuple[float, ...]

    @property
    def loss_fraction(self) -> float:
        return 1.0 - self.received / self.sent if self.sent else 0.0

    @property
    def loss_pct(self) -> float:
        return 100.0 * self.loss_fraction

    @property
    def min_ms(self) -> float:
        return min(self.rtts_ms) if self.rtts_ms else math.nan

    @property
    def avg_ms(self) -> float:
        return sum(self.rtts_ms) / len(self.rtts_ms) if self.rtts_ms else math.nan

    @property
    def max_ms(self) -> float:
        return max(self.rtts_ms) if self.rtts_ms else math.nan

    @property
    def mdev_ms(self) -> float:
        if len(self.rtts_ms) < 2:
            return 0.0
        avg = self.avg_ms
        return math.sqrt(sum((r - avg) ** 2 for r in self.rtts_ms) / len(self.rtts_ms))


@dataclass(frozen=True)
class TracerouteHop:
    """Per-router result of a traceroute: three probe RTTs (None = lost)."""

    index: int
    isd_as: ISDAS
    interface: int
    rtts_ms: Tuple[Optional[float], ...]


class ScmpService:
    """Echo/traceroute client bound to a network simulator."""

    def __init__(self, network: NetworkSim) -> None:
        self.network = network

    # -- echo -----------------------------------------------------------------

    def echo_series(
        self,
        path: Path,
        dst_ip: str,
        *,
        count: int = 30,
        interval_s: float = 0.1,
        payload_bytes: int = DEFAULT_PROBE_PAYLOAD,
    ) -> EchoStats:
        """Send ``count`` SCMP echoes along ``path``; advances the clock.

        Matches the paper's measurement command: 30 probes at 0.1 s
        intervals (§5.3).  The series is one batch of the data-plane
        engine (:meth:`~repro.netsim.network.NetworkSim.probe_batch`):
        probe *i* departs at ``t0 + i * interval_s`` and the clock
        advances by ``count * interval_s``.
        """
        if count < 1:
            raise ValidationError(f"echo count must be >= 1: {count}")
        if interval_s <= 0:
            raise ValidationError("echo interval must be positive")
        destination = path.dst.address(dst_ip)
        clock = self.network.clock
        if self.network.servers.health(path.dst, dst_ip) is ServerHealth.DOWN:
            # A dead server answers nothing.  The clock steps one interval
            # per probe, not once by count * interval_s: the repeated
            # float additions keep simulated time bit-identical to earlier
            # releases, which campaign and monitor outputs depend on.
            for _ in range(count):
                clock.advance(interval_s)
            return EchoStats(destination=destination, sent=count, received=0, rtts_ms=())
        series = self.network.probe_batch(
            path.route(self.network),
            self._packet(path, payload_bytes + SCMP_HEADER_BYTES),
            count,
            interval_s,
            clock.now_s,
        )
        clock.advance(count * interval_s)
        return EchoStats(
            destination=destination,
            sent=count,
            received=series.received,
            rtts_ms=series.received_rtts(),
        )

    # -- traceroute ------------------------------------------------------------------

    def traceroute(
        self,
        path: Path,
        *,
        probes_per_hop: int = 3,
        interval_s: float = 0.05,
    ) -> List[TracerouteHop]:
        """Probe every router interface along ``path`` in order.

        All ``probes_per_hop × hops`` probes are one depth-laned batch
        (:meth:`~repro.netsim.network.NetworkSim.probe_depths`) drawing
        from the links' traceroute streams: probe *i* departs at
        ``t0 + i * interval_s``, hop by hop, and the clock advances by
        the whole run's send time.
        """
        traversals = path.traversals(self.network.topology)
        n_links = len(traversals)
        clock = self.network.clock
        series = self.network.probe_depths(
            path.route(self.network),
            self._packet(path, SCMP_HEADER_BYTES),
            np.repeat(np.arange(1, n_links + 1), probes_per_hop),
            purpose=TRACEROUTE,
            interval_s=interval_s,
            t0_s=clock.now_s,
        )
        clock.advance(n_links * probes_per_hop * interval_s)
        rtts = [None if r != r else r for r in series.rtt_ms.tolist()]  # NaN: lost
        hops: List[TracerouteHop] = []
        for idx, step in enumerate(traversals, start=1):
            arrived = step.link.other(step.sender)
            hops.append(
                TracerouteHop(
                    index=idx,
                    isd_as=arrived,
                    interface=step.link.interface_of(arrived),
                    rtts_ms=tuple(rtts[(idx - 1) * probes_per_hop : idx * probes_per_hop]),
                )
            )
        return hops

    def _packet(self, path: Path, payload_bytes: int) -> PacketSpec:
        return PacketSpec(
            payload_bytes=payload_bytes,
            n_hops=path.hop_count,
            n_segments=path.n_segments,
            underlay_mtu=self.network.config.underlay_mtu,
        )

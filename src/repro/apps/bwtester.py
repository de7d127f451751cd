"""``scion-bwtestclient``: the SCIONLab bandwidth tester (§3.3).

Parameter strings follow the real tool: ``"3,64,?,12Mbps"`` means a
3-second test with 64-byte packets at a 12 Mbps target, the ``?``
wildcard (exactly one allowed) standing for whichever parameter should
be derived from the others via ``bandwidth = packets * size * 8 /
duration``.  ``MTU`` may be used for the packet size.  ``-cs`` sets the
client->server parameters; ``-sc`` defaults to the same (§5.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import (
    BandwidthTestError,
    ParseError,
    ServerErrorResponse,
    ServerUnreachableError,
)
from repro.netsim.network import ServerHealth, TransferResult
from repro.netsim.packet import PacketSpec
from repro.scion.path import Path
from repro.scion.snet import ScionHost
from repro.topology.isd_as import ISDAS
from repro.util.units import Bandwidth, format_bandwidth, parse_bandwidth

MAX_DURATION_S = 10.0  # the real bwtester caps tests at 10 seconds
MIN_PACKET_BYTES = 4  # and requires at least 4-byte packets


@dataclass(frozen=True)
class BwtestParams:
    """Fully resolved test parameters for one direction."""

    duration_s: float
    packet_bytes: int
    num_packets: int
    target: Bandwidth


def parse_bwtest_params(text: str, *, mtu: int = 1472) -> BwtestParams:
    """Parse and resolve a ``duration,size,packets,bandwidth`` string."""
    parts = [p.strip() for p in str(text).split(",")]
    if len(parts) != 4:
        raise ParseError(f"bwtest parameters need 4 fields: {text!r}")
    wildcards = [i for i, p in enumerate(parts) if p == "?"]
    if len(wildcards) > 1:
        raise ParseError(f"only one '?' wildcard allowed: {text!r}")

    duration = None if parts[0] == "?" else float(parts[0])
    if parts[1] == "?":
        size: Optional[int] = None
    elif parts[1].upper() == "MTU":
        size = mtu
    else:
        size = int(parts[1])
    packets = None if parts[2] == "?" else int(parts[2])
    target = None if parts[3] == "?" else parse_bandwidth(parts[3])

    # Validate the explicitly given fields BEFORE deriving the wildcard,
    # so absurd inputs fail cleanly instead of poisoning the arithmetic.
    if duration is not None and not (0 < duration <= MAX_DURATION_S):
        raise BandwidthTestError(
            f"test duration must be in (0, {MAX_DURATION_S:g}] s: {duration}"
        )
    if size is not None and size < MIN_PACKET_BYTES:
        raise BandwidthTestError(f"packet size must be >= {MIN_PACKET_BYTES}: {size}")
    if packets is not None and packets < 1:
        raise BandwidthTestError(f"packet count must be >= 1: {packets}")

    # Resolve the wildcard from bandwidth = packets * size * 8 / duration.
    if duration is None:
        assert packets is not None and size is not None and target is not None
        duration = packets * size * 8.0 / target.bps
    elif size is None:
        assert packets is not None and target is not None
        size = int(round(target.bps * duration / (packets * 8.0)))
    elif packets is None:
        if target is None:
            raise ParseError(f"cannot infer packet count without bandwidth: {text!r}")
        packets = int(round(target.bps * duration / (size * 8.0)))
    elif target is None:
        target = Bandwidth(packets * size * 8.0 / duration)

    if not (0 < duration <= MAX_DURATION_S):
        raise BandwidthTestError(
            f"test duration must be in (0, {MAX_DURATION_S:g}] s: {duration}"
        )
    if size < MIN_PACKET_BYTES:
        raise BandwidthTestError(f"packet size must be >= {MIN_PACKET_BYTES}: {size}")
    if packets < 1:
        raise BandwidthTestError(f"packet count must be >= 1: {packets}")
    return BwtestParams(
        duration_s=duration, packet_bytes=size, num_packets=packets, target=target
    )


@dataclass(frozen=True)
class DirectionOutcome:
    """Measured outcome for one direction of the test."""

    params: BwtestParams
    result: TransferResult

    @property
    def achieved(self) -> Bandwidth:
        return Bandwidth(self.result.achieved_bps)

    def format_text(self, label: str) -> str:
        return (
            f"{label} results:\n"
            f"Attempted bandwidth: {format_bandwidth(self.params.target)}\n"
            f"Achieved bandwidth: {format_bandwidth(self.achieved)}\n"
            f"Loss rate: {100.0 * self.result.loss_fraction:.1f}%"
        )


@dataclass(frozen=True)
class BwtestResult:
    server: str
    path: Path
    cs: DirectionOutcome  # client -> server
    sc: DirectionOutcome  # server -> client

    def format_text(self) -> str:
        return (
            f"bwtest to {self.server} via {self.path.hops_display()}\n"
            + self.sc.format_text("S->C")
            + "\n"
            + self.cs.format_text("C->S")
        )


class BwtestApp:
    """Bandwidth test client bound to a local host."""

    def __init__(self, host: ScionHost) -> None:
        self.host = host

    def run(
        self,
        server_address: str,
        *,
        cs: str = "3,1000,30,?",
        sc: Optional[str] = None,
        sequence: Optional[str] = None,
    ) -> BwtestResult:
        """Run the two-direction bandwidth test; advances the sim clock.

        Raises :class:`ServerUnreachableError` when the bwtest server is
        down and :class:`ServerErrorResponse` when it answers garbage —
        the §4.1.2 failure families the test-suite must tolerate.
        """
        dst_ia, dst_ip = ISDAS.parse_address(server_address)
        path = self.host.daemon.resolve(dst_ia, sequence)

        health = self.host.network.servers.health(dst_ia, dst_ip)
        if health is ServerHealth.DOWN:
            raise ServerUnreachableError(f"bwtest server {server_address} unreachable")
        if health is ServerHealth.ERROR:
            raise ServerErrorResponse(f"bwtest server {server_address} returned a bad response")

        mtu = path.mtu
        cs_params = parse_bwtest_params(cs, mtu=mtu)
        sc_params = parse_bwtest_params(sc, mtu=mtu) if sc is not None else cs_params

        network = self.host.network
        forward = path.route(network)
        backward = forward.reversed()

        cs_result = network.fluid_transfer(
            forward,
            cs_params.target.bps,
            self._packet(cs_params, path),
            cs_params.duration_s,
        )
        network.clock.advance(cs_params.duration_s)
        sc_result = network.fluid_transfer(
            backward,
            sc_params.target.bps,
            self._packet(sc_params, path),
            sc_params.duration_s,
        )
        network.clock.advance(sc_params.duration_s)

        return BwtestResult(
            server=server_address,
            path=path,
            cs=DirectionOutcome(params=cs_params, result=cs_result),
            sc=DirectionOutcome(params=sc_params, result=sc_result),
        )

    def _packet(self, params: BwtestParams, path: Path) -> PacketSpec:
        return PacketSpec(
            payload_bytes=params.packet_bytes,
            n_hops=path.hop_count,
            n_segments=path.n_segments,
            underlay_mtu=self.host.network.config.underlay_mtu,
        )

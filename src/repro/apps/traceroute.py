"""``scion traceroute``: per-hop SCMP probing along a pinned path (§3.3).

"Particularly useful to test how the latency is affected by each link."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.apps.sequence import Sequence
from repro.errors import NoPathError
from repro.scion.path import Path
from repro.scion.scmp import TracerouteHop
from repro.scion.snet import ScionHost
from repro.topology.isd_as import ISDAS


@dataclass(frozen=True)
class TracerouteReport:
    destination: str
    path: Path
    hops: Tuple[TracerouteHop, ...]

    def format_text(self) -> str:
        lines = [f"traceroute to {self.destination} via {self.path.hops_display()}"]
        for hop in self.hops:
            rtts = " ".join(
                f"{r:.3f}ms" if r is not None else "*" for r in hop.rtts_ms
            )
            lines.append(f"{hop.index:2d} {hop.isd_as}#{hop.interface} {rtts}")
        return "\n".join(lines)


class TracerouteApp:
    """SCMP traceroute client bound to a local host."""

    def __init__(self, host: ScionHost) -> None:
        self.host = host

    def run(
        self,
        server_address: str,
        *,
        sequence: Optional[str] = None,
        path: Optional[Path] = None,
        probes_per_hop: int = 3,
    ) -> TracerouteReport:
        dst_ia, _dst_ip = ISDAS.parse_address(server_address)
        if path is None:
            paths = self.host.paths(dst_ia, max_paths=None)
            if sequence is not None:
                paths = Sequence.parse(sequence).select(paths)
            if not paths:
                raise NoPathError(f"no usable path to {dst_ia}")
            path = paths[0]
        hops = self.host.scmp.traceroute(path, probes_per_hop=probes_per_hop)
        return TracerouteReport(
            destination=server_address, path=path, hops=tuple(hops)
        )

"""``scion showpaths``: list available paths to a destination AS (§3.3).

Supports the two flags the paper leans on: ``-m`` raises the
default-10 path cap to e.g. 40, and ``--extended`` adds per-path detail
(MTU, status, latency hint) — "a really useful feature for this work".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.netsim.batch import SHOWPATHS
from repro.netsim.packet import SCMP_HEADER_BYTES, PacketSpec
from repro.scion.path import Path
from repro.scion.snet import ScionHost
from repro.topology.isd_as import ISDAS

DEFAULT_MAX_PATHS = 10


@dataclass(frozen=True)
class ShowpathsEntry:
    """One listed path with its extended attributes."""

    index: int
    path: Path
    mtu: int
    status: str  # "alive" | "timeout" | "unknown"
    latency_hint_ms: Optional[float]

    def format_line(self, *, extended: bool) -> str:
        base = f"[{self.index:2d}] {self.path.hops_display()}"
        if not extended:
            return base
        lat = (
            f"{2.0 * self.latency_hint_ms:.0f}ms"
            if self.latency_hint_ms is not None
            else "unknown"
        )
        return (
            f"{base}\n"
            f"     MTU: {self.mtu} "
            f"Status: {self.status} "
            f"Latency: {lat} "
            f"Hops: {self.path.hop_count}"
        )


@dataclass(frozen=True)
class ShowpathsResult:
    destination: ISDAS
    entries: Tuple[ShowpathsEntry, ...]

    def paths(self) -> List[Path]:
        return [e.path for e in self.entries]

    def format_text(self, *, extended: bool = False) -> str:
        header = f"Available paths to {self.destination}\n{len(self.entries)} Hops:"
        lines = [header]
        lines.extend(e.format_line(extended=extended) for e in self.entries)
        return "\n".join(lines)

    def to_records(self) -> List[dict]:
        """Machine-readable entries (the real CLI's ``--format json``)."""
        return [
            {
                "index": e.index,
                "hops": e.path.hops_display(),
                "sequence": e.path.sequence(),
                "hop_count": e.path.hop_count,
                "mtu": e.mtu,
                "status": e.status,
                "latency_hint_ms": e.latency_hint_ms,
                "isds": sorted(e.path.isd_set()),
                "fingerprint": e.path.fingerprint(),
            }
            for e in self.entries
        ]

    def format_json(self) -> str:
        import json

        return json.dumps(
            {"destination": str(self.destination), "paths": self.to_records()},
            indent=2,
            sort_keys=True,
        )


class ShowpathsApp:
    """Path listing bound to a local host."""

    def __init__(self, host: ScionHost) -> None:
        self.host = host

    def run(
        self,
        destination: "ISDAS | str",
        *,
        max_paths: int = DEFAULT_MAX_PATHS,
        extended: bool = False,
        probe: bool = False,
        refresh: bool = False,
    ) -> ShowpathsResult:
        """List up to ``max_paths`` ranked paths.

        ``extended`` computes MTU/latency hints; ``probe`` additionally
        sends one SCMP probe per path to mark it alive or timing out
        (like the real app's status column).
        """
        dst = ISDAS.parse(destination)
        paths = self.host.paths(dst, max_paths=max_paths, refresh=refresh)
        entries = []
        for i, path in enumerate(paths):
            status = "unknown"
            latency = None
            if extended:
                latency = path.static_latency_ms(self.host.topology)
            if probe:
                status = self._probe_status(path)
            entries.append(
                ShowpathsEntry(
                    index=i,
                    path=path,
                    mtu=path.mtu,
                    status=status,
                    latency_hint_ms=latency,
                )
            )
        return ShowpathsResult(destination=dst, entries=tuple(entries))

    def _probe_status(self, path: Path) -> str:
        packet = PacketSpec(
            payload_bytes=SCMP_HEADER_BYTES,
            n_hops=path.hop_count,
            n_segments=path.n_segments,
            underlay_mtu=self.host.network.config.underlay_mtu,
        )
        network = self.host.network
        series = network.probe_depths(
            path.route(network), packet, [path.n_links], purpose=SHOWPATHS
        )
        return "timeout" if series.received == 0 else "alive"

"""``scion ping``: SCMP echo with path pinning (§3.3, §5.3).

Reproduces the measurement command of the paper's runner::

    scion ping {server_address} -c 30 --sequence '{hop_predicates}' \\
        --interval 0.1s

including the ``--interactive`` path chooser (programmatic here: pass a
selector callable instead of a terminal prompt).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence as Seq

from repro.errors import NoPathError, ServerUnreachableError
from repro.scion.path import Path
from repro.scion.scmp import EchoStats
from repro.scion.snet import ScionHost
from repro.topology.isd_as import ISDAS
from repro.util.units import parse_duration


@dataclass(frozen=True)
class PingReport:
    """Everything ``scion ping`` prints: per-path stats block."""

    destination: str
    path: Path
    stats: EchoStats

    def format_text(self) -> str:
        s = self.stats
        lines = [
            f"PING {self.destination} via {self.path.hops_display()}",
            f"--- {self.destination} statistics ---",
            (
                f"{s.sent} packets transmitted, {s.received} received, "
                f"{s.loss_pct:.1f}% packet loss"
            ),
        ]
        if s.rtts_ms:
            lines.append(
                "rtt min/avg/max/mdev = "
                f"{s.min_ms:.3f}/{s.avg_ms:.3f}/{s.max_ms:.3f}/{s.mdev_ms:.3f} ms"
            )
        return "\n".join(lines)


class PingApp:
    """SCMP echo client bound to a local host."""

    def __init__(self, host: ScionHost) -> None:
        self.host = host

    def run(
        self,
        server_address: str,
        *,
        count: int = 30,
        interval: str = "0.1s",
        sequence: Optional[str] = None,
        interactive: Optional[Callable[[Seq[Path]], int]] = None,
        max_paths: Optional[int] = None,
    ) -> PingReport:
        """Ping ``server_address`` (``"16-ffaa:0:1002,[172.31.43.7]"``).

        Path choice precedence: ``sequence`` hop predicates >
        ``interactive`` selector > best-ranked path.
        """
        dst_ia, dst_ip = ISDAS.parse_address(server_address)
        chosen = self._choose_path(dst_ia, sequence, interactive, max_paths)
        interval_s = parse_duration(interval).seconds
        stats = self.host.scmp.echo_series(
            chosen, dst_ip, count=count, interval_s=interval_s
        )
        return PingReport(destination=server_address, path=chosen, stats=stats)

    def _choose_path(
        self,
        dst_ia: ISDAS,
        sequence: Optional[str],
        interactive: Optional[Callable[[Seq[Path]], int]],
        max_paths: Optional[int],
    ) -> Path:
        if sequence is not None or interactive is None:
            return self.host.daemon.resolve(dst_ia, sequence)
        # ``max_paths`` bounds only the interactive menu.
        paths = self.host.paths(dst_ia, max_paths=max_paths)
        if not paths:
            raise NoPathError(f"no path to {dst_ia}")
        index = interactive(paths)
        if not (0 <= index < len(paths)):
            raise NoPathError(f"interactive selection out of range: {index}")
        return paths[index]

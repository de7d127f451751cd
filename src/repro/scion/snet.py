"""``snet``-style host facade: the thin bindings applications build on.

Bundles everything one SCION end host sees — its identity, the local
daemon, the SCMP client and the network — behind a small API.  The
paper's tooling (showpaths/ping/traceroute/bwtester, the test-suite)
and the examples all construct a :class:`ScionHost` and go from there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.netsim.clock import SimClock
from repro.netsim.config import NetworkConfig
from repro.netsim.network import NetworkSim
from repro.scion.beaconing import Beaconer
from repro.scion.daemon import Sciond
from repro.scion.path import Path
from repro.scion.scmp import EchoStats, ScmpService
from repro.topology.graph import Topology
from repro.topology.isd_as import ISDAS


class ScionHost:
    """One end host attached to a simulated SCION network."""

    def __init__(
        self,
        topology: Topology,
        local_ia: "ISDAS | str",
        local_ip: Optional[str] = None,
        *,
        network: Optional[NetworkSim] = None,
        config: Optional[NetworkConfig] = None,
        clock: Optional[SimClock] = None,
    ) -> None:
        self.topology = topology
        self.local_ia = ISDAS.parse(local_ia)
        self.local_ip = local_ip or topology.as_of(self.local_ia).primary_host.ip
        self.network = network or NetworkSim(topology, config=config, clock=clock)
        self.daemon = Sciond(topology, self.local_ia)
        self.scmp = ScmpService(self.network)

    @property
    def clock(self) -> SimClock:
        return self.network.clock

    def address(self) -> str:
        """What ``scion address`` prints for this host."""
        return self.local_ia.address(self.local_ip)

    def paths(self, dst: "ISDAS | str", *, max_paths: Optional[int] = 10,
              refresh: bool = False) -> List[Path]:
        return self.daemon.paths(dst, max_paths=max_paths, refresh=refresh)

    def ping(
        self,
        dst: "ISDAS | str",
        dst_ip: str,
        *,
        path: Optional[Path] = None,
        count: int = 30,
        interval_s: float = 0.1,
    ) -> EchoStats:
        """Ping ``dst`` along ``path`` (default: best-ranked path)."""
        if path is None:
            path = self.daemon.resolve(dst)
        return self.scmp.echo_series(
            path, dst_ip, count=count, interval_s=interval_s
        )

    @classmethod
    def scionlab(cls, *, seed: int = 20231112) -> "ScionHost":
        """The canonical world of the paper: MY_AS inside SCIONLab."""
        from repro.topology.scionlab import (
            MY_AS,
            build_scionlab_world,
            scionlab_network_config,
        )

        topo = build_scionlab_world()
        return cls(topo, MY_AS, config=scionlab_network_config(seed=seed))

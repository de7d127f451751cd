"""End-to-end forwarding paths.

A :class:`Path` is what ``scion showpaths`` lists and what measurements
pin with ``--sequence``: the ordered ASes with the interface pair used
at each.  Hop count (number of ASes) is the paper's ranking metric.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Sequence, Tuple

from repro.errors import TopologyError, ValidationError
from repro.netsim.network import LinkTraversal, NetworkSim, Route
from repro.topology.graph import Topology
from repro.topology.isd_as import ISDAS


@dataclass(frozen=True)
class PathHop:
    """One AS on a forwarding path with its ingress/egress interfaces."""

    isd_as: ISDAS
    ingress: Optional[int]
    egress: Optional[int]

    def predicate(self) -> str:
        """Hop-predicate notation ``ISD-AS#in,out`` (0 = unspecified)."""
        i = self.ingress if self.ingress is not None else 0
        e = self.egress if self.egress is not None else 0
        return f"{self.isd_as}#{i},{e}"


@dataclass(frozen=True)
class Path:
    """An end-to-end SCION path from ``src`` to ``dst``."""

    src: ISDAS
    dst: ISDAS
    hops: Tuple[PathHop, ...]
    n_segments: int = 2
    mtu: int = 1472

    def __post_init__(self) -> None:
        if len(self.hops) < 1:
            raise ValidationError("path needs at least one hop")
        if self.hops[0].isd_as != self.src or self.hops[-1].isd_as != self.dst:
            raise ValidationError("path endpoints disagree with src/dst")
        if self.hops[0].ingress is not None or self.hops[-1].egress is not None:
            raise ValidationError("terminal hops must not have outer interfaces")
        seen = set()
        for hop in self.hops:
            if hop.isd_as in seen:
                raise ValidationError(f"path loops through {hop.isd_as}")
            seen.add(hop.isd_as)

    # -- metrics the paper uses --------------------------------------------------

    @property
    def hop_count(self) -> int:
        """Number of ASes traversed (the paper's path-length metric)."""
        return len(self.hops)

    @property
    def n_links(self) -> int:
        return len(self.hops) - 1

    def isd_set(self) -> FrozenSet[int]:
        """The set of ISDs traversed — a grouping key in Fig 6."""
        return frozenset(h.isd_as.isd for h in self.hops)

    def ases(self) -> Tuple[ISDAS, ...]:
        return tuple(h.isd_as for h in self.hops)

    def transits(self, ia: "ISDAS | str") -> bool:
        return ISDAS.parse(ia) in set(self.ases())

    # -- representations ----------------------------------------------------------

    def sequence(self) -> str:
        """The ``--sequence`` hop-predicate string pinning this path."""
        return " ".join(h.predicate() for h in self.hops)

    def hops_display(self) -> str:
        """Human format used by showpaths: ``A 1>2 B 3>4 C``."""
        parts: List[str] = [str(self.hops[0].isd_as)]
        for prev, nxt in zip(self.hops, self.hops[1:]):
            parts.append(f"{prev.egress}>{nxt.ingress}")
            parts.append(str(nxt.isd_as))
        return " ".join(parts)

    def fingerprint(self) -> str:
        """Stable short id of the interface sequence."""
        return hashlib.sha256(self.sequence().encode()).hexdigest()[:16]

    def sort_key(self) -> Tuple[int, Tuple[str, ...]]:
        """Ranking used by showpaths: hop count, then interface sequence."""
        return (self.hop_count, tuple(h.predicate() for h in self.hops))

    # -- data-plane resolution -------------------------------------------------------

    def traversals(self, topology: Topology) -> List[LinkTraversal]:
        """Resolve the hop sequence into concrete link traversals.

        Memoized per ``(topology, topology.epoch)``: the same ``Path``
        object is resolved on every ping/bwtest of a campaign, so the
        link lookups run once and every later call is a list copy.  The
        cache rides the path instance (a weak topology reference plus
        the topology's mutation epoch), so a different or rebuilt
        topology re-resolves from scratch.
        """
        cached = self.__dict__.get("_traversal_memo")
        if cached is not None:
            topo_ref, epoch, steps = cached
            if topo_ref() is topology and epoch == topology.epoch:
                return list(steps)
        steps = []
        for hop, nxt in zip(self.hops, self.hops[1:]):
            if hop.egress is None or nxt.ingress is None:
                raise TopologyError(f"unresolvable hop pair {hop} -> {nxt}")
            link = topology.link_at(hop.isd_as, hop.egress)
            if link.other(hop.isd_as) != nxt.isd_as:
                raise TopologyError(
                    f"egress {hop.isd_as}#{hop.egress} does not lead to {nxt.isd_as}"
                )
            steps.append(LinkTraversal(link=link, sender=hop.isd_as))
        object.__setattr__(
            self,
            "_traversal_memo",
            (weakref.ref(topology), topology.epoch, tuple(steps)),
        )
        return steps

    def route(self, network: NetworkSim) -> Route:
        """:meth:`traversals` resolved against ``network``, memoized alike."""
        epoch = network.topology.epoch
        cached = self.__dict__.get("_route_memo")
        if cached is None or cached[0]() is not network or cached[1] != epoch:
            route = network.route(self.traversals(network.topology))
            cached = (weakref.ref(network), epoch, route)
            object.__setattr__(self, "_route_memo", cached)
        return cached[2]

    def static_latency_ms(self, topology: Topology) -> float:
        """Sum of one-way propagation delays — showpaths' latency hint."""
        from repro.util.geo import propagation_delay_ms

        total = 0.0
        for step in self.traversals(topology):
            a = topology.as_of(step.link.a).location
            b = topology.as_of(step.link.b).location
            total += propagation_delay_ms(a, b)
        return total

    def resolve_mtu(self, topology: Topology) -> int:
        """Path MTU = min of link MTUs and endpoint AS MTUs."""
        mtus = [topology.as_of(self.src).mtu, topology.as_of(self.dst).mtu]
        mtus.extend(step.link.mtu for step in self.traversals(topology))
        return min(mtus)

    def __str__(self) -> str:
        return f"[{self.hops_display()}]"

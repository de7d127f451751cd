"""The :class:`Topology` container: ASes + links with integrity checks.

The topology is the static ground truth the control plane (beaconing,
segment combination) and the data plane (network simulator) both read.
It validates SCION structural invariants at construction time:

* interface ids are unique per AS,
* ``CORE`` links join two core ASes,
* ``PARENT`` links point from provider to customer and the
  provider-customer digraph is acyclic (no customer cones loops),
* every non-core AS can reach at least one core AS of its ISD by
  following parent links upward (otherwise beaconing would strand it).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Set, Tuple

import networkx as nx

from repro.errors import TopologyError, UnknownASError
from repro.topology.entities import ASRole, AutonomousSystem, LinkKind, LinkSpec
from repro.topology.isd_as import ISDAS


class Topology:
    """Immutable-after-build registry of ASes and links."""

    def __init__(
        self,
        ases: Iterable[AutonomousSystem],
        links: Iterable[LinkSpec],
        *,
        validate: bool = True,
    ) -> None:
        self._ases: Dict[ISDAS, AutonomousSystem] = {}
        for asys in ases:
            if asys.isd_as in self._ases:
                raise TopologyError(f"duplicate AS {asys.isd_as}")
            self._ases[asys.isd_as] = asys

        self._links: List[LinkSpec] = []
        self._by_interface: Dict[Tuple[ISDAS, int], LinkSpec] = {}
        self._adjacent: Dict[ISDAS, List[LinkSpec]] = defaultdict(list)
        for link in links:
            self._add_link(link)
        #: Mutation counter consulted by path-resolution caches.  The
        #: topology is immutable after build today, so this stays 0; any
        #: future mutating API must bump it so memoized
        #: :meth:`repro.scion.path.Path.traversals` results invalidate.
        self._epoch = 0

        if validate:
            self._validate()

    # -- construction helpers ------------------------------------------------

    def _add_link(self, link: LinkSpec) -> None:
        for side in link.endpoints():
            if side not in self._ases:
                raise UnknownASError(str(side))
        for side, ifid in ((link.a, link.a_ifid), (link.b, link.b_ifid)):
            key = (side, ifid)
            if key in self._by_interface:
                raise TopologyError(f"interface {side}#{ifid} used twice")
            self._by_interface[key] = link
        self._links.append(link)
        self._adjacent[link.a].append(link)
        self._adjacent[link.b].append(link)

    def _validate(self) -> None:
        for link in self._links:
            a_role = self._ases[link.a].role
            b_role = self._ases[link.b].role
            if link.kind is LinkKind.CORE:
                if not (a_role is ASRole.CORE and b_role is ASRole.CORE):
                    raise TopologyError(f"core link between non-core ASes: {link}")
            elif link.kind is LinkKind.PARENT:
                if b_role is ASRole.CORE:
                    raise TopologyError(f"core AS {link.b} cannot be a child: {link}")
        self._check_parent_acyclic()
        self._check_core_reachability()

    def _check_parent_acyclic(self) -> None:
        dag = nx.DiGraph()
        dag.add_nodes_from(self._ases)
        for link in self._links:
            if link.kind is LinkKind.PARENT:
                dag.add_edge(link.a, link.b)
        if not nx.is_directed_acyclic_graph(dag):
            cycle = nx.find_cycle(dag)
            raise TopologyError(f"provider-customer cycle: {cycle}")

    def _check_core_reachability(self) -> None:
        for asys in self._ases.values():
            if asys.is_core:
                continue
            if not self._reaches_core(asys.isd_as):
                raise TopologyError(
                    f"{asys.isd_as} cannot reach any core AS via parent links"
                )

    def _reaches_core(self, start: ISDAS) -> bool:
        seen: Set[ISDAS] = set()
        frontier = [start]
        while frontier:
            node = frontier.pop()
            if node in seen:
                continue
            seen.add(node)
            if self._ases[node].is_core:
                return True
            frontier.extend(self.parents_of(node))
        return False

    # -- lookups --------------------------------------------------------------

    @property
    def epoch(self) -> int:
        """Mutation counter for dependent caches (0 while immutable)."""
        return self._epoch

    def as_of(self, ia: "ISDAS | str") -> AutonomousSystem:
        ia = ISDAS.parse(ia)
        try:
            return self._ases[ia]
        except KeyError:
            raise UnknownASError(str(ia)) from None

    def __contains__(self, ia: "ISDAS | str") -> bool:
        try:
            return ISDAS.parse(ia) in self._ases
        except Exception:
            return False

    def all_ases(self) -> List[AutonomousSystem]:
        return sorted(self._ases.values(), key=lambda a: a.isd_as)

    def core_ases(self, isd: Optional[int] = None) -> List[AutonomousSystem]:
        return [
            a
            for a in self.all_ases()
            if a.is_core and (isd is None or a.isd_as.isd == isd)
        ]

    def isds(self) -> List[int]:
        return sorted({a.isd_as.isd for a in self._ases.values()})

    def links(self) -> List[LinkSpec]:
        return list(self._links)

    def links_of(self, ia: "ISDAS | str") -> List[LinkSpec]:
        return list(self._adjacent[ISDAS.parse(ia)])

    def link_at(self, ia: "ISDAS | str", ifid: int) -> LinkSpec:
        """The link attached to interface ``ifid`` of AS ``ia``."""
        key = (ISDAS.parse(ia), ifid)
        link = self._by_interface.get(key)
        if link is None:
            raise TopologyError(f"no link at {key[0]}#{ifid}")
        return link

    def link_between(
        self, a: "ISDAS | str", b: "ISDAS | str"
    ) -> List[LinkSpec]:
        """All (possibly parallel) links between two ASes."""
        a, b = ISDAS.parse(a), ISDAS.parse(b)
        return [l for l in self._adjacent[a] if l.other(a) == b]

    # -- SCION-structure queries ----------------------------------------------

    def parents_of(self, ia: "ISDAS | str") -> List[ISDAS]:
        """Provider ASes of ``ia`` (the ``a`` side of PARENT links to it)."""
        ia = ISDAS.parse(ia)
        return [
            l.a for l in self._adjacent[ia] if l.kind is LinkKind.PARENT and l.b == ia
        ]

    def __len__(self) -> int:
        return len(self._ases)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Topology(ases={len(self._ases)}, links={len(self._links)})"

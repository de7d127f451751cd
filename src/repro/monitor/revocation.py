"""Interface revocations: the SCION control plane's "this link is gone".

A revocation names an ``(ISD-AS, interface)`` pair and a validity
window.  Injecting one does two things at once:

* **data plane** (netsim): the revoked link gets a total-blackout
  :class:`~repro.netsim.congestion.CongestionEpisode` for the validity
  window, so probes and transfers across it really die;
* **control plane** (this store): every path whose hop predicates use
  the revoked interface is immediately *affected* — the monitor marks
  flows on such paths DEAD without waiting for probe evidence, and the
  failover engine excludes affected paths from reselection until the
  revocation expires.

Both sides run on the shared :class:`~repro.netsim.clock.SimClock`, so
"until expiry" means the same instant everywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import ValidationError
from repro.netsim.congestion import CongestionEpisode
from repro.netsim.network import NetworkSim
from repro.scion.path import Path
from repro.topology.graph import Topology
from repro.topology.isd_as import ISDAS

_PREDICATE_RE = re.compile(r"^(?P<ia>[^#]+)#(?P<ingress>\d+),(?P<egress>\d+)$")


@dataclass(frozen=True)
class Revocation:
    """One revoked interface with its validity window."""

    isd_as: ISDAS
    interface: int
    issued_at_s: float
    expires_at_s: float
    reason: str = "revoked"

    def __post_init__(self) -> None:
        if self.interface <= 0:
            raise ValidationError("interface ids are positive")
        if self.expires_at_s <= self.issued_at_s:
            raise ValidationError("revocation must have positive validity")

    def active_at(self, t_s: float) -> bool:
        return self.issued_at_s <= t_s < self.expires_at_s

    def to_document(self) -> Dict[str, Any]:
        return {
            "isd_as": str(self.isd_as),
            "interface": self.interface,
            "issued_at_s": self.issued_at_s,
            "expires_at_s": self.expires_at_s,
            "reason": self.reason,
        }

    def __str__(self) -> str:
        return (
            f"{self.isd_as}#{self.interface} revoked "
            f"[{self.issued_at_s:g}s..{self.expires_at_s:g}s): {self.reason}"
        )


def sequence_interfaces(sequence: str) -> Set[Tuple[str, int]]:
    """The ``(isd_as, interface)`` pairs a ``--sequence`` string pins.

    Interface 0 means "unspecified" in hop-predicate notation and is
    never returned.
    """
    used: Set[Tuple[str, int]] = set()
    for predicate in sequence.split():
        match = _PREDICATE_RE.match(predicate)
        if match is None:
            raise ValidationError(f"malformed hop predicate: {predicate!r}")
        ia = match.group("ia")
        for group in ("ingress", "egress"):
            ifid = int(match.group(group))
            if ifid > 0:
                used.add((ia, ifid))
    return used


class RevocationStore:
    """The set of revocations a monitoring domain currently knows."""

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self._revocations: List[Revocation] = []

    def __len__(self) -> int:
        return len(self._revocations)

    def inject(
        self,
        revocation: Revocation,
        *,
        network: Optional[NetworkSim] = None,
    ) -> Revocation:
        """Record a revocation; optionally black-hole the link in netsim.

        With ``network`` given, the revoked link carries a loss-1.0
        zero-capacity episode for the validity window — the data plane
        dies at the same instant the control plane learns about it.
        """
        # Validates the interface actually exists in this topology.
        link = self.topology.link_at(revocation.isd_as, revocation.interface)
        self._revocations.append(revocation)
        if network is not None:
            network.add_episode(
                CongestionEpisode.on_links(
                    [link],
                    revocation.issued_at_s,
                    revocation.expires_at_s,
                    loss=1.0,
                    capacity_factor=0.0,
                    reason=f"revocation: {revocation.reason}",
                )
            )
        return revocation

    def active(self, now_s: float) -> List[Revocation]:
        return [r for r in self._revocations if r.active_at(now_s)]

    # -- path matching ---------------------------------------------------------

    def _active_pairs(self, now_s: float) -> Set[Tuple[str, int]]:
        return {
            (str(r.isd_as), r.interface) for r in self.active(now_s)
        }

    def affecting_path(self, path: Path, now_s: float) -> Optional[Revocation]:
        """The first active revocation ``path`` traverses (or None)."""
        for revocation in self.active(now_s):
            ia = revocation.isd_as
            for hop in path.hops:
                if hop.isd_as != ia:
                    continue
                if revocation.interface in (hop.ingress, hop.egress):
                    return revocation
        return None

    def affected_path_ids(
        self, path_docs: Iterable[Dict[str, Any]], now_s: float
    ) -> Set[str]:
        """Stored path documents currently unusable due to revocations."""
        pairs = self._active_pairs(now_s)
        if not pairs:
            return set()
        return {
            str(doc["_id"])
            for doc in path_docs
            if sequence_interfaces(str(doc["sequence"])) & pairs
        }

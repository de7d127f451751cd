"""Topology entities: autonomous systems, hosts, and inter-AS links.

A SCIONLab AS "typically is made up by a single host" (§3.1), so every
:class:`AutonomousSystem` carries a primary :class:`Host`; ASes that host
several test servers (the paper notes "certain ASes contain multiple
servers") may carry more.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import ValidationError
from repro.topology.isd_as import ISDAS
from repro.util.geo import GeoPoint


class ASRole(enum.Enum):
    """The three SCIONLab AS flavours (§3.1) plus user-attached ASes."""

    CORE = "core"
    NON_CORE = "non-core"
    ATTACHMENT_POINT = "attachment-point"
    USER = "user"


class LinkKind(enum.Enum):
    """SCION inter-AS link types.

    ``PARENT`` links are directional in the provider-customer sense: the
    ``a`` endpoint is the parent (provider), ``b`` the child (customer).
    ``CORE`` links connect core ASes (possibly across ISDs); ``PEER``
    links connect non-core ASes laterally.
    """

    CORE = "core"
    PARENT = "parent"
    PEER = "peer"


@dataclass(frozen=True)
class Host:
    """An end host inside an AS."""

    ip: str
    name: str = ""

    def __post_init__(self) -> None:
        if not self.ip:
            raise ValidationError("host needs an IP address")


@dataclass
class AutonomousSystem:
    """One AS: identity, role, placement and hosts.

    ``country`` and ``operator`` feed the sovereignty/exclusion filters of
    the path-selection engine (paper abstract: "devices to exclude for
    geographical or sovereignty reasons").
    """

    isd_as: ISDAS
    name: str
    role: ASRole
    location: GeoPoint
    country: str
    operator: str
    city: str = ""
    hosts: List[Host] = field(default_factory=list)
    mtu: int = 1472

    def __post_init__(self) -> None:
        if self.mtu < 576:
            raise ValidationError(f"AS MTU unreasonably small: {self.mtu}")

    @property
    def primary_host(self) -> Host:
        if not self.hosts:
            raise ValidationError(f"AS {self.isd_as} has no hosts")
        return self.hosts[0]

    @property
    def is_core(self) -> bool:
        return self.role is ASRole.CORE

    def address(self) -> str:
        """Primary host address in ``isd-as,[ip]`` notation."""
        return self.isd_as.address(self.primary_host.ip)

    def __str__(self) -> str:
        return f"{self.isd_as} ({self.name})"


@dataclass(frozen=True)
class LinkSpec:
    """An inter-AS link between interface ``a_ifid`` of AS ``a`` and
    interface ``b_ifid`` of AS ``b``.

    Capacities are directional (``capacity_ab`` carries traffic from the
    ``a`` endpoint towards ``b``) so access asymmetry — the cause of the
    paper's upstream-vs-downstream bandwidth gap (Fig 7) — can be modelled
    at the user AS attachment link.
    """

    a: ISDAS
    a_ifid: int
    b: ISDAS
    b_ifid: int
    kind: LinkKind
    capacity_ab_mbps: float = 1000.0
    capacity_ba_mbps: float = 1000.0
    mtu: int = 1472
    base_loss: float = 0.0

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ValidationError(f"self-link at {self.a}")
        if self.a_ifid <= 0 or self.b_ifid <= 0:
            raise ValidationError("interface ids must be positive")
        if min(self.capacity_ab_mbps, self.capacity_ba_mbps) <= 0:
            raise ValidationError("link capacities must be positive")
        if not (0.0 <= self.base_loss < 1.0):
            raise ValidationError(f"base_loss out of range: {self.base_loss}")

    def endpoints(self) -> Tuple[ISDAS, ISDAS]:
        return self.a, self.b

    def interface_of(self, side: ISDAS) -> int:
        if side == self.a:
            return self.a_ifid
        if side == self.b:
            return self.b_ifid
        raise ValidationError(f"{side} is not an endpoint of this link")

    def other(self, side: ISDAS) -> ISDAS:
        if side == self.a:
            return self.b
        if side == self.b:
            return self.a
        raise ValidationError(f"{side} is not an endpoint of this link")

    def key(self) -> Tuple[str, int, str, int]:
        """A stable hashable identity for the link.

        Memoized on the (frozen) instance: the simulator keys its
        link-state and flow-ledger lookups on this tuple once per
        traversal step on the measurement hot path.
        """
        cached = self.__dict__.get("_key_memo")
        if cached is None:
            cached = (str(self.a), self.a_ifid, str(self.b), self.b_ifid)
            object.__setattr__(self, "_key_memo", cached)
        return cached

    def __str__(self) -> str:
        arrow = {"core": "=", "parent": ">", "peer": "~"}[self.kind.value]
        return f"{self.a}#{self.a_ifid} {arrow} {self.b}#{self.b_ifid}"

"""The hop-predicate ``--sequence`` language.

``scion ping --sequence '17-ffaa:1:e01#0,1 17-ffaa:0:1107#3,1 ...'``
pins the exact forwarding path of a measurement (§5.3).  A sequence is
a space-separated list of hop predicates ``ISD-AS#in,out`` where ``0``
is a wildcard for an interface, the interface pair may be omitted
(``ISD-AS`` alone), and ``0-0`` wildcards the AS itself.  A path matches
when it has exactly one hop per predicate and every component agrees.

Applications resolve a sequence through
:meth:`repro.scion.daemon.Sciond.resolve`, against every combinable
path.  A sequence spelled the way ``Path.sequence()`` prints it (what
the ``paths`` collection stores) resolves by a dict lookup; wildcards
and other spellings resolve by the :meth:`Sequence.select` scan here,
which defines the matching semantics.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Sequence as Seq, Tuple

from repro.errors import ParseError
from repro.scion.path import Path, PathHop
from repro.topology.isd_as import ISDAS

_PRED_RE = re.compile(
    r"^(?P<isd>\d+)-(?P<as>[0-9a-fA-F:]+)(?:#(?P<ifids>\d+(?:,\d+)?))?$"
)


@dataclass(frozen=True)
class HopPredicate:
    """One hop pattern: ISD (0=any), ASN (None=any), ingress/egress (0=any)."""

    isd: int
    asn: Optional[int]
    ingress: int
    egress: int

    @classmethod
    def parse(cls, token: str) -> "HopPredicate":
        m = _PRED_RE.match(token.strip())
        if not m:
            raise ParseError(f"bad hop predicate: {token!r}")
        isd = int(m.group("isd"))
        as_text = m.group("as")
        if as_text in ("0", "0:0:0"):
            asn: Optional[int] = None
        else:
            asn = ISDAS.parse(f"{max(isd, 1)}-{as_text}").asn
        ifids = m.group("ifids")
        ingress = egress = 0
        if ifids:
            parts = ifids.split(",")
            if len(parts) == 1:
                ingress = egress = int(parts[0])
            else:
                ingress, egress = int(parts[0]), int(parts[1])
        return cls(isd=isd, asn=asn, ingress=ingress, egress=egress)

    def matches(self, hop: PathHop) -> bool:
        if self.isd != 0 and hop.isd_as.isd != self.isd:
            return False
        if self.asn is not None and hop.isd_as.asn != self.asn:
            return False
        if self.ingress != 0 and (hop.ingress or 0) != self.ingress:
            return False
        if self.egress != 0 and (hop.egress or 0) != self.egress:
            return False
        return True

    def __str__(self) -> str:
        as_part = "0" if self.asn is None else ISDAS(max(self.isd, 1), self.asn).as_str
        return f"{self.isd}-{as_part}#{self.ingress},{self.egress}"


@dataclass(frozen=True)
class Sequence:
    """A full-path predicate list."""

    predicates: Tuple[HopPredicate, ...]

    @classmethod
    def parse(cls, text: str) -> "Sequence":
        tokens = text.split()
        if not tokens:
            raise ParseError("empty sequence")
        return cls(predicates=tuple(HopPredicate.parse(t) for t in tokens))

    def matches(self, path: Path) -> bool:
        if len(self.predicates) != path.hop_count:
            return False
        return all(p.matches(h) for p, h in zip(self.predicates, path.hops))

    def select(self, paths: Seq[Path]) -> List[Path]:
        """All paths from ``paths`` satisfying this sequence."""
        return [p for p in paths if self.matches(p)]

    def __str__(self) -> str:
        return " ".join(str(p) for p in self.predicates)

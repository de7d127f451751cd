"""ISD-AS identifiers.

SCION addresses autonomous systems as ``<ISD>-<AS>`` where the ISD is a
small integer (isolation domain) and the AS number is rendered in the
three-group hexadecimal BGP-style format SCIONLab uses, e.g.
``19-ffaa:0:1303``.  Full host addresses append an IP in brackets:
``19-ffaa:0:1303,[141.44.25.144]`` — exactly the notation the paper's
figures use.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache, total_ordering

from repro.errors import ParseError

_AS_GROUP_BITS = 16
_AS_RE = re.compile(r"^([0-9a-fA-F]{1,4}):([0-9a-fA-F]{1,4}):([0-9a-fA-F]{1,4})$")
_ISD_AS_RE = re.compile(r"^(\d+)-([0-9a-fA-F:]+)$")
_ADDR_RE = re.compile(r"^(\d+-[0-9a-fA-F:]+),\[([^\]]+)\]$")


@total_ordering
@dataclass(frozen=True)
class ISDAS:
    """An (ISD, AS-number) pair.  AS number is stored as a 48-bit int."""

    isd: int
    asn: int

    def __post_init__(self) -> None:
        if self.isd < 0 or self.isd > 0xFFFF:
            raise ParseError(f"ISD out of range: {self.isd}")
        if self.asn < 0 or self.asn >= 1 << 48:
            raise ParseError(f"AS number out of range: {self.asn}")

    # -- parsing -----------------------------------------------------------

    @classmethod
    def parse(cls, text: "str | ISDAS") -> "ISDAS":
        """Parse ``"19-ffaa:0:1303"`` into an :class:`ISDAS`.

        Parses of the same text return the same (immutable) instance
        from a bounded memo; text that fails to parse raises every time
        and is never memoized.
        """
        if isinstance(text, ISDAS):
            return text
        return _parse_text(str(text))

    @staticmethod
    def _parse_asn(as_str: str) -> int:
        m = _AS_RE.match(as_str)
        if not m:
            raise ParseError(f"not an AS number: {as_str!r}")
        hi, mid, lo = (int(g, 16) for g in m.groups())
        return (hi << (2 * _AS_GROUP_BITS)) | (mid << _AS_GROUP_BITS) | lo

    @classmethod
    def parse_address(cls, text: str) -> "tuple[ISDAS, str]":
        """Parse a full host address ``"16-ffaa:0:1002,[172.31.43.7]"``."""
        m = _ADDR_RE.match(str(text).strip())
        if not m:
            raise ParseError(f"not a SCION host address: {text!r}")
        return cls.parse(m.group(1)), m.group(2)

    # -- formatting ----------------------------------------------------------

    @property
    def as_str(self) -> str:
        """The AS number in ``ffaa:0:1303`` notation."""
        hi = (self.asn >> (2 * _AS_GROUP_BITS)) & 0xFFFF
        mid = (self.asn >> _AS_GROUP_BITS) & 0xFFFF
        lo = self.asn & 0xFFFF
        return f"{hi:x}:{mid:x}:{lo:x}"

    def __str__(self) -> str:
        # Memoized on the (frozen) instance: rendered constantly by link
        # keys, RNG stream names and document fields on the measurement
        # hot path, and the value can never go stale.
        cached = self.__dict__.get("_str_memo")
        if cached is None:
            cached = f"{self.isd}-{self.as_str}"
            object.__setattr__(self, "_str_memo", cached)
        return cached

    def address(self, ip: str) -> str:
        """Full host address string, as printed by ``scion address``."""
        return f"{self},[{ip}]"

    # -- ordering ------------------------------------------------------------

    def __hash__(self) -> int:
        # Same value the generated frozen-dataclass hash produces
        # (``hash((isd, asn))``), memoized: jitter/pps config lookups
        # hash ISDAS keys on every traversal step, and building the
        # field tuple per call shows up in campaign profiles.
        cached = self.__dict__.get("_hash_memo")
        if cached is None:
            cached = hash((self.isd, self.asn))
            object.__setattr__(self, "_hash_memo", cached)
        return cached

    def __lt__(self, other: "ISDAS") -> bool:
        if not isinstance(other, ISDAS):
            return NotImplemented
        return (self.isd, self.asn) < (other.isd, other.asn)

    def __repr__(self) -> str:
        return f"ISDAS({str(self)!r})"


@lru_cache(maxsize=4096)
def _parse_text(text: str) -> ISDAS:
    """The memoized string parser behind :meth:`ISDAS.parse`.

    Lookups such as ``Topology.as_of`` re-parse the same few dozen
    identifiers on every selection, verification and collection; the
    bound keeps adversarial input from growing the memo without limit.
    ``lru_cache`` does not cache a call that raised, so invalid text
    always raises :class:`ParseError`.
    """
    m = _ISD_AS_RE.match(text.strip())
    if not m:
        raise ParseError(f"not an ISD-AS identifier: {text!r}")
    isd_str, as_str = m.groups()
    return ISDAS(isd=int(isd_str), asn=ISDAS._parse_asn(as_str))


def isd_as(text: "str | ISDAS") -> ISDAS:
    """Shorthand parser used throughout the library."""
    return ISDAS.parse(text)

"""Wire-format arithmetic: header sizes, overlay encapsulation, fragmentation.

SCIONLab transports SCION packets inside a UDP/IP overlay.  Two
consequences matter for the evaluation:

* **Header overhead grows with path length.**  A SCION header carries one
  8-byte info field per segment and one 12-byte hop field per hop, on top
  of the common and address headers.  Small payloads therefore pay a very
  large relative overhead (the paper's 64-byte tests).
* **MTU-sized payloads fragment in the underlay.**  A 1472-byte SCION
  payload plus SCION and overlay headers exceeds the 1500-byte underlay
  MTU, so the overlay IP layer splits it into fragments.  Losing any
  fragment loses the whole packet — the compounding that flips the
  64 B/MTU ordering between 12 Mbps and 150 Mbps targets (Fig 7 vs 8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ValidationError

#: UDP/IP overlay encapsulation (IPv4 20 + UDP 8).
OVERLAY_HEADER_BYTES = 28

#: SCION common header + host address header (IPv4 endpoints).
SCION_FIXED_HEADER_BYTES = 36

#: Per path-segment info field.
INFO_FIELD_BYTES = 8

#: Per-hop hop field.
HOP_FIELD_BYTES = 12

#: Underlay (Ethernet/IP) MTU assumed on overlay links.
DEFAULT_UNDERLAY_MTU = 1500

#: Per-fragment IP header repeated on each fragment after the first.
FRAGMENT_HEADER_BYTES = 20

#: SCMP echo header (type/code/checksum/id/seq), mirroring SCMP's 8 bytes.
SCMP_HEADER_BYTES = 8


def scion_header_bytes(n_hops: int, n_segments: int = 2) -> int:
    """Size of the SCION header for a path with ``n_hops`` hop fields.

    ``n_hops`` counts AS-level hops (one hop field per AS traversed);
    ``n_segments`` counts the path segments stitched together (up to 3:
    up, core, down).
    """
    if n_hops < 0 or n_segments < 0:
        raise ValidationError("hop/segment counts must be non-negative")
    return (
        SCION_FIXED_HEADER_BYTES
        + n_segments * INFO_FIELD_BYTES
        + n_hops * HOP_FIELD_BYTES
    )


def wire_size_bytes(payload: int, n_hops: int, n_segments: int = 2) -> int:
    """Total underlay bytes for one SCION packet (before fragmentation)."""
    if payload < 0:
        raise ValidationError(f"negative payload: {payload}")
    return payload + scion_header_bytes(n_hops, n_segments) + OVERLAY_HEADER_BYTES


def fragment_count(wire_bytes: int, underlay_mtu: int = DEFAULT_UNDERLAY_MTU) -> int:
    """Number of underlay fragments a packet of ``wire_bytes`` needs."""
    if underlay_mtu <= FRAGMENT_HEADER_BYTES:
        raise ValidationError(f"absurd underlay MTU: {underlay_mtu}")
    if wire_bytes <= underlay_mtu:
        return 1
    # First fragment carries a full MTU; subsequent ones repeat the IP
    # header, so their payload capacity shrinks.
    remaining = wire_bytes - underlay_mtu
    per_fragment = underlay_mtu - FRAGMENT_HEADER_BYTES
    return 1 + math.ceil(remaining / per_fragment)


@dataclass(frozen=True)
class PacketSpec:
    """A packet class used in a measurement: payload size + path shape."""

    payload_bytes: int
    n_hops: int
    n_segments: int = 2
    underlay_mtu: int = DEFAULT_UNDERLAY_MTU

    # The three wire-arithmetic properties are memoized on the (frozen)
    # instance: the data plane re-reads them for every traversal step,
    # and the integers can never go stale.

    @property
    def wire_bytes(self) -> int:
        cached = self.__dict__.get("_wire_memo")
        if cached is None:
            cached = wire_size_bytes(
                self.payload_bytes, self.n_hops, self.n_segments
            )
            object.__setattr__(self, "_wire_memo", cached)
        return cached

    @property
    def fragments(self) -> int:
        cached = self.__dict__.get("_fragments_memo")
        if cached is None:
            cached = fragment_count(self.wire_bytes, self.underlay_mtu)
            object.__setattr__(self, "_fragments_memo", cached)
        return cached

    @property
    def total_wire_bytes(self) -> int:
        """Wire bytes including repeated fragment headers."""
        cached = self.__dict__.get("_total_wire_memo")
        if cached is None:
            cached = self.wire_bytes + (self.fragments - 1) * FRAGMENT_HEADER_BYTES
            object.__setattr__(self, "_total_wire_memo", cached)
        return cached

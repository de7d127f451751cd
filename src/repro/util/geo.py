"""Geography helpers: great-circle distance and fibre propagation delay.

The paper's central latency finding (§6.1) is that *physical distance
between hops* dominates path latency — more than hop count or ISDs
traversed.  Our network substrate therefore derives per-link propagation
delay directly from the great-circle distance between the hosting cities,
divided by the effective speed of light in fibre (≈ 2/3 c) and multiplied
by a routing-circuity factor accounting for non-geodesic fibre runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ValidationError

EARTH_RADIUS_KM = 6371.0

#: Speed of light in vacuum, km per millisecond.
_C_KM_PER_MS = 299_792.458 / 1e3

#: Refractive slowdown in fibre — signals travel at roughly 2/3 c.
FIBRE_VELOCITY_FACTOR = 2.0 / 3.0

#: Real fibre paths are not great circles; empirical circuity factors for
#: long-haul routes cluster around 1.2-1.6.  We use a mid value.
DEFAULT_CIRCUITY = 1.4


@dataclass(frozen=True)
class GeoPoint:
    """A latitude/longitude pair in degrees."""

    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not (-90.0 <= self.lat <= 90.0):
            raise ValidationError(f"latitude out of range: {self.lat}")
        if not (-180.0 <= self.lon <= 180.0):
            raise ValidationError(f"longitude out of range: {self.lon}")


def haversine_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points, in kilometres."""
    phi1, phi2 = math.radians(a.lat), math.radians(b.lat)
    dphi = math.radians(b.lat - a.lat)
    dlam = math.radians(b.lon - a.lon)
    h = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(
        dlam / 2.0
    ) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(h))


def propagation_delay_ms(
    a: GeoPoint,
    b: GeoPoint,
    *,
    circuity: float = DEFAULT_CIRCUITY,
    min_delay_ms: float = 0.05,
) -> float:
    """One-way fibre propagation delay between two locations.

    ``min_delay_ms`` models the floor imposed by equipment even for
    co-located hosts (switch/router serialization and processing).
    """
    if circuity < 1.0:
        raise ValidationError(f"circuity must be >= 1, got {circuity}")
    dist = haversine_km(a, b) * circuity
    delay = dist / (_C_KM_PER_MS * FIBRE_VELOCITY_FACTOR)
    return max(delay, min_delay_ms)

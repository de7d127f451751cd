"""Tests for great-circle geometry and propagation delay (repro.util.geo)."""

import pytest

from repro.errors import ValidationError
from repro.util.geo import (
    DEFAULT_CIRCUITY,
    GeoPoint,
    haversine_km,
    propagation_delay_ms,
)

ZURICH = GeoPoint(47.38, 8.54)
DUBLIN = GeoPoint(53.35, -6.26)
SINGAPORE = GeoPoint(1.35, 103.82)
AMSTERDAM = GeoPoint(52.37, 4.90)


class TestGeoPoint:
    def test_valid_point(self):
        p = GeoPoint(0.0, 0.0)
        assert p.lat == 0.0 and p.lon == 0.0

    @pytest.mark.parametrize("lat,lon", [(91, 0), (-91, 0), (0, 181), (0, -181)])
    def test_rejects_out_of_range(self, lat, lon):
        with pytest.raises(ValidationError):
            GeoPoint(lat, lon)


class TestHaversine:
    def test_zero_distance(self):
        assert haversine_km(ZURICH, ZURICH) == pytest.approx(0.0)

    def test_symmetry(self):
        assert haversine_km(ZURICH, DUBLIN) == pytest.approx(
            haversine_km(DUBLIN, ZURICH)
        )

    def test_known_distance_zurich_dublin(self):
        # Great-circle Zurich-Dublin is roughly 1250 km.
        assert haversine_km(ZURICH, DUBLIN) == pytest.approx(1250, rel=0.05)

    def test_known_distance_zurich_singapore(self):
        # Roughly 10,300 km.
        assert haversine_km(ZURICH, SINGAPORE) == pytest.approx(10_300, rel=0.05)

    def test_triangle_inequality(self):
        d_direct = haversine_km(AMSTERDAM, SINGAPORE)
        d_via = haversine_km(AMSTERDAM, ZURICH) + haversine_km(ZURICH, SINGAPORE)
        assert d_direct <= d_via + 1e-6


class TestPropagationDelay:
    def test_floor_for_colocated_hosts(self):
        assert propagation_delay_ms(ZURICH, ZURICH) == pytest.approx(0.05)

    def test_scales_with_distance(self):
        near = propagation_delay_ms(ZURICH, DUBLIN)
        far = propagation_delay_ms(ZURICH, SINGAPORE)
        assert far > 5 * near

    def test_circuity_increases_delay(self):
        straight = propagation_delay_ms(ZURICH, DUBLIN, circuity=1.0)
        real = propagation_delay_ms(ZURICH, DUBLIN, circuity=DEFAULT_CIRCUITY)
        assert real == pytest.approx(straight * DEFAULT_CIRCUITY, rel=1e-6)

    def test_rejects_sub_unit_circuity(self):
        with pytest.raises(ValidationError):
            propagation_delay_ms(ZURICH, DUBLIN, circuity=0.5)

    def test_fibre_speed_sanity(self):
        # 1250 km at 2/3 c with 1.4 circuity: ~8.7 ms one way.
        delay = propagation_delay_ms(ZURICH, DUBLIN)
        assert 6.0 < delay < 12.0

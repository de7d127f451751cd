"""Property-based tests for bwtester parameter resolution."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.bwtester import parse_bwtest_params
from repro.errors import BandwidthTestError, ParseError

durations = st.floats(min_value=0.5, max_value=10.0, allow_nan=False)
sizes = st.integers(min_value=4, max_value=9000)
packet_counts = st.integers(min_value=1, max_value=10**6)


class TestBwtestParamProperties:
    @given(durations, sizes, packet_counts)
    def test_derived_bandwidth_consistent(self, duration, size, packets):
        text = f"{duration},{size},{packets},?"
        params = parse_bwtest_params(text)
        expected = packets * size * 8.0 / duration
        assert params.target.bps == pytest.approx(expected, rel=1e-9)

    @given(durations, sizes, st.floats(min_value=0.1, max_value=500.0,
                                       allow_nan=False))
    def test_derived_packets_consistent(self, duration, size, mbps):
        params = parse_bwtest_params(f"{duration},{size},?,{mbps}Mbps")
        implied = params.num_packets * size * 8.0 / duration
        # Rounding to whole packets keeps the rate within one packet.
        assert implied == pytest.approx(mbps * 1e6, abs=size * 8.0 / duration + 1)

    @given(sizes, packet_counts, st.floats(min_value=1.0, max_value=100.0,
                                           allow_nan=False))
    def test_derived_duration_consistent(self, size, packets, mbps):
        target_bps = mbps * 1e6
        duration = packets * size * 8.0 / target_bps
        if not (0 < duration <= 10.0):
            return
        params = parse_bwtest_params(f"?,{size},{packets},{mbps}Mbps")
        assert params.duration_s == pytest.approx(duration, rel=1e-9)

    @given(st.floats(min_value=10.01, max_value=100.0, allow_nan=False))
    def test_duration_cap_always_enforced(self, duration):
        with pytest.raises(BandwidthTestError):
            parse_bwtest_params(f"{duration},64,?,12Mbps")

    @given(st.integers(min_value=-10, max_value=3))
    def test_packet_floor_always_enforced(self, size):
        with pytest.raises((BandwidthTestError, ParseError, ValueError)):
            parse_bwtest_params(f"3,{size},?,12Mbps")

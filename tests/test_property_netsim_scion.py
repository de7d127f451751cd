"""Property-based tests for the network substrate and control plane."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import whisker_stats
from repro.netsim.config import NetworkConfig, UtilizationParams
from repro.netsim.packet import (
    FRAGMENT_HEADER_BYTES,
    PacketSpec,
    fragment_count,
    wire_size_bytes,
)
from repro.netsim.procs import UtilizationProcess
from repro.util.rng import RngStreams

payloads = st.integers(min_value=0, max_value=9000)
hops = st.integers(min_value=1, max_value=16)
mtus = st.integers(min_value=576, max_value=9000)


class TestPacketProperties:
    @given(payloads, hops)
    def test_wire_size_monotone_in_payload_and_hops(self, payload, n_hops):
        assert wire_size_bytes(payload + 1, n_hops) > wire_size_bytes(payload, n_hops)
        assert wire_size_bytes(payload, n_hops + 1) > wire_size_bytes(payload, n_hops)

    @given(st.integers(min_value=1, max_value=100_000), mtus)
    def test_fragments_cover_packet(self, wire, mtu):
        """k fragments must be enough, and k-1 must not be."""
        k = fragment_count(wire, mtu)
        capacity_k = mtu + (k - 1) * (mtu - FRAGMENT_HEADER_BYTES)
        assert capacity_k >= wire
        if k > 1:
            capacity_km1 = mtu + (k - 2) * (mtu - FRAGMENT_HEADER_BYTES)
            assert capacity_km1 < wire

    @given(payloads, hops)
    def test_goodput_fraction_bounds(self, payload, n_hops):
        spec = PacketSpec(payload_bytes=payload, n_hops=n_hops)
        assert 0.0 <= spec.payload_bytes / spec.total_wire_bytes < 1.0

    @given(hops)
    def test_paper_packet_classes(self, n_hops):
        """64 B never fragments; 1472 B always does (1500 underlay MTU)."""
        assert PacketSpec(payload_bytes=64, n_hops=n_hops).fragments == 1
        assert PacketSpec(payload_bytes=1472, n_hops=n_hops).fragments >= 2


class TestUtilizationProperties:
    @given(
        st.floats(min_value=0.05, max_value=0.9, allow_nan=False),
        st.floats(min_value=0.0, max_value=0.95, allow_nan=False),
        st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=50)
    def test_always_within_bounds(self, mean, rho, sigma, t):
        params = UtilizationParams(mean=mean, rho=rho, sigma=sigma)
        proc = UtilizationProcess(params, RngStreams(3).get("u"))
        value = proc.value_at(float(t))
        assert params.floor <= value <= params.ceil

    @given(st.integers(min_value=0, max_value=500))
    def test_point_in_mean_window(self, t):
        proc = UtilizationProcess(UtilizationParams(), RngStreams(4).get("u"))
        window_mean = proc.mean_over(float(t), float(t) + 10.0)
        values = [proc.value_at(float(t) + k) for k in range(11)]
        assert min(values) <= window_mean <= max(values)


class TestWhiskerProperties:
    @given(st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=1, max_size=200,
    ))
    def test_order_invariants(self, samples):
        w = whisker_stats(samples)
        assert w.minimum <= w.whisker_low <= w.q1 <= w.median <= w.q3
        assert w.q3 <= w.whisker_high <= w.maximum
        eps = 1e-9 * max(1.0, abs(w.minimum), abs(w.maximum))
        assert w.minimum - eps <= w.mean <= w.maximum + eps
        assert w.n == len(samples)

    @given(st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=1, max_size=100,
    ))
    def test_outliers_outside_whiskers(self, samples):
        w = whisker_stats(samples)
        for outlier in w.outliers:
            assert outlier < w.whisker_low or outlier > w.whisker_high

    @given(st.lists(
        st.floats(min_value=0, max_value=1e3, allow_nan=False),
        min_size=1, max_size=50,
    ), st.floats(min_value=1.0, max_value=100.0, allow_nan=False))
    def test_translation_equivariance(self, samples, shift):
        base = whisker_stats(samples)
        moved = whisker_stats([s + shift for s in samples])
        assert moved.median == pytest_approx(base.median + shift)
        assert moved.spread == pytest_approx(base.spread)


def pytest_approx(value, rel=1e-9, abs_tol=1e-6):
    import pytest

    return pytest.approx(value, rel=rel, abs=abs_tol)


class TestScionProperties:
    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_combined_paths_always_loop_free_and_ranked(self, seed):
        """Across arbitrary destinations of the world: no loops, ranked."""
        from repro.scion.snet import ScionHost
        from repro.topology.scionlab import AVAILABLE_SERVERS

        host = _shared_host()
        ia, _ip = AVAILABLE_SERVERS[seed % len(AVAILABLE_SERVERS)]
        paths = host.paths(ia, max_paths=None)
        counts = [p.hop_count for p in paths]
        assert counts == sorted(counts)
        for p in paths:
            assert len(p.ases()) == len(set(p.ases()))
            assert str(p.ases()[0]) == "17-ffaa:1:e01"
            assert str(p.dst) == ia

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_sequence_roundtrip_for_any_path(self, seed):
        from repro.apps.sequence import Sequence
        from repro.topology.scionlab import AVAILABLE_SERVERS

        host = _shared_host()
        ia, _ip = AVAILABLE_SERVERS[seed % len(AVAILABLE_SERVERS)]
        paths = host.paths(ia, max_paths=None)
        path = paths[seed % len(paths)]
        assert Sequence.parse(path.sequence()).matches(path)


_HOST_CACHE = {}


def _shared_host():
    if "host" not in _HOST_CACHE:
        from repro.scion.snet import ScionHost

        _HOST_CACHE["host"] = ScionHost.scionlab(seed=8)
    return _HOST_CACHE["host"]

"""Tests for clock, events, processes and packet math (repro.netsim)."""

import pytest

from repro.errors import ValidationError
from repro.netsim.clock import SimClock
from repro.netsim.config import UtilizationParams
from repro.netsim.events import EventQueue
from repro.netsim.packet import (
    DEFAULT_UNDERLAY_MTU,
    OVERLAY_HEADER_BYTES,
    PacketSpec,
    fragment_count,
    scion_header_bytes,
    wire_size_bytes,
)
from repro.netsim.procs import UtilizationProcess
from repro.util.rng import RngStreams


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now_s == 0.0

    def test_advance(self):
        clock = SimClock()
        assert clock.advance(1.5) == 1.5
        assert clock.now_s == 1.5

    def test_advance_rejects_negative(self):
        with pytest.raises(ValidationError):
            SimClock().advance(-1)

    def test_advance_to_never_goes_back(self):
        clock = SimClock(10.0)
        clock.advance_to(5.0)
        assert clock.now_s == 10.0
        clock.advance_to(12.0)
        assert clock.now_s == 12.0

    def test_now_ms(self):
        assert SimClock(1.5).now_ms == 1500


class TestEventQueue:
    def test_events_fire_in_time_order(self):
        clock = SimClock()
        q = EventQueue(clock)
        fired = []
        q.schedule(2.0, lambda: fired.append("b"))
        q.schedule(1.0, lambda: fired.append("a"))
        q.run_all()
        assert fired == ["a", "b"]
        assert clock.now_s == 2.0

    def test_ties_break_by_insertion_order(self):
        q = EventQueue(SimClock())
        fired = []
        for tag in "xyz":
            q.schedule(1.0, lambda t=tag: fired.append(t))
        q.run_all()
        assert fired == ["x", "y", "z"]

    def test_schedule_in_past_rejected(self):
        clock = SimClock(5.0)
        q = EventQueue(clock)
        with pytest.raises(ValidationError):
            q.schedule(4.0, lambda: None)

    def test_events_can_schedule_events(self):
        clock = SimClock()
        q = EventQueue(clock)
        fired = []

        def first():
            fired.append("first")
            q.schedule(clock.now_s + 1.0, lambda: fired.append("second"))

        q.schedule(1.0, first)
        q.run_all()
        assert fired == ["first", "second"]
        assert clock.now_s == 2.0

    def test_runaway_backstop(self):
        clock = SimClock()
        q = EventQueue(clock)

        def reschedule():
            q.schedule(clock.now_s + 0.001, reschedule)

        q.schedule(0.0, reschedule)
        with pytest.raises(ValidationError):
            q.run_all(max_events=100)


class TestUtilizationProcess:
    def _proc(self, **kw):
        params = UtilizationParams(**kw)
        return UtilizationProcess(params, RngStreams(1).get("u"))

    def test_values_within_bounds(self):
        proc = self._proc(mean=0.5, sigma=0.5, floor=0.1, ceil=0.9)
        values = [proc.value_at(t) for t in range(200)]
        assert all(0.1 <= v <= 0.9 for v in values)

    def test_query_order_independent(self):
        a = self._proc()
        forward = [a.value_at(t) for t in (0, 5, 10)]
        b = self._proc()
        backward = [b.value_at(t) for t in (10, 5, 0)]
        assert forward == backward[::-1]

    def test_same_step_same_value(self):
        proc = self._proc(step_s=1.0)
        assert proc.value_at(3.1) == proc.value_at(3.9)

    def test_mean_over_window(self):
        proc = self._proc()
        m = proc.mean_over(0.0, 10.0)
        values = [proc.value_at(t) for t in range(11)]
        assert m == pytest.approx(sum(values) / len(values))

    def test_negative_time_rejected(self):
        with pytest.raises(ValidationError):
            self._proc().value_at(-1.0)

    def test_bad_window_rejected(self):
        with pytest.raises(ValidationError):
            self._proc().mean_over(5.0, 1.0)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValidationError):
            self._proc(rho=1.0)
        with pytest.raises(ValidationError):
            self._proc(floor=0.5, ceil=0.2)
        with pytest.raises(ValidationError):
            self._proc(step_s=0.0)


class TestPacketMath:
    def test_header_grows_with_hops(self):
        assert scion_header_bytes(7) > scion_header_bytes(5)
        assert scion_header_bytes(7) - scion_header_bytes(5) == 24  # 2 hop fields

    def test_header_grows_with_segments(self):
        assert scion_header_bytes(5, 3) - scion_header_bytes(5, 2) == 8

    def test_wire_size_composition(self):
        assert wire_size_bytes(64, 6) == 64 + scion_header_bytes(6) + OVERLAY_HEADER_BYTES

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValidationError):
            wire_size_bytes(-1, 5)
        with pytest.raises(ValidationError):
            scion_header_bytes(-1)

    def test_small_packet_single_fragment(self):
        assert fragment_count(200) == 1

    def test_boundary_exact_mtu(self):
        assert fragment_count(DEFAULT_UNDERLAY_MTU) == 1
        assert fragment_count(DEFAULT_UNDERLAY_MTU + 1) == 2

    def test_mtu_payload_fragments(self):
        """The Fig 7/8 mechanism: MTU payload + headers exceeds underlay MTU."""
        spec = PacketSpec(payload_bytes=1472, n_hops=6)
        assert spec.fragments == 2

    def test_64b_payload_does_not_fragment(self):
        spec = PacketSpec(payload_bytes=64, n_hops=8)
        assert spec.fragments == 1

    def test_goodput_fraction_small_packets_poor(self):
        small = PacketSpec(payload_bytes=64, n_hops=6)
        big = PacketSpec(payload_bytes=1472, n_hops=6)
        assert small.payload_bytes / small.total_wire_bytes < 0.45
        assert big.payload_bytes / big.total_wire_bytes > 0.85

    def test_total_wire_bytes_counts_fragment_headers(self):
        spec = PacketSpec(payload_bytes=1472, n_hops=6)
        assert spec.total_wire_bytes == spec.wire_bytes + 20

    def test_absurd_mtu_rejected(self):
        with pytest.raises(ValidationError):
            fragment_count(1000, underlay_mtu=10)

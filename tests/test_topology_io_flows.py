"""Tests for concurrent-flow accounting."""

import pytest

from repro.netsim.config import NetworkConfig
from repro.netsim.network import NetworkSim
from repro.netsim.packet import PacketSpec

from tests.helpers import build_tiny_world


class TestFlowLedger:
    def _setup(self):
        topo = build_tiny_world()
        net = NetworkSim(topo, NetworkConfig(seed=12))
        hops = ["1-ffaa:1:1", "1-ffaa:0:3", "1-ffaa:0:1", "2-ffaa:0:1", "2-ffaa:0:2"]
        from repro.netsim.network import LinkTraversal
        from repro.topology.isd_as import ISDAS

        steps = []
        for a, b in zip(hops, hops[1:]):
            link = topo.link_between(a, b)[0]
            steps.append(LinkTraversal(link=link, sender=ISDAS.parse(a)))
        return net, steps

    def test_unregistered_flows_do_not_contend(self):
        net, steps = self._setup()
        packet = PacketSpec(payload_bytes=1472, n_hops=5)
        first = net.fluid_transfer(steps, 10e6, packet, 3.0, 0.0)
        second = net.fluid_transfer(steps, 10e6, packet, 3.0, 0.0)
        # Identical up to the one-sided measurement noise draw.
        assert second.loss_fraction == pytest.approx(first.loss_fraction)
        assert second.achieved_bps == pytest.approx(first.achieved_bps, rel=0.1)

    def test_registered_overlapping_flows_contend(self):
        """Two simultaneous 10 Mbps flows on a 16 Mbps uplink share it."""
        net, steps = self._setup()
        packet = PacketSpec(payload_bytes=1472, n_hops=5)
        first = net.fluid_transfer(
            steps, 10e6, packet, 3.0, 0.0, register_flow=True
        )
        second = net.fluid_transfer(
            steps, 10e6, packet, 3.0, 0.0, register_flow=True
        )
        assert first.achieved_bps > 8e6
        assert second.achieved_bps < 0.75 * first.achieved_bps

    def test_disjoint_windows_do_not_contend(self):
        net, steps = self._setup()
        packet = PacketSpec(payload_bytes=1472, n_hops=5)
        first = net.fluid_transfer(
            steps, 10e6, packet, 3.0, 0.0, register_flow=True
        )
        later = net.fluid_transfer(
            steps, 10e6, packet, 3.0, 100.0, register_flow=True
        )
        assert later.achieved_bps == pytest.approx(first.achieved_bps, rel=0.15)

    def test_opposite_direction_does_not_contend(self):
        net, steps = self._setup()
        packet = PacketSpec(payload_bytes=1472, n_hops=5)
        reverse = [s.reversed() for s in reversed(steps)]
        net.fluid_transfer(steps, 10e6, packet, 3.0, 0.0, register_flow=True)
        down = net.fluid_transfer(
            reverse, 10e6, packet, 3.0, 0.0, register_flow=True
        )
        assert down.achieved_bps > 8e6

    def test_ledger_clear(self):
        net, steps = self._setup()
        packet = PacketSpec(payload_bytes=1472, n_hops=5)
        net.fluid_transfer(steps, 10e6, packet, 3.0, 0.0, register_flow=True)
        assert len(net.flows) == len(steps)
        net.flows.clear()
        fresh = net.fluid_transfer(steps, 10e6, packet, 3.0, 0.0)
        assert fresh.achieved_bps > 8e6

    def test_partial_overlap_partial_contention(self):
        net, steps = self._setup()
        packet = PacketSpec(payload_bytes=1472, n_hops=5)
        alone = net.fluid_transfer(steps, 10e6, packet, 3.0, 50.0)
        net.fluid_transfer(steps, 10e6, packet, 3.0, 0.0, register_flow=True)
        half = net.fluid_transfer(steps, 10e6, packet, 3.0, 1.5)  # 50% overlap
        full = net.fluid_transfer(steps, 10e6, packet, 3.0, 0.0)
        assert full.achieved_bps < half.achieved_bps <= alone.achieved_bps + 1e5

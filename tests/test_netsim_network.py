"""Tests for link dynamics, congestion and the network facade."""

import numpy as np
import pytest

from repro.errors import TopologyError, ValidationError
from repro.netsim.config import NetworkConfig, PpsLimits
from repro.netsim.congestion import CongestionEpisode, EpisodeSchedule
from repro.netsim.link import LinkDirection
from repro.netsim.network import (
    LinkTraversal,
    NetworkSim,
    ServerDirectory,
    ServerHealth,
)
from repro.netsim.packet import PacketSpec
from repro.topology.isd_as import ISDAS

from tests.helpers import build_tiny_world


@pytest.fixture()
def net():
    return NetworkSim(build_tiny_world(), NetworkConfig(seed=7))


def _path_user_to_leaf(topology):
    """user -> ap -> core1a -> core2 -> leaf as LinkTraversals."""
    hops = ["1-ffaa:1:1", "1-ffaa:0:3", "1-ffaa:0:1", "2-ffaa:0:1", "2-ffaa:0:2"]
    steps = []
    for a, b in zip(hops, hops[1:]):
        link = topology.link_between(a, b)[0]
        steps.append(LinkTraversal(link=link, sender=ISDAS.parse(a)))
    return steps


class TestCongestionEpisode:
    def test_requires_target(self):
        with pytest.raises(ValidationError):
            CongestionEpisode(start_s=0, end_s=1)

    def test_requires_positive_duration(self):
        with pytest.raises(ValidationError):
            CongestionEpisode.on_ases(["1-0:0:1"], 5, 5)

    def test_active_window_half_open(self):
        ep = CongestionEpisode.on_ases(["1-0:0:1"], 1.0, 2.0)
        assert not ep.active_at(0.99)
        assert ep.active_at(1.0)
        assert ep.active_at(1.99)
        assert not ep.active_at(2.0)

    def test_affects_by_as(self):
        topo = build_tiny_world()
        link = topo.link_between("1-ffaa:0:1", "2-ffaa:0:1")[0]
        ep = CongestionEpisode.on_ases(["2-ffaa:0:1"], 0, 1)
        assert ep.affects(link)
        other = topo.link_between("1-ffaa:0:3", "1-ffaa:1:1")[0]
        assert not ep.affects(other)

    def test_affects_by_link(self):
        topo = build_tiny_world()
        link = topo.link_between("1-ffaa:0:1", "2-ffaa:0:1")[0]
        ep = CongestionEpisode.on_links([link], 0, 1)
        assert ep.affects(link)

    def test_schedule_composition(self):
        topo = build_tiny_world()
        link = topo.link_between("1-ffaa:0:1", "2-ffaa:0:1")[0]
        sched = EpisodeSchedule(
            [
                CongestionEpisode.on_links([link], 0, 10, loss=0.5, capacity_factor=0.5),
                CongestionEpisode.on_links([link], 0, 10, loss=0.5, capacity_factor=0.5),
            ]
        )
        loss, cap = sched.disturbance(link, 5.0)
        assert loss == pytest.approx(0.75)  # 1 - 0.5*0.5
        assert cap == pytest.approx(0.25)

    def test_window_disturbance_time_weighted(self):
        topo = build_tiny_world()
        link = topo.link_between("1-ffaa:0:1", "2-ffaa:0:1")[0]
        sched = EpisodeSchedule(
            [CongestionEpisode.on_links([link], 5.0, 10.0, loss=1.0)]
        )
        loss, _cap = sched.window_disturbance(link, 0.0, 10.0)
        assert loss == pytest.approx(0.5)

    def test_inactive_schedule_is_clean(self):
        topo = build_tiny_world()
        link = topo.link_between("1-ffaa:0:1", "2-ffaa:0:1")[0]
        loss, cap = EpisodeSchedule().disturbance(link, 0.0)
        assert loss == 0.0 and cap == 1.0


class TestLinkState:
    def test_propagation_from_geography(self, net):
        topo = net.topology
        short = net.link_state(topo.link_between("1-ffaa:0:1", "1-ffaa:0:3")[0])
        long = net.link_state(topo.link_between("2-ffaa:0:1", "2-ffaa:0:2")[0])
        assert long.propagation_ms > short.propagation_ms

    def test_direction_from(self, net):
        link = net.topology.link_between("1-ffaa:0:1", "2-ffaa:0:1")[0]
        state = net.link_state(link)
        assert state.direction_from(link.a) is LinkDirection.A_TO_B
        assert state.direction_from(link.b) is LinkDirection.B_TO_A

    def test_transit_packet_delay_positive(self, net):
        link = net.topology.link_between("1-ffaa:0:1", "2-ffaa:0:1")[0]
        state = net.link_state(link)
        delay_ms, _ = state.transit_batch(
            LinkDirection.A_TO_B, 1000, 1, np.zeros(50)
        )
        assert delay_ms.shape == (50,)
        assert bool((delay_ms > state.propagation_ms).all())

    def test_blackout_episode_drops_everything(self, net):
        link = net.topology.link_between("1-ffaa:0:1", "2-ffaa:0:1")[0]
        net.add_episode(CongestionEpisode.on_links([link], 0.0, 100.0, loss=1.0))
        state = net.link_state(link)
        _, dropped = state.transit_batch(
            LinkDirection.A_TO_B, 100, 1, np.full(20, 1.0)
        )
        assert bool(dropped.all())

    def test_fluid_share_clips_offered_load(self, net):
        link = net.topology.link_between("1-ffaa:0:3", "1-ffaa:1:1")[0]
        state = net.link_state(link)
        # Upstream (user -> ap) capacity is 16 Mbps; offer 160 Mbps.
        byte_ratio, _ = state.fluid_share(
            LinkDirection.B_TO_A, 160e6, 1000.0, 0.0, 3.0
        )
        assert byte_ratio < 0.15

    def test_fluid_share_pps_budget(self):
        config = NetworkConfig(
            seed=7,
            pps_overrides={ISDAS.parse("1-ffaa:1:1"): PpsLimits(send=1000, recv=1000)},
        )
        net = NetworkSim(build_tiny_world(), config)
        link = net.topology.link_between("1-ffaa:0:3", "1-ffaa:1:1")[0]
        state = net.link_state(link)
        _, pps_ratio = state.fluid_share(LinkDirection.B_TO_A, 1e6, 10_000.0, 0.0, 3.0)
        assert pps_ratio == pytest.approx(0.1)


class TestNetworkSim:
    def test_oneway_transit_accumulates_delay(self, net):
        """Every one-way leg adds its delay: a round trip to each router
        is slower than to the one before it (medians over 50 lanes)."""
        steps = _path_user_to_leaf(net.topology)
        packet = PacketSpec(payload_bytes=64, n_hops=5)
        depths = np.repeat(np.arange(1, len(steps) + 1), 50)
        series = net.probe_depths(steps, packet, depths, purpose="test", t0_s=0.0)
        rtt = series.rtt_ms.reshape(len(steps), 50)
        medians = np.nanmedian(rtt, axis=1)
        assert bool((np.diff(medians) > 0).all())
        # Amsterdam->Zurich->Frankfurt->Dublin and back.
        assert medians[-1] > 2 * 10.0

    def test_empty_path_rejected(self, net):
        packet = PacketSpec(payload_bytes=64, n_hops=1)
        with pytest.raises(ValidationError):
            net.probe_batch([], packet, 1, 0.1)
        with pytest.raises(ValidationError):
            net.probe_depths([], packet, [1], purpose="test")

    def test_roundtrip_roughly_double_oneway(self, net):
        """The mean RTT is about twice the one-way mean delay, summed
        analytically over the legs (propagation + serialization + mean
        queueing + mean |jitter|)."""
        steps = _path_user_to_leaf(net.topology)
        packet = PacketSpec(payload_bytes=64, n_hops=5)
        rtt = net.probe_batch(steps, packet, 500, 0.1, 0.0)
        one_way = 0.0
        for step in steps:
            state = net.link_state(step.link)
            direction = state.direction_from(step.sender)
            cap = (
                step.link.capacity_ab_mbps
                if direction is LinkDirection.A_TO_B
                else step.link.capacity_ba_mbps
            )
            rho = net.config.utilization_for(step.link.kind.value).mean
            one_way += (
                state.propagation_ms
                + packet.total_wire_bytes * 8.0 / (cap * 1e6) * 1e3
                + net.config.queue_scale_ms * rho / (1.0 - rho)
                + net.config.base_jitter_ms * np.sqrt(2.0 / np.pi)
            )
        assert float(np.mean(rtt.received_rtts())) == pytest.approx(
            2 * one_way, rel=0.5
        )

    def test_probe_partial_shorter_than_full(self, net):
        """A lane turning around after the first link (the traceroute
        prefix probe) is faster than one crossing the whole path."""
        steps = _path_user_to_leaf(net.topology)
        packet = PacketSpec(payload_bytes=64, n_hops=5)
        series = net.probe_depths(
            steps, packet, [1, len(steps)], purpose="test", t0_s=0.0
        )
        partial, full = series.rtt_ms
        assert partial < full

    def test_probe_partial_bounds(self, net):
        steps = _path_user_to_leaf(net.topology)
        packet = PacketSpec(payload_bytes=64, n_hops=5)
        for depths in ([0], [len(steps) + 1], [], [2, 1]):
            with pytest.raises(ValidationError):
                net.probe_depths(steps, packet, depths, purpose="test")

    def test_probe_lost_during_blackout(self, net):
        steps = _path_user_to_leaf(net.topology)
        net.add_episode(CongestionEpisode.on_ases(["2-ffaa:0:1"], 0.0, 100.0))
        packet = PacketSpec(payload_bytes=64, n_hops=5)
        assert net.probe_batch(steps, packet, 10, 0.1, 1.0).received == 0
        assert net.probe_depths(
            steps, packet, [len(steps)], purpose="test", t0_s=1.0
        ).received == 0

    def test_unknown_link_rejected(self, net):
        from repro.topology.entities import LinkKind, LinkSpec

        foreign = LinkSpec(
            a=ISDAS.parse("1-ffaa:0:1"), a_ifid=90,
            b=ISDAS.parse("2-ffaa:0:1"), b_ifid=91, kind=LinkKind.CORE,
        )
        with pytest.raises(TopologyError):
            net.link_state(foreign)

    def test_fluid_transfer_at_low_rate_near_target(self, net):
        steps = _path_user_to_leaf(net.topology)
        packet = PacketSpec(payload_bytes=1472, n_hops=5)
        result = net.fluid_transfer(steps, 1e6, packet, 3.0)
        assert result.achieved_bps == pytest.approx(1e6, rel=0.2)
        assert result.loss_fraction < 0.1

    def test_fluid_transfer_clipped_at_capacity(self, net):
        steps = _path_user_to_leaf(net.topology)
        packet = PacketSpec(payload_bytes=1472, n_hops=5)
        result = net.fluid_transfer(steps, 200e6, packet, 3.0)
        assert result.achieved_bps < 40e6

    def test_fluid_transfer_counts_packets(self, net):
        steps = _path_user_to_leaf(net.topology)
        packet = PacketSpec(payload_bytes=1000, n_hops=5)
        result = net.fluid_transfer(steps, 8e6, packet, 3.0)
        assert result.sent_packets == 3000
        assert 0 < result.received_packets <= result.sent_packets

    def test_fluid_transfer_validation(self, net):
        steps = _path_user_to_leaf(net.topology)
        packet = PacketSpec(payload_bytes=64, n_hops=5)
        with pytest.raises(ValidationError):
            net.fluid_transfer(steps, 0.0, packet, 3.0)
        with pytest.raises(ValidationError):
            net.fluid_transfer([], 1e6, packet, 3.0)

    def test_blackout_zeroes_fluid_transfer(self, net):
        steps = _path_user_to_leaf(net.topology)
        net.add_episode(
            CongestionEpisode.on_ases(["2-ffaa:0:1"], 0.0, 100.0, loss=1.0)
        )
        packet = PacketSpec(payload_bytes=1472, n_hops=5)
        result = net.fluid_transfer(steps, 1e6, packet, 3.0)
        assert result.achieved_bps < 5e4
        assert result.loss_fraction > 0.95

    def test_determinism_across_instances(self):
        topo = build_tiny_world()
        results = []
        for _ in range(2):
            net = NetworkSim(topo, NetworkConfig(seed=99))
            steps = _path_user_to_leaf(topo)
            packet = PacketSpec(payload_bytes=64, n_hops=5)
            rtt = net.probe_batch(steps, packet, 10, 0.1, 0.0).rtt_ms.tobytes()
            bw = net.fluid_transfer(steps, 5e6, packet, 3.0).achieved_bps
            results.append((rtt, bw))
        assert results[0] == results[1]


class TestServerDirectory:
    def test_default_up(self):
        d = ServerDirectory()
        assert d.health("1-0:0:1", "10.0.0.1") is ServerHealth.UP

    def test_set_and_reset(self):
        d = ServerDirectory()
        d.set_health("1-0:0:1", "10.0.0.1", ServerHealth.DOWN)
        assert d.health("1-0:0:1", "10.0.0.1") is ServerHealth.DOWN
        # Distinct IPs on the same AS tracked separately.
        assert d.health("1-0:0:1", "10.0.0.2") is ServerHealth.UP

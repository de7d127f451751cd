"""Tests for the daemon, SCMP services and the host facade."""

import math

import pytest

from repro.errors import NoPathError, ValidationError
from repro.netsim.congestion import CongestionEpisode
from repro.netsim.network import ServerHealth
from repro.scion.daemon import Sciond
from repro.scion.scmp import EchoStats
from repro.scion.snet import ScionHost
from repro.topology.isd_as import ISDAS

from tests.helpers import build_tiny_world

LEAF = "2-ffaa:0:2"
LEAF_IP = "10.2.0.2"


@pytest.fixture()
def host():
    return ScionHost(build_tiny_world(), "1-ffaa:1:1")


class TestSciond:
    def test_default_cap_is_ten(self, host):
        daemon = Sciond(host.topology, "1-ffaa:1:1")
        paths = daemon.paths(LEAF)
        assert 0 < len(paths) <= 10

    def test_max_paths_none_returns_all(self, host):
        daemon = Sciond(host.topology, "1-ffaa:1:1")
        assert len(daemon.paths(LEAF, max_paths=None)) == 4

    def test_cache_hit_counting(self, host):
        daemon = Sciond(host.topology, "1-ffaa:1:1")
        daemon.paths(LEAF)
        daemon.paths(LEAF)
        assert daemon.lookups == 2
        assert daemon.cache_hits == 1

    def test_refresh_bypasses_cache(self, host):
        daemon = Sciond(host.topology, "1-ffaa:1:1")
        daemon.paths(LEAF)
        daemon.paths(LEAF, refresh=True)
        assert daemon.cache_hits == 0

    def test_flush_clears_cache(self, host):
        daemon = Sciond(host.topology, "1-ffaa:1:1")
        daemon.paths(LEAF)
        daemon.flush()
        daemon.paths(LEAF)
        assert daemon.cache_hits == 0

    def test_resolve_roundtrip(self, host):
        daemon = Sciond(host.topology, "1-ffaa:1:1")
        want = daemon.paths(LEAF, max_paths=None)[2]
        assert daemon.resolve(LEAF, want.sequence()) is want

    def test_resolve_unknown_raises(self, host):
        daemon = Sciond(host.topology, "1-ffaa:1:1")
        with pytest.raises(NoPathError):
            daemon.resolve(LEAF, "1-0:0:1#0,0")

    def test_resolve_without_sequence_is_best_ranked(self, host):
        daemon = Sciond(host.topology, "1-ffaa:1:1")
        assert daemon.resolve(LEAF) is daemon.paths(LEAF, max_paths=1)[0]


class TestEcho:
    def test_full_series_received(self, host):
        path = host.paths(LEAF)[0]
        stats = host.scmp.echo_series(path, LEAF_IP, count=10, interval_s=0.01)
        assert stats.sent == 10
        assert stats.received >= 8  # tiny base loss may eat a probe
        assert stats.loss_pct == pytest.approx(
            100.0 * (1 - stats.received / stats.sent)
        )

    def test_clock_advances_by_interval_times_count(self, host):
        path = host.paths(LEAF)[0]
        before = host.clock.now_s
        host.scmp.echo_series(path, LEAF_IP, count=30, interval_s=0.1)
        assert host.clock.now_s - before == pytest.approx(3.0)

    def test_rtt_stats_consistent(self, host):
        path = host.paths(LEAF)[0]
        stats = host.scmp.echo_series(path, LEAF_IP, count=10, interval_s=0.01)
        assert stats.min_ms <= stats.avg_ms <= stats.max_ms
        assert stats.mdev_ms >= 0.0

    def test_down_server_all_lost(self, host):
        host.network.servers.set_health(LEAF, LEAF_IP, ServerHealth.DOWN)
        path = host.paths(LEAF)[0]
        stats = host.scmp.echo_series(path, LEAF_IP, count=5, interval_s=0.01)
        assert stats.received == 0
        assert stats.loss_pct == 100.0
        assert math.isnan(stats.avg_ms)

    def test_blackout_window_loses_probes(self, host):
        host.network.add_episode(
            CongestionEpisode.on_ases(["2-ffaa:0:1"], 0.0, 1000.0, loss=1.0)
        )
        path = host.paths(LEAF)[0]
        stats = host.scmp.echo_series(path, LEAF_IP, count=5, interval_s=0.01)
        assert stats.loss_pct == 100.0

    def test_validation(self, host):
        path = host.paths(LEAF)[0]
        with pytest.raises(ValidationError):
            host.scmp.echo_series(path, LEAF_IP, count=0)
        with pytest.raises(ValidationError):
            host.scmp.echo_series(path, LEAF_IP, count=1, interval_s=0.0)

    def test_empty_stats_helpers(self):
        stats = EchoStats(destination="x", sent=5, received=0, rtts_ms=())
        assert stats.loss_fraction == 1.0
        assert math.isnan(stats.min_ms)
        assert stats.mdev_ms == 0.0


class TestTraceroute:
    def test_one_entry_per_link(self, host):
        path = host.paths(LEAF)[0]
        hops = host.scmp.traceroute(path)
        assert len(hops) == path.n_links
        assert hops[-1].isd_as == path.dst

    def test_rtts_increase_with_depth(self, host):
        path = host.paths(LEAF)[0]
        hops = host.scmp.traceroute(path)
        firsts = [
            min(r for r in hop.rtts_ms if r is not None) for hop in hops
        ]
        assert firsts[0] < firsts[-1]

    def test_probe_count(self, host):
        path = host.paths(LEAF)[0]
        hops = host.scmp.traceroute(path, probes_per_hop=5)
        assert all(len(h.rtts_ms) == 5 for h in hops)


class TestScionHost:
    def test_address(self, host):
        assert host.address() == "1-ffaa:1:1,[127.0.0.1]"

    def test_ping_default_path(self, host):
        stats = host.ping(LEAF, LEAF_IP, count=5, interval_s=0.01)
        assert stats.sent == 5

    def test_scionlab_factory(self):
        lab = ScionHost.scionlab(seed=1)
        assert str(lab.local_ia) == "17-ffaa:1:e01"
        assert len(lab.topology) == 36

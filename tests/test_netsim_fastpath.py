"""The data-plane engine and its determinism contract.

Covers the batch engine end to end, checked against physics rather
than against a second engine:

* seeded determinism of :func:`repro.netsim.batch.probe_batch` (same
  seed ⇒ byte-identical rtt vectors, property-tested over seeds) and of
  traceroute across hosts,
* the analytic floor (every per-hop RTT ≥ the round-trip propagation +
  serialization up to that hop) and loss ≈ 1 − Π survivals at ≥ 1k
  probes,
* monitor-revocation blackholes drop 100 % of batch probes, and a
  blackholed link *k* loses exactly the traceroute hops ≥ *k*,
* stream isolation: an echo series is byte-identical whether or not a
  traceroute or showpaths probe crossed the same links before it,
* seeded goldens for the study campaign and for one traceroute,
* the flow ledger staying bounded under ``register_flow=True``,
* the sciond sequence resolver (index lookups agree with the
  ``Sequence`` scan; no recombination on repeated lookups),
* the link sampling cache (hits + epoch invalidation),
* NET_* counters flowing into campaign metric snapshots.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.sequence import Sequence
from repro.apps.showpaths import ShowpathsApp
from repro.docdb.client import DocDBClient
from repro.errors import NoPathError, ValidationError
from repro.monitor.revocation import Revocation, RevocationStore
from repro.netsim.batch import ECHO, probe_batch, roundtrip_steps
from repro.netsim.config import NetworkConfig
from repro.netsim.congestion import CongestionEpisode
from repro.netsim.link import LinkDirection
from repro.netsim.network import LinkTraversal, NetworkSim
from repro.netsim.packet import PacketSpec
from repro.scion.snet import ScionHost
from repro.scionlab.defaults import study_destination_ids
from repro.suite import metrics as m
from repro.suite.cli import seed_servers
from repro.suite.collect import PathsCollector
from repro.suite.config import STATS_COLLECTION, SuiteConfig
from repro.suite.runner import TestRunner
from repro.topology.isd_as import ISDAS
from repro.topology.scionlab import (
    MY_AS,
    STUDY_DESTINATIONS,
    build_scionlab_world,
    scionlab_network_config,
)

from tests.helpers import build_tiny_world

FAST_SETTINGS = settings(max_examples=10, deadline=None)
SLOW_SETTINGS = settings(max_examples=5, deadline=None)

#: sha256 over the sorted stats documents of the seeded study campaign
#: (seed 20231112, 1 iteration, 5 destinations, 80 docs).  Echo series
#: and fluid transfers own their RNG streams, so this must not move when
#: traceroute or showpaths probing changes.
BATCH_CAMPAIGN_SHA256 = (
    "5235d7d75502654dea24e1dd827bfafc8c206df5b5e610ff682b042c914e2100"
)

#: Seeded traceroute golden (ScionHost.scionlab(seed=7), best path to
#: 16-ffaa:0:1002): one depth-laned batch on the links' traceroute
#: streams.
TRACEROUTE_GOLDEN = [
    (1, "17-ffaa:0:1107", 3, [9.866316, 9.551542, 9.261363]),
    (2, "17-ffaa:0:1102", 2, [11.264166, 10.169694, 10.442758]),
    (3, "19-ffaa:0:1301", 4, [19.709634, 19.892783, 19.462696]),
    (4, "16-ffaa:0:1001", 7, [24.656647, 25.327079, 24.425262]),
    (5, "16-ffaa:0:1002", 1, [42.390767, 41.698408, 42.239667]),
]


def _path_user_to_leaf(topology):
    """user -> ap -> core1a -> core2 -> leaf as LinkTraversals."""
    hops = ["1-ffaa:1:1", "1-ffaa:0:3", "1-ffaa:0:1", "2-ffaa:0:1", "2-ffaa:0:2"]
    steps = []
    for a, b in zip(hops, hops[1:]):
        link = topology.link_between(a, b)[0]
        steps.append(LinkTraversal(link=link, sender=ISDAS.parse(a)))
    return steps


def _packet(n_hops=5):
    return PacketSpec(payload_bytes=16, n_hops=n_hops, n_segments=2)


def _fresh_net(seed, **config_kwargs):
    return NetworkSim(build_tiny_world(), NetworkConfig(seed=seed, **config_kwargs))


# -- shape + bookkeeping -------------------------------------------------------


class TestBatchSeriesShape:
    def test_validation(self):
        net = _fresh_net(7)
        steps = _path_user_to_leaf(net.topology)
        with pytest.raises(ValidationError):
            probe_batch(net, [], _packet(), 10, 0.1, 0.0)
        with pytest.raises(ValidationError):
            probe_batch(net, steps, _packet(), 0, 0.1, 0.0)
        with pytest.raises(ValidationError):
            probe_batch(net, steps, _packet(), 10, 0.0, 0.0)

    def test_send_times_and_alignment(self):
        net = _fresh_net(7)
        steps = _path_user_to_leaf(net.topology)
        series = net.probe_batch(steps, _packet(), 30, 0.1, 5.0)
        assert series.count == 30
        assert series.send_times_s[0] == pytest.approx(5.0)
        assert series.send_times_s[-1] == pytest.approx(5.0 + 29 * 0.1)
        assert series.rtt_ms.shape == series.send_times_s.shape
        assert series.received == 30 - int(np.count_nonzero(series.lost_mask))
        assert len(series.received_rtts()) == series.received

    def test_roundtrip_steps_mirror(self):
        net = _fresh_net(7)
        steps = _path_user_to_leaf(net.topology)
        full = roundtrip_steps(steps)
        assert len(full) == 2 * len(steps)
        assert list(full[: len(steps)]) == list(steps)
        # The return half crosses the same links with swapped senders,
        # in reverse order.
        for fwd, back in zip(steps, reversed(full[len(steps):])):
            assert back.link is fwd.link
            assert back.sender == fwd.link.other(fwd.sender)

    def test_does_not_advance_clock(self):
        net = _fresh_net(7)
        steps = _path_user_to_leaf(net.topology)
        before = net.clock.now_s
        net.probe_batch(steps, _packet(), 30, 0.1)
        assert net.clock.now_s == before

    def test_counters_increment(self):
        net = _fresh_net(7)
        steps = _path_user_to_leaf(net.topology)
        net.probe_batch(steps, _packet(), 30, 0.1)
        net.probe_batch(steps, _packet(), 10, 0.1)
        assert net.counters.batch_series == 2
        assert net.counters.batch_packets == 40

    def test_rtts_exceed_static_floor(self):
        """Every surviving RTT ≥ round-trip propagation (sanity bound)."""
        net = _fresh_net(7)
        steps = _path_user_to_leaf(net.topology)
        floor_ms = 2 * sum(
            net.link_state(s.link).propagation_ms for s in steps
        )
        series = net.probe_batch(steps, _packet(), 200, 0.1)
        assert all(r >= floor_ms for r in series.received_rtts())


# -- determinism contract ------------------------------------------------------


class TestSeededDeterminism:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @FAST_SETTINGS
    def test_probe_batch_is_seed_deterministic(self, seed):
        """Same seed ⇒ byte-identical rtt vectors, run after run."""

        def run():
            net = _fresh_net(seed)
            steps = _path_user_to_leaf(net.topology)
            return net.probe_batch(steps, _packet(), 100, 0.1, 0.0)

        first, second = run(), run()
        np.testing.assert_array_equal(first.send_times_s, second.send_times_s)
        np.testing.assert_array_equal(first.rtt_ms, second.rtt_ms)

    def test_echo_series_deterministic_across_hosts(self):
        """Two freshly built hosts with the same seed agree byte-for-byte."""

        def run():
            host = ScionHost.scionlab(seed=42)
            path = host.paths("16-ffaa:0:1002", max_paths=1)[0]
            return host.ping("16-ffaa:0:1002", "10.2.0.2", path=path, count=60)

        a, b = run(), run()
        assert a.rtts_ms == b.rtts_ms
        assert a.received == b.received

    def test_different_seeds_differ(self):
        steps_a = _path_user_to_leaf(build_tiny_world())
        net_a = _fresh_net(1)
        net_b = _fresh_net(2)
        sa = net_a.probe_batch(_path_user_to_leaf(net_a.topology), _packet(), 50, 0.1)
        sb = net_b.probe_batch(_path_user_to_leaf(net_b.topology), _packet(), 50, 0.1)
        assert not np.array_equal(sa.rtt_ms, sb.rtt_ms)
        assert len(steps_a) == 4


def _roundtrip_floor_ms(net, steps, packet):
    """Σ propagation + serialization over the steps, out and back."""
    floor = 0.0
    for step in steps:
        state = net.link_state(step.link)
        floor += 2 * state.propagation_ms
        for mbps in (step.link.capacity_ab_mbps, step.link.capacity_ba_mbps):
            floor += packet.total_wire_bytes * 8.0 / (mbps * 1e6) * 1e3
    return floor


class TestAnalyticAgreement:
    def test_per_hop_rtt_exceeds_propagation_and_serialization(self):
        """Every lane's RTT ≥ Σ(propagation + serialization) over the
        links up to its hop, out and back: queueing and |jitter| only
        ever add delay."""
        net = _fresh_net(7)
        steps = _path_user_to_leaf(net.topology)
        packet = _packet()
        per_hop = 200
        depths = np.repeat(np.arange(1, len(steps) + 1), per_hop)
        series = net.probe_depths(steps, packet, depths, purpose="test", t0_s=0.0)
        for depth in range(1, len(steps) + 1):
            rtts = series.rtt_ms[(depth - 1) * per_hop : depth * per_hop]
            rtts = rtts[~np.isnan(rtts)]
            assert rtts.size > 0.9 * per_hop
            floor = _roundtrip_floor_ms(net, steps[:depth], packet)
            assert float(rtts.min()) >= floor

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @SLOW_SETTINGS
    def test_mean_rtt_and_loss_agree_at_1k(self, seed):
        """Loss ≈ 1 − Π per-step survivals and the mean RTT sits above
        the static floor, on a lossy path at 4000 probes.

        Each of the 2L steps keeps a one-fragment packet with
        probability (1 − base loss)(1 − episode loss); the tolerance is
        five binomial standard deviations.
        """
        count = 4000
        net = _fresh_net(seed, default_base_loss=0.03)
        steps = _path_user_to_leaf(net.topology)
        packet = _packet()
        assert packet.fragments == 1
        net.add_episode(
            CongestionEpisode.on_links([steps[1].link], 0.0, 1e6, loss=0.2)
        )
        survive = 1.0
        for step in roundtrip_steps(steps):
            episode = 0.2 if step.link is steps[1].link else 0.0
            survive *= (1.0 - 0.03 - step.link.base_loss) * (1.0 - episode)
        series = net.probe_batch(steps, packet, count, 0.1, 0.0)
        loss = 1.0 - series.received / count
        sigma = float(np.sqrt(survive * (1.0 - survive) / count))
        assert abs(loss - (1.0 - survive)) < 5 * sigma
        mean = float(np.mean(series.received_rtts()))
        assert mean > _roundtrip_floor_ms(net, steps, packet)


class TestRevocationBlackhole:
    def test_blackholed_link_drops_everything_in_batch_mode(self):
        """A monitor revocation must kill every probe crossing the link."""
        net = _fresh_net(7)
        steps = _path_user_to_leaf(net.topology)
        link = steps[2].link  # core1a <-> core2, on the path
        ifid = link.interface_of(ISDAS.parse("1-ffaa:0:1"))
        store = RevocationStore(net.topology)
        store.inject(
            Revocation(
                isd_as=ISDAS.parse("1-ffaa:0:1"),
                interface=ifid,
                issued_at_s=0.0,
                expires_at_s=1e6,
                reason="link down",
            ),
            network=net,
        )
        series = net.probe_batch(steps, _packet(), 500, 0.1, 10.0)
        assert series.received == 0
        assert bool(series.lost_mask.all())

    def test_blackhole_window_is_respected(self):
        """Probes outside the revocation validity window survive."""
        net = _fresh_net(7)
        steps = _path_user_to_leaf(net.topology)
        net.add_episode(
            CongestionEpisode.on_links([steps[0].link], 10.0, 20.0, loss=1.0)
        )
        series = net.probe_batch(steps, _packet(), 300, 0.1, 0.0)
        send = series.send_times_s
        inside = (send >= 10.0) & (send < 20.0)
        assert bool(series.lost_mask[inside].all())
        # Most probes outside the window survive (residual loss only).
        outside_received = int(np.count_nonzero(~series.lost_mask[~inside]))
        assert outside_received > 0.9 * int(np.count_nonzero(~inside))


# -- goldens, determinism and stream isolation -----------------------------------


def _campaign_digest():
    client = DocDBClient()
    db = client["upin"]
    seed_servers(db)
    host = ScionHost(
        build_scionlab_world(), MY_AS, config=scionlab_network_config(seed=20231112)
    )
    config = SuiteConfig(iterations=1, destination_ids=study_destination_ids())
    PathsCollector(host, db, config).collect()
    report = TestRunner(host, db, config).run()
    docs = sorted(db[STATS_COLLECTION].find({}), key=lambda d: d["_id"])
    blob = json.dumps(docs, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest(), report


def _trace_rows(hops):
    return [
        (
            h.index,
            str(h.isd_as),
            h.interface,
            [None if r is None else round(r, 6) for r in h.rtts_ms],
        )
        for h in hops
    ]


class TestCampaignGolden:
    def test_batch_campaign_golden(self):
        """The seeded campaign is pinned: one batch series per ping."""
        digest, report = _campaign_digest()
        assert digest == BATCH_CAMPAIGN_SHA256
        assert report.stats_stored == 80
        assert m.counter_value(report.metrics, m.NET_BATCH_SERIES) == 80


class TestTracerouteGolden:
    def test_seeded_traceroute_pins_partial_probe_streams(self):
        """The prefix (partial-depth) probes of a seeded traceroute draw
        from the links' traceroute streams in one pinned order."""
        host = ScionHost.scionlab(seed=7)
        path = host.paths("16-ffaa:0:1002", max_paths=1)[0]
        assert _trace_rows(host.scmp.traceroute(path)) == TRACEROUTE_GOLDEN


class TestTraceroute:
    def test_traceroute_deterministic_across_hosts(self):
        def run(seed):
            host = ScionHost.scionlab(seed=seed)
            path = host.paths("16-ffaa:0:1002", max_paths=1)[0]
            return _trace_rows(host.scmp.traceroute(path, probes_per_hop=5))

        assert run(42) == run(42)
        assert run(42) != run(43)

    def test_one_batch_and_clock_timeline(self):
        """All probes are one batch; probe i departs at t0 + i·interval
        and the clock advances by the whole run's send time."""
        host = ScionHost.scionlab(seed=7)
        path = host.paths("16-ffaa:0:1002", max_paths=1)[0]
        net = host.network
        seen = []
        real = net.probe_depths

        def spy(*args, **kwargs):
            series = real(*args, **kwargs)
            seen.append(series)
            return series

        net.probe_depths = spy
        t0 = net.clock.now_s
        hops = host.scmp.traceroute(path, probes_per_hop=4, interval_s=0.05)
        (series,) = seen
        n = 4 * len(hops)
        np.testing.assert_allclose(
            series.send_times_s, t0 + np.arange(n) * 0.05
        )
        assert net.clock.now_s == pytest.approx(t0 + n * 0.05)
        assert net.counters.batch_packets == n

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_blackholed_link_loses_exactly_hops_from_k(self, k):
        """A blackhole on link k kills every probe to hops ≥ k (their
        lanes cross link k) and none of the lanes that turn back before."""
        net = _fresh_net(7)
        steps = _path_user_to_leaf(net.topology)
        net.add_episode(
            CongestionEpisode.on_links([steps[k - 1].link], 0.0, 1e6, loss=1.0)
        )
        per_hop = 20
        depths = np.repeat(np.arange(1, len(steps) + 1), per_hop)
        series = net.probe_depths(steps, _packet(), depths, purpose="test", t0_s=0.0)
        lost = series.lost_mask.reshape(len(steps), per_hop)
        for depth in range(1, len(steps) + 1):
            if depth >= k:
                assert bool(lost[depth - 1].all()), depth
            else:
                assert int(np.count_nonzero(~lost[depth - 1])) >= per_hop - 2

    def test_echo_series_isolated_from_traceroute_and_showpaths(self):
        """Traceroute and showpaths draw from their own streams: an echo
        series is byte-identical whether or not they probed the same
        links before it."""

        def echo(probe_first):
            host = ScionHost.scionlab(seed=11)
            path = host.paths("16-ffaa:0:1002", max_paths=1)[0]
            if probe_first:
                host.scmp.traceroute(path, probes_per_hop=5)
                ShowpathsApp(host).run("16-ffaa:0:1002", max_paths=3, probe=True)
            host.clock.advance_to(100.0)
            return host.scmp.echo_series(path, "10.2.0.2", count=60)

        plain, after_probes = echo(False), echo(True)
        assert plain.rtts_ms == after_probes.rtts_ms
        assert plain.received == after_probes.received

    def test_depth_laned_probe_rejects_echo_purpose(self):
        net = _fresh_net(7)
        steps = _path_user_to_leaf(net.topology)
        with pytest.raises(ValidationError):
            net.probe_depths(steps, _packet(), [1, 2], purpose=ECHO)

    def test_purpose_streams_created_lazily(self):
        """Building a network creates no probe-purpose generators; a
        traceroute creates one per (link, direction) it crosses."""
        net = _fresh_net(7)
        before = set(net._streams._streams)
        assert not any(name.endswith(":traceroute") for name in before)
        steps = _path_user_to_leaf(net.topology)
        net.probe_depths(steps, _packet(), [1, 2, 3, 4], purpose="traceroute")
        created = set(net._streams._streams) - before
        assert len(created) == 2 * len(steps)
        assert all(name.endswith(":traceroute") for name in created)


# -- flow ledger ---------------------------------------------------------------


class TestFlowLedgerBounded:
    def test_ledger_stays_bounded_over_1000_transfers(self):
        """Sequential registered transfers prune as the clock advances."""
        net = _fresh_net(7)
        steps = _path_user_to_leaf(net.topology)
        packet = PacketSpec(payload_bytes=1400, n_hops=5, n_segments=2)
        high_water = 0
        for _ in range(1000):
            net.fluid_transfer(
                steps, 5e6, packet, duration_s=3.0, register_flow=True
            )
            net.clock.advance(4.0)  # next transfer starts after this one ends
            high_water = max(high_water, len(net.flows))
        # 4 links × 1 open flow each, plus at most one generation awaiting
        # the next prune: bounded, not O(transfers).
        assert high_water <= 2 * len(steps)
        assert net.counters.ledger_pruned_flows > 0

    def test_overlapping_flows_survive_prune(self):
        net = _fresh_net(7)
        steps = _path_user_to_leaf(net.topology)
        packet = PacketSpec(payload_bytes=1400, n_hops=5, n_segments=2)
        net.fluid_transfer(steps, 5e6, packet, duration_s=100.0, register_flow=True)
        before = len(net.flows)
        net.clock.advance(1.0)
        net.fluid_transfer(steps, 5e6, packet, duration_s=1.0, register_flow=True)
        # The long-lived flow still overlaps: nothing pruned from it.
        assert len(net.flows) == before + len(steps)

    def test_competing_flow_reduces_throughput(self):
        """The indexed ledger still feeds contention into fluid_share."""
        net = _fresh_net(7)
        steps = _path_user_to_leaf(net.topology)
        packet = PacketSpec(payload_bytes=1400, n_hops=5, n_segments=2)
        alone = net.fluid_transfer(steps, 30e6, packet, duration_s=3.0)
        net.fluid_transfer(steps, 30e6, packet, duration_s=3.0, register_flow=True)
        contended = net.fluid_transfer(steps, 30e6, packet, duration_s=3.0)
        assert contended.achieved_bps < alone.achieved_bps


# -- sciond sequence resolver -------------------------------------------------


class TestSequenceIndex:
    def test_lookup_agrees_with_scan_for_every_study_path(self):
        host = ScionHost.scionlab(seed=7)
        for dst in STUDY_DESTINATIONS:
            paths = host.paths(dst, max_paths=None)
            assert paths
            for path in paths:
                scanned = Sequence.parse(path.sequence()).select(paths)[0]
                assert host.daemon.resolve(dst, path.sequence()) is scanned

    def test_wildcard_returns_first_scan_match(self):
        host = ScionHost.scionlab(seed=7)
        paths = host.paths("16-ffaa:0:1002", max_paths=None)
        # Pin the first two ASes of paths as long as rank 20 and
        # wildcard every later hop.
        first, second = paths[20].hops[:2]
        later = ["0-0"] * (paths[20].hop_count - 2)
        wildcard = " ".join([str(first.isd_as), f"{second.isd_as}#0,0"] + later)
        scanned = Sequence.parse(wildcard).select(paths)
        assert len(scanned) > 1
        assert host.daemon.resolve("16-ffaa:0:1002", wildcard) is scanned[0]

    def test_repeated_lookups_do_not_recombine(self, monkeypatch):
        host = ScionHost.scionlab(seed=7)
        calls = {"n": 0}
        import repro.scion.daemon as daemon_mod

        real = daemon_mod.combine_paths

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(daemon_mod, "combine_paths", counting)
        paths = host.paths("16-ffaa:0:1002", max_paths=None)
        baseline = calls["n"]
        for path in paths:
            for _ in range(3):
                found = host.daemon.resolve("16-ffaa:0:1002", path.sequence())
                assert found.sequence() == path.sequence()
        assert calls["n"] == baseline  # index served every lookup

    def test_index_invalidated_by_flush(self):
        host = ScionHost.scionlab(seed=7)
        path = host.paths("16-ffaa:0:1002", max_paths=1)[0]
        assert host.daemon.resolve("16-ffaa:0:1002", path.sequence()) is path
        host.daemon.flush()
        # After a flush the index rebuilds from a fresh combination and
        # resolves the same sequence to the path of the new set.
        again = host.daemon.resolve("16-ffaa:0:1002", path.sequence())
        assert again.sequence() == path.sequence()
        assert again is host.paths("16-ffaa:0:1002", max_paths=1)[0]

    def test_unknown_sequence_raises(self):
        host = ScionHost.scionlab(seed=7)
        with pytest.raises(NoPathError, match="matches sequence"):
            host.daemon.resolve("16-ffaa:0:1002", "1-0:0:1#0,0")


# -- link sampling cache -------------------------------------------------------


class TestSamplingCache:
    def test_repeat_window_hits_cache(self):
        net = _fresh_net(7)
        steps = _path_user_to_leaf(net.topology)
        state = net.link_state(steps[0].link)
        direction = state.direction_from(steps[0].sender)
        first = state.window_sample(direction, 0.0, 3.0)
        assert net.counters.sampler_misses >= 1
        hits_before = net.counters.sampler_hits
        second = state.window_sample(direction, 0.0, 3.0)
        assert second == first
        assert net.counters.sampler_hits == hits_before + 1

    def test_episode_add_invalidates_cache(self):
        net = _fresh_net(7)
        steps = _path_user_to_leaf(net.topology)
        state = net.link_state(steps[0].link)
        direction = state.direction_from(steps[0].sender)
        clean = state.window_sample(direction, 0.0, 3.0)
        net.add_episode(
            CongestionEpisode.on_links([steps[0].link], 0.0, 3.0, loss=0.5)
        )
        disturbed = state.window_sample(direction, 0.0, 3.0)
        # Same key, new epoch: the answer reflects the new episode.
        assert disturbed != clean
        assert disturbed[1] == pytest.approx(0.5)  # window episode loss

    def test_fluid_transfers_reuse_cached_windows(self):
        net = _fresh_net(7)
        steps = _path_user_to_leaf(net.topology)
        packet = PacketSpec(payload_bytes=1400, n_hops=5, n_segments=2)
        net.fluid_transfer(steps, 5e6, packet, duration_s=3.0)
        misses = net.counters.sampler_misses
        net.fluid_transfer(steps, 5e6, packet, duration_s=3.0)  # same window
        assert net.counters.sampler_misses == misses
        assert net.counters.sampler_hits >= len(steps)


# -- metrics plumbing ----------------------------------------------------------


class TestNetMetrics:
    def test_snapshot_names_cover_all_counters(self):
        net = _fresh_net(7)
        snapshot = m.network_stats_snapshot(net)
        slots = set(net.counters.snapshot())
        assert set(m._NET_STAT_NAMES) == slots

    def test_campaign_report_carries_data_plane_counters(self):
        digest, report = _campaign_digest()
        assert m.counter_value(report.metrics, m.NET_BATCH_PACKETS) == 80 * 30
        # Every bwtest window lands at a fresh clock time in a serial
        # campaign, so the sampler cache records misses (hits come from
        # overlapping multi-user transfers, covered in TestSamplingCache).
        assert m.counter_value(report.metrics, m.NET_SAMPLER_MISSES) > 0
        text = m.format_metrics(report.metrics)
        assert "data plane:" in text
        assert "batch series" in text


# -- vectorized utilization reads ---------------------------------------------


class TestValuesAt:
    def test_matches_scalar_reads_any_order(self):
        net = _fresh_net(7)
        steps = _path_user_to_leaf(net.topology)
        state = net.link_state(steps[0].link)
        direction = state.direction_from(steps[0].sender)
        proc = state._util[direction]
        times = np.array([7.3, 0.4, 99.0, 12.8, 0.4])
        vector = proc.values_at(times)
        scalars = np.array([proc.value_at(float(t)) for t in times])
        np.testing.assert_allclose(vector, scalars)

    def test_rejects_negative_times(self):
        net = _fresh_net(7)
        steps = _path_user_to_leaf(net.topology)
        state = net.link_state(steps[0].link)
        proc = state._util[LinkDirection.A_TO_B]
        with pytest.raises(ValidationError):
            proc.values_at(np.array([-1.0]))

"""Tests for the SCION application layer (repro.apps)."""

import pytest

from repro.apps.address import AddressApp
from repro.apps.bwtester import BwtestApp, parse_bwtest_params
from repro.apps.ping import PingApp
from repro.apps.sequence import HopPredicate, Sequence
from repro.apps.showpaths import ShowpathsApp
from repro.apps.traceroute import TracerouteApp
from repro.errors import (
    BandwidthTestError,
    NoPathError,
    ParseError,
    ServerErrorResponse,
    ServerUnreachableError,
)
from repro.netsim.network import ServerHealth
from repro.scion.snet import ScionHost

from tests.helpers import build_tiny_world

LEAF_ADDR = "2-ffaa:0:2,[10.2.0.2]"


@pytest.fixture()
def host():
    return ScionHost(build_tiny_world(), "1-ffaa:1:1")


class TestSequenceLanguage:
    def test_parse_full_predicate(self):
        p = HopPredicate.parse("17-ffaa:0:1107#3,1")
        assert p.isd == 17 and p.ingress == 3 and p.egress == 1

    def test_parse_as_only(self):
        p = HopPredicate.parse("17-ffaa:0:1107")
        assert p.ingress == 0 and p.egress == 0

    def test_single_interface_means_both(self):
        p = HopPredicate.parse("17-ffaa:0:1107#2")
        assert p.ingress == 2 and p.egress == 2

    def test_wildcard_as(self):
        p = HopPredicate.parse("17-0#0,0")
        assert p.asn is None

    @pytest.mark.parametrize("bad", ["", "x", "17", "17-ffaa", "17-ffaa:0:1#a,b"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ParseError):
            HopPredicate.parse(bad)

    def test_sequence_matches_own_path(self, host):
        path = host.paths("2-ffaa:0:2", max_paths=None)[1]
        seq = Sequence.parse(path.sequence())
        assert seq.matches(path)

    def test_sequence_selects_exactly_one(self, host):
        paths = host.paths("2-ffaa:0:2", max_paths=None)
        seq = Sequence.parse(paths[2].sequence())
        selected = seq.select(paths)
        assert [p.sequence() for p in selected] == [paths[2].sequence()]

    def test_wildcard_interfaces_match_more(self, host):
        paths = host.paths("2-ffaa:0:2", max_paths=None)
        # Same AS chain, any interfaces: matches both parallel variants.
        loose = " ".join(f"{h.isd_as}" for h in paths[0].hops)
        selected = Sequence.parse(loose).select(paths)
        assert len(selected) >= 1

    def test_length_mismatch_no_match(self, host):
        paths = host.paths("2-ffaa:0:2", max_paths=None)
        seq = Sequence.parse("1-ffaa:1:1")
        assert not seq.matches(paths[0])

    def test_roundtrip_str(self):
        seq = Sequence.parse("17-ffaa:0:1107#3,1 16-ffaa:0:1002#0,0")
        assert Sequence.parse(str(seq)) == seq


class TestAddressApp:
    def test_address_output(self, host):
        result = AddressApp(host).run()
        assert result.format_text() == "1-ffaa:1:1,[127.0.0.1]"


class TestShowpathsApp:
    def test_default_cap(self, host):
        result = ShowpathsApp(host).run("2-ffaa:0:2")
        assert len(result.entries) <= 10

    def test_extended_has_latency_and_mtu(self, host):
        result = ShowpathsApp(host).run("2-ffaa:0:2", extended=True)
        entry = result.entries[0]
        assert entry.mtu == 1472
        assert entry.latency_hint_ms is not None and entry.latency_hint_ms > 0

    def test_probe_marks_alive(self, host):
        result = ShowpathsApp(host).run("2-ffaa:0:2", extended=True, probe=True)
        assert all(e.status == "alive" for e in result.entries)

    def test_format_text_extended(self, host):
        result = ShowpathsApp(host).run("2-ffaa:0:2", extended=True, probe=True)
        text = result.format_text(extended=True)
        assert "Available paths to 2-ffaa:0:2" in text
        assert "MTU: 1472" in text
        assert "Status: alive" in text

    def test_m_option_increases_list(self, host):
        few = ShowpathsApp(host).run("2-ffaa:0:2", max_paths=2)
        more = ShowpathsApp(host).run("2-ffaa:0:2", max_paths=40)
        assert len(few.entries) == 2
        assert len(more.entries) == 4


class TestPingApp:
    def test_basic_run(self, host):
        report = PingApp(host).run(LEAF_ADDR, count=5, interval="0.01s")
        assert report.stats.sent == 5
        assert "packets transmitted" in report.format_text()

    def test_sequence_pins_path(self, host):
        paths = host.paths("2-ffaa:0:2", max_paths=None)
        want = paths[3]
        report = PingApp(host).run(
            LEAF_ADDR, count=2, interval="0.01s", sequence=want.sequence()
        )
        assert report.path.sequence() == want.sequence()

    def test_bad_sequence_raises(self, host):
        with pytest.raises(NoPathError):
            PingApp(host).run(LEAF_ADDR, count=1, sequence="9-0:0:9#0,0")

    def test_interactive_selector(self, host):
        chosen = {}

        def selector(paths):
            chosen["n"] = len(paths)
            return len(paths) - 1

        report = PingApp(host).run(
            LEAF_ADDR, count=1, interval="0.01s", interactive=selector,
            max_paths=None,
        )
        assert chosen["n"] == 4
        assert report.path.sequence() == host.paths(
            "2-ffaa:0:2", max_paths=None
        )[-1].sequence()

    def test_interactive_out_of_range(self, host):
        with pytest.raises(NoPathError):
            PingApp(host).run(LEAF_ADDR, count=1, interactive=lambda paths: 99)


class TestTracerouteApp:
    def test_run_and_format(self, host):
        report = TracerouteApp(host).run(LEAF_ADDR)
        assert len(report.hops) == report.path.n_links
        text = report.format_text()
        assert text.startswith("traceroute to")


class TestBwtestParams:
    def test_paper_string(self):
        params = parse_bwtest_params("3,64,?,12Mbps")
        assert params.duration_s == 3.0
        assert params.packet_bytes == 64
        assert params.target.mbps == pytest.approx(12.0)
        # 12 Mbps at 64 B = 23437.5 pkt/s * 3 s
        assert params.num_packets == pytest.approx(70312, abs=2)

    def test_mtu_token(self):
        params = parse_bwtest_params("3,MTU,?,12Mbps", mtu=1472)
        assert params.packet_bytes == 1472

    def test_wildcard_bandwidth(self):
        params = parse_bwtest_params("5,100,?,150Mbps")
        assert params.target.mbps == pytest.approx(150.0)

    def test_derive_target_from_packets(self):
        params = parse_bwtest_params("1,1000,1000,?")
        assert params.target.bps == pytest.approx(8e6)

    def test_derive_duration(self):
        params = parse_bwtest_params("?,1000,1000,8Mbps")
        assert params.duration_s == pytest.approx(1.0)

    def test_derive_size(self):
        params = parse_bwtest_params("1,?,1000,8Mbps")
        assert params.packet_bytes == 1000

    def test_two_wildcards_rejected(self):
        with pytest.raises(ParseError):
            parse_bwtest_params("?,64,?,12Mbps")

    def test_wrong_field_count_rejected(self):
        with pytest.raises(ParseError):
            parse_bwtest_params("3,64,12Mbps")

    def test_duration_cap_10s(self):
        with pytest.raises(BandwidthTestError):
            parse_bwtest_params("11,64,?,12Mbps")

    def test_min_packet_size_4(self):
        with pytest.raises(BandwidthTestError):
            parse_bwtest_params("3,2,?,12Mbps")


class TestBwtestApp:
    def test_both_directions_measured(self, host):
        result = BwtestApp(host).run(LEAF_ADDR, cs="3,64,?,12Mbps")
        assert 0 < result.cs.achieved.mbps <= 12.0
        assert 0 < result.sc.achieved.mbps <= 12.0

    def test_sc_defaults_to_cs(self, host):
        result = BwtestApp(host).run(LEAF_ADDR, cs="3,64,?,12Mbps")
        assert result.sc.params == result.cs.params

    def test_separate_sc_params(self, host):
        result = BwtestApp(host).run(
            LEAF_ADDR, cs="3,64,?,12Mbps", sc="3,MTU,?,12Mbps"
        )
        assert result.sc.params.packet_bytes == 1472

    def test_clock_advances_by_both_durations(self, host):
        before = host.clock.now_s
        BwtestApp(host).run(LEAF_ADDR, cs="3,64,?,12Mbps")
        assert host.clock.now_s - before == pytest.approx(6.0)

    def test_down_server_raises(self, host):
        host.network.servers.set_health("2-ffaa:0:2", "10.2.0.2", ServerHealth.DOWN)
        with pytest.raises(ServerUnreachableError):
            BwtestApp(host).run(LEAF_ADDR)

    def test_error_server_raises(self, host):
        host.network.servers.set_health("2-ffaa:0:2", "10.2.0.2", ServerHealth.ERROR)
        with pytest.raises(ServerErrorResponse):
            BwtestApp(host).run(LEAF_ADDR)

    def test_format_text(self, host):
        result = BwtestApp(host).run(LEAF_ADDR, cs="3,64,?,12Mbps")
        text = result.format_text()
        assert "S->C results:" in text and "C->S results:" in text
        assert "Achieved bandwidth:" in text

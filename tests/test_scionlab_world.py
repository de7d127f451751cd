"""Tests for the SCIONLab world reconstruction (repro.topology.scionlab).

These pin the paper-anchored facts: 35 infrastructure ASes + MY_AS, the
named destinations, reachability statistics close to §6, and the path
structure to Ireland and N. Virginia.
"""

import pytest

from repro.analysis.reachability import reachability
from repro.topology.entities import ASRole
from repro.topology.isd_as import ISDAS
from repro.topology.scionlab import (
    AVAILABLE_SERVERS,
    AWS_IRELAND,
    AWS_N_VIRGINIA,
    AWS_OHIO,
    AWS_SINGAPORE,
    ETHZ_AP,
    JITTERY_ASES,
    MAGDEBURG_AP,
    MY_AS,
    STUDY_DESTINATIONS,
    build_scionlab_world,
    scionlab_network_config,
)


@pytest.fixture(scope="module")
def world():
    return build_scionlab_world()


class TestWorldShape:
    def test_35_infrastructure_ases_plus_user(self, world):
        assert len(world) == 36
        infra = [a for a in world.all_ases() if a.role is not ASRole.USER]
        assert len(infra) == 35

    def test_user_as_attached_at_ethz_ap(self, world):
        assert world.parents_of(MY_AS) == [ETHZ_AP]

    def test_ethz_ap_is_attachment_point(self, world):
        assert world.as_of(ETHZ_AP).role is ASRole.ATTACHMENT_POINT

    def test_paper_named_ases_present(self, world):
        for ia in (AWS_IRELAND, AWS_N_VIRGINIA, AWS_OHIO, AWS_SINGAPORE, MAGDEBURG_AP):
            assert ia in world

    def test_magdeburg_ip_matches_paper(self, world):
        assert world.as_of(MAGDEBURG_AP).primary_host.ip == "141.44.25.144"

    def test_ireland_ip_matches_paper(self, world):
        assert world.as_of(AWS_IRELAND).primary_host.ip == "172.31.43.7"

    def test_nvirginia_ip_matches_paper(self, world):
        assert world.as_of(AWS_N_VIRGINIA).primary_host.ip == "172.31.19.144"

    def test_access_link_asymmetric(self, world):
        link = world.link_between(ETHZ_AP, MY_AS)[0]
        assert link.b == MY_AS  # child end: its uplink is capacity_ba
        up, down = link.capacity_ba_mbps, link.capacity_ab_mbps
        assert up < down

    def test_user_country_is_nl(self, world):
        assert world.as_of(MY_AS).country == "NL"


class TestAvailableServers:
    def test_21_servers(self):
        assert len(AVAILABLE_SERVERS) == 21

    def test_nvirginia_is_destination_2(self):
        assert AVAILABLE_SERVERS[1][0] == str(AWS_N_VIRGINIA)

    def test_ireland_is_destination_1(self):
        assert AVAILABLE_SERVERS[0][0] == str(AWS_IRELAND)

    def test_one_as_hosts_two_servers(self):
        ases = [ia for ia, _ in AVAILABLE_SERVERS]
        assert ases.count("16-ffaa:0:1001") == 2

    def test_all_servers_exist_in_world(self, world):
        for ia, ip in AVAILABLE_SERVERS:
            hosts = world.as_of(ia).hosts
            assert any(h.ip == ip for h in hosts), (ia, ip)

    def test_study_destinations_cover_five_regions(self, world):
        countries = {world.as_of(ia).country for ia in STUDY_DESTINATIONS}
        assert countries == {"DE", "IE", "US", "SG", "KR"}


class TestReachabilityAnchors:
    """The §6 statistics the reconstruction was tuned against."""

    @pytest.fixture(scope="class")
    def result(self, world):
        from repro.scion.snet import ScionHost

        host = ScionHost(world, MY_AS, config=scionlab_network_config())
        return reachability(host)

    def test_all_21_reachable(self, result):
        assert result.reachable == 21

    def test_mean_path_length_close_to_paper(self, result):
        assert result.mean_path_length == pytest.approx(5.66, abs=0.25)

    def test_about_70pct_within_6_hops(self, result):
        assert 0.6 <= result.fraction_within(6) <= 0.85

    def test_histogram_totals(self, result):
        assert sum(count for _, count in result.rows()) == 21


class TestJitterConfig:
    def test_jittery_ases_are_the_paper_pair(self):
        assert set(JITTERY_ASES) == {AWS_SINGAPORE, AWS_OHIO}

    def test_network_config_carries_jitter(self):
        config = scionlab_network_config()
        assert config.extra_jitter_ms[AWS_SINGAPORE] > 0
        assert config.jitter_for(AWS_OHIO) > config.base_jitter_ms

    def test_user_as_pps_limits_below_default(self):
        config = scionlab_network_config()
        assert config.pps_for(MY_AS).send < config.default_pps.send

"""Tests for topology entities, graph and builder (repro.topology)."""

import pytest

from repro.errors import TopologyError, UnknownASError, ValidationError
from repro.topology.builder import TopologyBuilder, _default_ip
from repro.topology.entities import (
    ASRole,
    AutonomousSystem,
    Host,
    LinkKind,
    LinkSpec,
)
from repro.topology.graph import Topology
from repro.topology.isd_as import ISDAS
from repro.util.geo import GeoPoint

from tests.helpers import build_tiny_world


def _mk_as(text, role=ASRole.NON_CORE, **kw):
    defaults = dict(
        name=text,
        role=role,
        location=GeoPoint(0, 0),
        country="CH",
        operator="Op",
        hosts=[Host(ip="10.0.0.1")],
    )
    defaults.update(kw)
    return AutonomousSystem(isd_as=ISDAS.parse(text), **defaults)


class TestEntities:
    def test_host_requires_ip(self):
        with pytest.raises(ValidationError):
            Host(ip="")

    def test_primary_host(self):
        asys = _mk_as("1-0:0:1")
        assert asys.primary_host.ip == "10.0.0.1"

    def test_primary_host_missing_raises(self):
        asys = _mk_as("1-0:0:1", hosts=[])
        with pytest.raises(ValidationError):
            asys.primary_host

    def test_as_address(self):
        assert _mk_as("1-0:0:1").address() == "1-0:0:1,[10.0.0.1]"

    def test_tiny_mtu_rejected(self):
        with pytest.raises(ValidationError):
            _mk_as("1-0:0:1", mtu=100)

    def test_is_core(self):
        assert _mk_as("1-0:0:1", role=ASRole.CORE).is_core
        assert not _mk_as("1-0:0:1").is_core


class TestLinkSpec:
    def _link(self, **kw):
        defaults = dict(
            a=ISDAS.parse("1-0:0:1"),
            a_ifid=1,
            b=ISDAS.parse("1-0:0:2"),
            b_ifid=2,
            kind=LinkKind.CORE,
        )
        defaults.update(kw)
        return LinkSpec(**defaults)

    def test_self_link_rejected(self):
        with pytest.raises(ValidationError):
            self._link(b=ISDAS.parse("1-0:0:1"))

    def test_nonpositive_ifid_rejected(self):
        with pytest.raises(ValidationError):
            self._link(a_ifid=0)

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(ValidationError):
            self._link(capacity_ab_mbps=0)

    def test_bad_loss_rejected(self):
        with pytest.raises(ValidationError):
            self._link(base_loss=1.0)

    def test_interface_of_and_other(self):
        link = self._link()
        a, b = link.endpoints()
        assert link.interface_of(a) == 1
        assert link.interface_of(b) == 2
        assert link.other(a) == b and link.other(b) == a

    def test_interface_of_stranger_raises(self):
        link = self._link()
        with pytest.raises(ValidationError):
            link.interface_of(ISDAS.parse("9-0:0:9"))


class TestTopologyValidation:
    def test_tiny_world_builds(self):
        topo = build_tiny_world()
        assert len(topo) == 6
        assert len(topo.links()) == 7

    def test_duplicate_as_rejected(self):
        a = _mk_as("1-0:0:1")
        with pytest.raises(TopologyError):
            Topology([a, _mk_as("1-0:0:1")], [])

    def test_core_link_between_non_core_rejected(self):
        ases = [_mk_as("1-0:0:1"), _mk_as("1-0:0:2")]
        link = LinkSpec(
            a=ISDAS.parse("1-0:0:1"), a_ifid=1,
            b=ISDAS.parse("1-0:0:2"), b_ifid=1, kind=LinkKind.CORE,
        )
        with pytest.raises(TopologyError):
            Topology(ases, [link])

    def test_core_as_cannot_be_child(self):
        ases = [_mk_as("1-0:0:1", role=ASRole.CORE), _mk_as("1-0:0:2", role=ASRole.CORE)]
        link = LinkSpec(
            a=ISDAS.parse("1-0:0:1"), a_ifid=1,
            b=ISDAS.parse("1-0:0:2"), b_ifid=1, kind=LinkKind.PARENT,
        )
        with pytest.raises(TopologyError):
            Topology(ases, [link])

    def test_provider_cycle_rejected(self):
        ases = [
            _mk_as("1-0:0:1", role=ASRole.CORE),
            _mk_as("1-0:0:2"),
            _mk_as("1-0:0:3"),
        ]
        links = [
            LinkSpec(a=ISDAS.parse("1-0:0:1"), a_ifid=1,
                     b=ISDAS.parse("1-0:0:2"), b_ifid=1, kind=LinkKind.PARENT),
            LinkSpec(a=ISDAS.parse("1-0:0:2"), a_ifid=2,
                     b=ISDAS.parse("1-0:0:3"), b_ifid=1, kind=LinkKind.PARENT),
            LinkSpec(a=ISDAS.parse("1-0:0:3"), a_ifid=2,
                     b=ISDAS.parse("1-0:0:2"), b_ifid=3, kind=LinkKind.PARENT),
        ]
        with pytest.raises(TopologyError):
            Topology(ases, links)

    def test_stranded_as_rejected(self):
        """A non-core AS with no upward path to a core must be refused."""
        ases = [_mk_as("1-0:0:1", role=ASRole.CORE), _mk_as("1-0:0:2")]
        with pytest.raises(TopologyError):
            Topology(ases, [])

    def test_duplicate_interface_rejected(self):
        ases = [_mk_as("1-0:0:1", role=ASRole.CORE), _mk_as("1-0:0:2"), _mk_as("1-0:0:3")]
        links = [
            LinkSpec(a=ISDAS.parse("1-0:0:1"), a_ifid=1,
                     b=ISDAS.parse("1-0:0:2"), b_ifid=1, kind=LinkKind.PARENT),
            LinkSpec(a=ISDAS.parse("1-0:0:1"), a_ifid=1,  # reused ifid!
                     b=ISDAS.parse("1-0:0:3"), b_ifid=1, kind=LinkKind.PARENT),
        ]
        with pytest.raises(TopologyError):
            Topology(ases, links)

    def test_link_to_unknown_as_rejected(self):
        ases = [_mk_as("1-0:0:1", role=ASRole.CORE)]
        link = LinkSpec(
            a=ISDAS.parse("1-0:0:1"), a_ifid=1,
            b=ISDAS.parse("9-0:0:9"), b_ifid=1, kind=LinkKind.PARENT,
        )
        with pytest.raises(UnknownASError):
            Topology(ases, [link])


class TestTopologyQueries:
    @pytest.fixture(scope="class")
    def topo(self):
        return build_tiny_world()

    def test_as_of(self, topo):
        assert topo.as_of("1-ffaa:0:1").name == "core1a"

    def test_as_of_unknown_raises(self, topo):
        with pytest.raises(UnknownASError):
            topo.as_of("9-0:0:9")

    def test_contains(self, topo):
        assert "1-ffaa:0:1" in topo
        assert "9-0:0:9" not in topo
        assert "garbage" not in topo

    def test_core_ases(self, topo):
        assert [str(a.isd_as) for a in topo.core_ases()] == [
            "1-ffaa:0:1", "1-ffaa:0:2", "2-ffaa:0:1",
        ]
        assert [str(a.isd_as) for a in topo.core_ases(2)] == ["2-ffaa:0:1"]

    def test_isds(self, topo):
        assert topo.isds() == [1, 2]

    def test_parents_children(self, topo):
        assert [str(p) for p in sorted(topo.parents_of("1-ffaa:0:3"))] == [
            "1-ffaa:0:1", "1-ffaa:0:2",
        ]

    def test_link_at(self, topo):
        link = topo.links_of("1-ffaa:1:1")[0]
        ifid = link.interface_of(ISDAS.parse("1-ffaa:1:1"))
        assert topo.link_at("1-ffaa:1:1", ifid) is link

    def test_link_at_missing_raises(self, topo):
        with pytest.raises(TopologyError):
            topo.link_at("1-ffaa:1:1", 99)

    def test_link_between(self, topo):
        links = topo.link_between("1-ffaa:0:1", "1-ffaa:0:2")
        assert len(links) == 1 and links[0].kind is LinkKind.CORE


class TestBuilder:
    def test_duplicate_as_rejected(self):
        b = TopologyBuilder()
        b.add_as("1-0:0:1", "x", role=ASRole.CORE, lat=0, lon=0,
                 country="CH", operator="Op")
        with pytest.raises(TopologyError):
            b.add_as("1-0:0:1", "y", role=ASRole.CORE, lat=0, lon=0,
                     country="CH", operator="Op")

    def test_link_to_undeclared_as_rejected(self):
        b = TopologyBuilder()
        b.add_as("1-0:0:1", "x", role=ASRole.CORE, lat=0, lon=0,
                 country="CH", operator="Op")
        with pytest.raises(TopologyError):
            b.core_link("1-0:0:1", "1-0:0:2")

    def test_auto_ifids_monotonic_per_as(self):
        topo = build_tiny_world()
        ifids = sorted(
            l.interface_of(ISDAS.parse("1-ffaa:0:1"))
            for l in topo.links_of("1-ffaa:0:1")
        )
        assert ifids == [1, 2, 3]

    def test_default_ip_deterministic(self):
        ia = ISDAS.parse("17-ffaa:1:e01")
        assert _default_ip(ia) == _default_ip(ia)

    def test_extra_hosts(self):
        b = TopologyBuilder()
        b.add_as("1-0:0:1", "x", role=ASRole.CORE, lat=0, lon=0,
                 country="CH", operator="Op", ip="10.0.0.1",
                 extra_hosts=["10.0.0.2"])
        topo = b.build()
        assert len(topo.as_of("1-0:0:1").hosts) == 2

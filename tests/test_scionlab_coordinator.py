"""Tests for the coordinator, VM artifacts and defaults (repro.scionlab)."""

import pytest

from repro.errors import ValidationError
from repro.scionlab.coordinator import Coordinator
from repro.scionlab.defaults import (
    available_server_documents,
    study_destination_ids,
)
from repro.scionlab.vm import render_vagrantfile
from repro.topology.entities import ASRole
from repro.topology.scionlab import ETHZ_AP, build_scionlab_world

from tests.helpers import build_tiny_world


@pytest.fixture()
def coordinator():
    return Coordinator(build_tiny_world(), seed=5)


class TestTrustPlane:
    def test_trc_per_isd(self, coordinator):
        store = coordinator.trust_store()
        assert store.isds() == [1, 2]

    def test_core_keys_registered(self, coordinator):
        trc = coordinator.trust_store().trc_for(1)
        assert set(trc.core_ases()) == {"1-ffaa:0:1", "1-ffaa:0:2"}

    def test_issue_as_certificate_verifies(self, coordinator):
        from repro.crypto.rsa import keypair_from_seed

        kp = keypair_from_seed(77, bits=256)
        cert = coordinator.issue_as_certificate("2-ffaa:0:2", kp.public)
        store = coordinator.trust_store()
        assert store.verify_certificate([cert]) == kp.public


class TestUserASLifecycle:
    def test_create_user_as(self, coordinator):
        topo, user = coordinator.create_user_as("1-ffaa:0:3", name="my-as")
        assert user.isd_as.isd == 1
        assert user.attachment_point == coordinator.topology.as_of("1-ffaa:0:3").isd_as
        assert user.isd_as in topo
        assert topo.as_of(user.isd_as).role is ASRole.USER

    def test_certificate_chains_to_core(self, coordinator):
        _topo, user = coordinator.create_user_as("1-ffaa:0:3")
        store = coordinator.trust_store()
        assert store.verify_certificate(user.certificate_chain) == user.keypair.public

    def test_user_as_linked_under_ap(self, coordinator):
        topo, user = coordinator.create_user_as("1-ffaa:0:3")
        parents = topo.parents_of(user.isd_as)
        assert [str(p) for p in parents] == ["1-ffaa:0:3"]

    def test_access_link_asymmetric(self, coordinator):
        topo, user = coordinator.create_user_as("1-ffaa:0:3")
        link = topo.link_between("1-ffaa:0:3", user.isd_as)[0]
        # The user AS is the child end; its uplink is the slower side.
        assert link.b == user.isd_as
        assert link.capacity_ba_mbps < link.capacity_ab_mbps

    def test_unique_asns_for_multiple_users(self, coordinator):
        _t1, u1 = coordinator.create_user_as("1-ffaa:0:3")
        _t2, u2 = coordinator.create_user_as("1-ffaa:0:3")
        assert u1.isd_as != u2.isd_as

    def test_non_ap_attachment_rejected(self, coordinator):
        with pytest.raises(ValidationError):
            coordinator.create_user_as("1-ffaa:0:1")

    def test_original_topology_not_mutated(self):
        topo = build_tiny_world()
        coordinator = Coordinator(topo, seed=5)
        coordinator.create_user_as("1-ffaa:0:3")
        assert len(topo) == 6  # untouched; coordinator tracks the new one

    def test_new_world_paths_work(self, coordinator):
        """A freshly attached AS can immediately combine paths (§3.2 aha)."""
        from repro.scion.snet import ScionHost

        topo, user = coordinator.create_user_as("1-ffaa:0:3")
        host = ScionHost(topo, user.isd_as)
        paths = host.paths("2-ffaa:0:2", max_paths=None)
        assert paths and paths[0].hop_count == 5

    def test_works_on_scionlab_world(self):
        coordinator = Coordinator(build_scionlab_world(), seed=5)
        topo, user = coordinator.create_user_as(ETHZ_AP)
        assert user.isd_as.isd == 17
        assert len(topo) == 37


class TestVMConfig:
    def test_vagrantfile_rendering(self, coordinator):
        _t, user = coordinator.create_user_as("1-ffaa:0:3")
        text = render_vagrantfile(user.vm_config)
        assert "Vagrant.configure" in text
        assert str(user.isd_as) in text
        assert "scionlab-services" in text
        assert user.vm_config.certificate_fingerprint in text

    def test_vm_config_dict(self, coordinator):
        _t, user = coordinator.create_user_as("1-ffaa:0:3")
        data = user.vm_config.to_dict()
        assert data["attachment_point"] == "1-ffaa:0:3"
        assert data["memory_mb"] == 2048


class TestDefaults:
    def test_server_documents_shape(self):
        docs = available_server_documents()
        assert len(docs) == 21
        assert docs[0]["_id"] == 1
        assert docs[1]["isd_as"] == "16-ffaa:0:1003"
        assert all("," in d["address"] for d in docs)

    def test_study_ids_are_first_five(self):
        assert study_destination_ids() == [1, 2, 3, 4, 5]

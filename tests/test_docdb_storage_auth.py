"""Tests for persistence (snapshots) and access control."""

import os

import pytest

from repro.crypto.certs import issue_certificate
from repro.crypto.rsa import keypair_from_seed, sign
from repro.crypto.trc import TRC, TrustStore
from repro.docdb.auth import (
    AccessController,
    Role,
    SignedDocumentVerifier,
    sign_document,
)
from repro.docdb.client import DocDBClient
from repro.docdb.storage import JsonlStore
from repro.errors import AuthError, StorageError


class TestJsonlStore:
    def test_roundtrip(self, tmp_path):
        client = DocDBClient()
        coll = client["upin"]["paths"]
        coll.create_index("server_id")
        coll.insert_many([{"_id": f"1_{i}", "server_id": 1} for i in range(5)])
        client["upin"]["availableServers"].insert_one({"_id": 1, "ip": "1.2.3.4"})
        client.save_to(str(tmp_path))

        restored = DocDBClient.load_from(str(tmp_path))
        again = restored["upin"]["paths"]
        assert len(again) == 5
        assert sorted(again.index_information()) == ["server_id"]
        assert restored["upin"]["availableServers"].find_one({"_id": 1})["ip"] == "1.2.3.4"

    def test_save_is_atomic_replace(self, tmp_path):
        client = DocDBClient()
        client["db"]["c"].insert_one({"_id": 1})
        client.save_to(str(tmp_path))
        files = os.listdir(tmp_path)
        assert "db.c.jsonl" in files
        assert not any(f.endswith(".tmp") for f in files)

    def test_corrupt_snapshot_raises(self, tmp_path):
        path = tmp_path / "db.c.jsonl"
        path.write_text("{not json\n")
        store = JsonlStore(str(tmp_path))
        from repro.docdb.database import Database

        with pytest.raises(StorageError):
            store.load_database(Database("db"))

    def test_list_databases(self, tmp_path):
        client = DocDBClient()
        client["a"]["c"].insert_one({"_id": 1})
        client["b"]["c"].insert_one({"_id": 1})
        client.save_to(str(tmp_path))
        assert JsonlStore(str(tmp_path)).list_databases() == ["a", "b"]

    def test_dotted_database_name_rejected(self, tmp_path):
        # "up.in" would collide with the "<db>.<collection>.jsonl"
        # filename scheme and mis-parse on load.
        client = DocDBClient()
        client["up.in"]["c"].insert_one({"_id": 1})
        with pytest.raises(StorageError, match="database name"):
            client.save_to(str(tmp_path))

    def test_snapshot_removes_files_of_dropped_collections(self, tmp_path):
        client = DocDBClient()
        client["db"]["keep"].insert_one({"_id": 1})
        client["db"]["gone"].insert_one({"_id": 1})
        client.save_to(str(tmp_path))
        assert "db.gone.jsonl" in os.listdir(tmp_path)

        client["db"].drop_collection("gone")
        client.save_to(str(tmp_path))
        files = os.listdir(tmp_path)
        assert "db.keep.jsonl" in files
        assert "db.gone.jsonl" not in files
        # A reload must not resurrect the dropped collection.
        restored = DocDBClient.load_from(str(tmp_path))
        assert restored["db"].list_collection_names() == ["keep"]


@pytest.fixture(scope="module")
def pki():
    core_kp = keypair_from_seed(10, bits=256)
    leaf_kp = keypair_from_seed(11, bits=256)
    trc = TRC(isd=17, version=1, core_keys={"17-core": core_kp.public})
    cert = issue_certificate("17-core", core_kp, "17-ffaa:1:e01", leaf_kp.public)
    return TrustStore([trc]), core_kp, leaf_kp, cert


class TestAccessController:
    def test_full_flow(self, pki):
        store, _core, leaf_kp, cert = pki
        ac = AccessController(store)
        ac.grant("17-ffaa:1:e01", Role.WRITE)
        nonce = ac.challenge("17-ffaa:1:e01")
        token = ac.authenticate([cert], sign(leaf_kp, nonce))
        assert ac.authorize(token.value, Role.WRITE).subject == "17-ffaa:1:e01"

    def test_wrong_key_rejected(self, pki):
        store, _core, _leaf, cert = pki
        intruder = keypair_from_seed(99, bits=256)
        ac = AccessController(store)
        ac.grant("17-ffaa:1:e01", Role.WRITE)
        nonce = ac.challenge("17-ffaa:1:e01")
        with pytest.raises(AuthError):
            ac.authenticate([cert], sign(intruder, nonce))

    def test_challenge_single_use(self, pki):
        store, _core, leaf_kp, cert = pki
        ac = AccessController(store)
        ac.grant("17-ffaa:1:e01", Role.WRITE)
        nonce = ac.challenge("17-ffaa:1:e01")
        ac.authenticate([cert], sign(leaf_kp, nonce))
        with pytest.raises(AuthError):
            ac.authenticate([cert], sign(leaf_kp, nonce))

    def test_no_grant_no_token(self, pki):
        store, _core, leaf_kp, cert = pki
        ac = AccessController(store)
        nonce = ac.challenge("17-ffaa:1:e01")
        with pytest.raises(AuthError):
            ac.authenticate([cert], sign(leaf_kp, nonce))

    def test_missing_role_rejected(self, pki):
        store, _core, leaf_kp, cert = pki
        ac = AccessController(store)
        ac.grant("17-ffaa:1:e01", Role.READ)
        nonce = ac.challenge("17-ffaa:1:e01")
        token = ac.authenticate([cert], sign(leaf_kp, nonce))
        with pytest.raises(AuthError):
            ac.authorize(token.value, Role.WRITE)

    def test_admin_implies_all(self, pki):
        store, _core, leaf_kp, cert = pki
        ac = AccessController(store)
        ac.grant("17-ffaa:1:e01", Role.ADMIN)
        nonce = ac.challenge("17-ffaa:1:e01")
        token = ac.authenticate([cert], sign(leaf_kp, nonce))
        ac.authorize(token.value, Role.WRITE)
        ac.authorize(token.value, Role.READ)

    def test_token_expiry(self, pki):
        store, _core, leaf_kp, cert = pki
        ac = AccessController(store, token_lifetime_epochs=5)
        ac.grant("17-ffaa:1:e01", Role.WRITE)
        nonce = ac.challenge("17-ffaa:1:e01")
        token = ac.authenticate([cert], sign(leaf_kp, nonce))
        ac.advance_epoch(10)
        with pytest.raises(AuthError):
            ac.authorize(token.value, Role.WRITE)

    def test_revoke_kills_tokens(self, pki):
        store, _core, leaf_kp, cert = pki
        ac = AccessController(store)
        ac.grant("17-ffaa:1:e01", Role.WRITE)
        nonce = ac.challenge("17-ffaa:1:e01")
        token = ac.authenticate([cert], sign(leaf_kp, nonce))
        ac.revoke("17-ffaa:1:e01")
        with pytest.raises(AuthError):
            ac.authorize(token.value, Role.WRITE)

    def test_unknown_token(self, pki):
        store, *_ = pki
        with pytest.raises(AuthError):
            AccessController(store).authorize("fake", Role.READ)

    def test_no_challenge_outstanding(self, pki):
        store, _core, leaf_kp, cert = pki
        ac = AccessController(store)
        ac.grant("17-ffaa:1:e01", Role.WRITE)
        with pytest.raises(AuthError):
            ac.authenticate([cert], 123)


class TestSignedDocuments:
    def test_sign_and_verify(self):
        kp = keypair_from_seed(20, bits=256)
        verifier = SignedDocumentVerifier()
        verifier.register_writer("me", kp.public)
        doc = sign_document({"_id": 1, "v": 42}, "me", kp)
        verifier(doc)  # does not raise

    def test_tampering_detected(self):
        kp = keypair_from_seed(20, bits=256)
        verifier = SignedDocumentVerifier()
        verifier.register_writer("me", kp.public)
        doc = sign_document({"_id": 1, "v": 42}, "me", kp)
        doc["v"] = 43
        with pytest.raises(AuthError):
            verifier(doc)

    def test_unsigned_rejected(self):
        verifier = SignedDocumentVerifier()
        with pytest.raises(AuthError):
            verifier({"_id": 1})

    def test_unknown_writer_rejected(self):
        kp = keypair_from_seed(20, bits=256)
        verifier = SignedDocumentVerifier()
        doc = sign_document({"_id": 1}, "stranger", kp)
        with pytest.raises(AuthError):
            verifier(doc)

    def test_collection_validator_integration(self):
        kp = keypair_from_seed(20, bits=256)
        verifier = SignedDocumentVerifier()
        verifier.register_writer("suite", kp.public)
        client = DocDBClient()
        coll = client["upin"]["paths_stats"]
        coll.validator = verifier
        coll.insert_one(sign_document({"_id": "2_15_1", "lat": 42.0}, "suite", kp))
        with pytest.raises(AuthError):
            coll.insert_one({"_id": "2_15_2", "lat": 41.0})
        assert len(coll) == 1

    def test_resigning_replaces_signature(self):
        kp = keypair_from_seed(20, bits=256)
        doc = sign_document({"_id": 1, "v": 1}, "me", kp)
        doc2 = sign_document({**doc, "v": 2}, "me", kp)
        verifier = SignedDocumentVerifier()
        verifier.register_writer("me", kp.public)
        verifier(doc2)

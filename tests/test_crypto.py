"""Tests for the simulation-grade PKI (repro.crypto)."""

import numpy as np
import pytest

from repro.crypto.certs import issue_certificate, self_signed, verify_chain
from repro.crypto.primes import generate_prime, is_probable_prime
from repro.crypto.rsa import (
    RSAKeyPair,
    RSAPublicKey,
    keypair_from_seed,
    sign,
    verify,
)
from repro.crypto.trc import TRC, TrustStore
from repro.errors import CertificateError, ValidationError


@pytest.fixture(scope="module")
def core_kp():
    return keypair_from_seed(1, bits=256)


@pytest.fixture(scope="module")
def leaf_kp():
    return keypair_from_seed(2, bits=256)


class TestPrimes:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 97, 7919, 104729])
    def test_known_primes(self, p):
        assert is_probable_prime(p)

    @pytest.mark.parametrize("n", [0, 1, 4, 100, 7917, 104730, 561, 41041])
    def test_known_composites(self, n):
        # 561 and 41041 are Carmichael numbers — Fermat liars.
        assert not is_probable_prime(n)

    def test_generate_prime_bit_length(self):
        rng = np.random.default_rng(0)
        p = generate_prime(96, rng)
        assert p.bit_length() == 96
        assert is_probable_prime(p)

    def test_generate_prime_odd(self):
        rng = np.random.default_rng(1)
        assert generate_prime(64, rng) % 2 == 1

    def test_generate_prime_deterministic(self):
        a = generate_prime(64, np.random.default_rng(5))
        b = generate_prime(64, np.random.default_rng(5))
        assert a == b

    def test_rejects_tiny_sizes(self):
        with pytest.raises(ValidationError):
            generate_prime(4, np.random.default_rng(0))


class TestRSA:
    def test_sign_verify_roundtrip(self, leaf_kp):
        sig = sign(leaf_kp, b"hello scion")
        assert verify(leaf_kp.public, b"hello scion", sig)

    def test_tampered_message_fails(self, leaf_kp):
        sig = sign(leaf_kp, b"hello scion")
        assert not verify(leaf_kp.public, b"hello scionX", sig)

    def test_wrong_key_fails(self, leaf_kp, core_kp):
        sig = sign(leaf_kp, b"msg")
        assert not verify(core_kp.public, b"msg", sig)

    def test_signature_out_of_range_rejected(self, leaf_kp):
        assert not verify(leaf_kp.public, b"msg", leaf_kp.public.n + 1)
        assert not verify(leaf_kp.public, b"msg", -1)

    def test_keygen_deterministic_from_seed(self):
        assert keypair_from_seed(9, bits=256).public == keypair_from_seed(
            9, bits=256
        ).public

    def test_public_key_serialization_roundtrip(self, leaf_kp):
        data = leaf_kp.public.to_dict()
        assert RSAPublicKey.from_dict(data) == leaf_kp.public

    def test_fingerprint_stable_and_short(self, leaf_kp):
        fp = leaf_kp.public.fingerprint()
        assert fp == leaf_kp.public.fingerprint()
        assert len(fp) == 16

    def test_keypair_sign_method(self, leaf_kp):
        assert verify(leaf_kp.public, b"x", leaf_kp.sign(b"x"))


class TestCertificates:
    def test_issue_and_verify(self, core_kp, leaf_kp):
        cert = issue_certificate("core", core_kp, "leaf", leaf_kp.public)
        assert cert.verify_with(core_kp.public)

    def test_tampered_subject_fails(self, core_kp, leaf_kp):
        cert = issue_certificate("core", core_kp, "leaf", leaf_kp.public)
        from dataclasses import replace

        forged = replace(cert, subject="other")
        assert not forged.verify_with(core_kp.public)

    def test_self_signed_root(self, core_kp):
        root = self_signed("core", core_kp)
        assert root.subject == root.issuer == "core"
        assert root.verify_with(core_kp.public)

    def test_serialization_roundtrip(self, core_kp, leaf_kp):
        from repro.crypto.certs import Certificate

        cert = issue_certificate("core", core_kp, "leaf", leaf_kp.public, serial=7)
        again = Certificate.from_dict(cert.to_dict())
        assert again.payload() == cert.payload()
        assert again.signature == cert.signature

    def test_chain_verifies_against_root(self, core_kp, leaf_kp):
        cert = issue_certificate("core", core_kp, "leaf", leaf_kp.public)
        key = verify_chain([cert], {"core": core_kp.public})
        assert key == leaf_kp.public

    def test_chain_with_intermediate(self, core_kp, leaf_kp):
        inter_kp = keypair_from_seed(3, bits=256)
        inter_cert = issue_certificate("core", core_kp, "inter", inter_kp.public)
        leaf_cert = issue_certificate("inter", inter_kp, "leaf", leaf_kp.public)
        key = verify_chain([leaf_cert, inter_cert], {"core": core_kp.public})
        assert key == leaf_kp.public

    def test_untrusted_root_rejected(self, core_kp, leaf_kp):
        cert = issue_certificate("core", core_kp, "leaf", leaf_kp.public)
        with pytest.raises(CertificateError):
            verify_chain([cert], {"other-root": leaf_kp.public})

    def test_broken_chain_rejected(self, core_kp, leaf_kp):
        inter_kp = keypair_from_seed(3, bits=256)
        leaf_cert = issue_certificate("inter", inter_kp, "leaf", leaf_kp.public)
        unrelated = issue_certificate("core", core_kp, "someone", core_kp.public)
        with pytest.raises(CertificateError):
            verify_chain([leaf_cert, unrelated], {"core": core_kp.public})

    def test_empty_chain_rejected(self):
        with pytest.raises(CertificateError):
            verify_chain([], {})

    def test_expiry_epoch_enforced(self, core_kp, leaf_kp):
        cert = issue_certificate(
            "core", core_kp, "leaf", leaf_kp.public, not_before=5, not_after=10
        )
        verify_chain([cert], {"core": core_kp.public}, epoch=7)
        with pytest.raises(CertificateError):
            verify_chain([cert], {"core": core_kp.public}, epoch=11)


class TestTrustStore:
    def test_trc_roundtrip(self, core_kp):
        trc = TRC(isd=17, version=2, core_keys={"core": core_kp.public})
        again = TRC.from_dict(trc.to_dict())
        assert again.core_keys["core"] == core_kp.public
        assert again.isd == 17 and again.version == 2

    def test_newer_trc_replaces_older(self, core_kp, leaf_kp):
        store = TrustStore()
        store.add_trc(TRC(isd=1, version=1, core_keys={"a": core_kp.public}))
        store.add_trc(TRC(isd=1, version=2, core_keys={"b": leaf_kp.public}))
        assert store.trc_for(1).version == 2
        assert "b" in store.trusted_roots(1)

    def test_older_trc_ignored(self, core_kp, leaf_kp):
        store = TrustStore()
        store.add_trc(TRC(isd=1, version=2, core_keys={"b": leaf_kp.public}))
        store.add_trc(TRC(isd=1, version=1, core_keys={"a": core_kp.public}))
        assert store.trc_for(1).version == 2

    def test_missing_isd_raises(self):
        with pytest.raises(CertificateError):
            TrustStore().trc_for(99)

    def test_verify_certificate_via_store(self, core_kp, leaf_kp):
        store = TrustStore(
            [TRC(isd=17, version=1, core_keys={"core": core_kp.public})]
        )
        cert = issue_certificate("core", core_kp, "leaf", leaf_kp.public)
        assert store.verify_certificate([cert]) == leaf_kp.public

    def test_isds_listing(self, core_kp):
        store = TrustStore(
            [
                TRC(isd=17, version=1, core_keys={"a": core_kp.public}),
                TRC(isd=19, version=1, core_keys={"b": core_kp.public}),
            ]
        )
        assert store.isds() == [17, 19]

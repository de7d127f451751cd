"""Textbook RSA signatures over SHA-256 digests (simulation grade).

Signing computes ``sig = H(m)^d mod n``; verification checks
``sig^e mod n == H(m)``.  There is no padding — this is intentionally the
simplest construction that still gives the library *real* asymmetric
verification semantics for certificate chains and database write
authentication.  Never use for actual security.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from repro.crypto.primes import generate_prime
from repro.errors import CryptoError

DEFAULT_MODULUS_BITS = 512
_PUBLIC_EXPONENT = 65537


def _digest_int(message: bytes, modulus: int) -> int:
    """SHA-256 digest of ``message`` reduced below the modulus."""
    return int.from_bytes(hashlib.sha256(message).digest(), "big") % modulus


@dataclass(frozen=True)
class RSAPublicKey:
    """The public half: modulus ``n`` and exponent ``e``."""

    n: int
    e: int = _PUBLIC_EXPONENT

    def fingerprint(self) -> str:
        """Short stable identifier for the key (hex SHA-256 prefix)."""
        raw = self.n.to_bytes((self.n.bit_length() + 7) // 8, "big")
        return hashlib.sha256(raw).hexdigest()[:16]

    def to_dict(self) -> dict:
        return {"n": hex(self.n), "e": self.e}

    @classmethod
    def from_dict(cls, data: dict) -> "RSAPublicKey":
        return cls(n=int(data["n"], 16), e=int(data["e"]))


@dataclass(frozen=True)
class RSAKeyPair:
    """A full RSA key pair.  Only :attr:`public` should ever leave a host."""

    public: RSAPublicKey
    d: int  # private exponent

    @classmethod
    def generate(
        cls,
        rng: np.random.Generator,
        *,
        bits: int = DEFAULT_MODULUS_BITS,
    ) -> "RSAKeyPair":
        """Generate a key pair deterministically from ``rng``."""
        half = bits // 2
        while True:
            p = generate_prime(half, rng)
            q = generate_prime(bits - half, rng)
            if p == q:
                continue
            n = p * q
            phi = (p - 1) * (q - 1)
            if math.gcd(_PUBLIC_EXPONENT, phi) != 1:
                continue
            d = pow(_PUBLIC_EXPONENT, -1, phi)
            return cls(public=RSAPublicKey(n=n, e=_PUBLIC_EXPONENT), d=d)

    def sign(self, message: bytes) -> int:
        return sign(self, message)


def sign(keypair: RSAKeyPair, message: bytes) -> int:
    """Sign ``message`` with the private exponent."""
    if not isinstance(message, (bytes, bytearray)):
        raise CryptoError(f"message must be bytes, got {type(message).__name__}")
    h = _digest_int(bytes(message), keypair.public.n)
    return pow(h, keypair.d, keypair.public.n)


def verify(public: RSAPublicKey, message: bytes, signature: int) -> bool:
    """Return True iff ``signature`` is valid for ``message`` under ``public``."""
    if not isinstance(signature, int) or not (0 <= signature < public.n):
        return False
    h = _digest_int(bytes(message), public.n)
    return pow(signature, public.e, public.n) == h


def keypair_from_seed(seed: int, *, bits: int = DEFAULT_MODULUS_BITS) -> RSAKeyPair:
    """Convenience: derive a key pair straight from an integer seed."""
    return RSAKeyPair.generate(np.random.default_rng(seed), bits=bits)

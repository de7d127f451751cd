"""Deterministic, hierarchically derived random-number streams.

Every stochastic component of the simulator (per-link jitter, cross
traffic, loss draws, congestion episodes, coordinator key generation)
pulls from its own named stream derived from a single root seed.  This
gives two properties the experiments need:

* **Reproducibility** — a world built with seed *s* always produces the
  same figures, regardless of the order measurements run in.
* **Independence under refactoring** — adding a new consumer does not
  perturb existing streams, because streams are keyed by stable names
  (``"link:19-ffaa:0:1301>19-ffaa:0:1303"``), not by draw order.

Seeds are derived with SHA-256 over ``root_seed || name`` (the standard
"seed sequence by hashing" construction), then fed to
:class:`numpy.random.Generator` (PCG64).
"""

from __future__ import annotations

import hashlib
import struct
from typing import Dict

import numpy as np


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from a root seed and a stable name."""
    h = hashlib.sha256()
    h.update(struct.pack("<Q", root_seed & 0xFFFFFFFFFFFFFFFF))
    h.update(name.encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "little")


class RngStreams:
    """A factory of named, independent :class:`numpy.random.Generator` s.

    >>> streams = RngStreams(42)
    >>> g1 = streams.get("link:a>b")
    >>> g2 = streams.get("link:a>b")
    >>> g1 is g2
    True
    """

    def __init__(self, root_seed: int) -> None:
        self.root_seed = int(root_seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        gen = self._streams.get(name)
        if gen is None:
            gen = np.random.default_rng(derive_seed(self.root_seed, name))
            self._streams[name] = gen
        return gen

    def fresh(self, name: str) -> np.random.Generator:
        """Return a *new* generator for ``name`` (reset to stream start)."""
        gen = np.random.default_rng(derive_seed(self.root_seed, name))
        self._streams[name] = gen
        return gen

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RngStreams(root_seed={self.root_seed}, streams={len(self._streams)})"

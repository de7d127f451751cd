"""Databases: named collections plus lifecycle operations."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.docdb.collection import Collection
from repro.docdb.wal import OP_DROP_COLLECTION, WalWriter
from repro.errors import DocDBError


class Database:
    """A named set of collections, created lazily on first access.

    When the owning :class:`~repro.docdb.client.DocDBClient` is opened
    durable, :meth:`attach_wal` wires every collection (existing and
    future) to the shared :class:`~repro.docdb.wal.WalWriter`, so
    mutating operations journal themselves — no caller-side
    ``journal.append`` bookkeeping anywhere.
    """

    def __init__(self, name: str, *, wal: Optional[WalWriter] = None) -> None:
        self.name = name
        self._collections: Dict[str, Collection] = {}
        self._wal: Optional[WalWriter] = wal

    # -- durability ----------------------------------------------------------

    def attach_wal(self, wal: Optional[WalWriter]) -> None:
        """Route this database's writes through ``wal`` (None detaches)."""
        self._wal = wal
        for name, coll in self._collections.items():
            coll._wal_sink = self._make_sink(name) if wal is not None else None

    def _make_sink(self, coll_name: str):
        def sink(op: str, payload: Dict) -> None:
            assert self._wal is not None
            self._wal.append(op, self.name, coll_name, payload)

        return sink

    # -- collections ---------------------------------------------------------

    def collection(self, name: str) -> Collection:
        if not name or name.startswith("$"):
            raise DocDBError(f"invalid collection name: {name!r}")
        coll = self._collections.get(name)
        if coll is None:
            coll = Collection(name)
            if self._wal is not None:
                coll._wal_sink = self._make_sink(name)
            self._collections[name] = coll
        return coll

    __getitem__ = collection

    def list_collection_names(self) -> List[str]:
        return sorted(self._collections)

    def drop_collection(self, name: str) -> None:
        if self._collections.pop(name, None) is not None and self._wal is not None:
            self._wal.append(OP_DROP_COLLECTION, self.name, name, {})

    def __contains__(self, name: str) -> bool:
        return name in self._collections

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Database({self.name!r}, collections={self.list_collection_names()})"

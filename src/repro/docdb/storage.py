"""The checkpoint-generation file format: one JSONL file per collection.

:class:`JsonlStore` writes and reads the files of one snapshot
generation (``<dir>/snapshots/gen-<lsn>/``), one
``<db>.<collection>.jsonl`` file per collection.  Only
:mod:`repro.docdb.recovery` uses it: :func:`~repro.docdb.recovery.
run_checkpoint` writes each generation into a fresh directory, and
recovery loads the generation that ``CHECKPOINT`` names.  Database
names must not contain ``.`` (the separator between database and
collection in the filename); dotted names are rejected with
:class:`~repro.errors.StorageError` instead of silently corrupting
``list_databases()``.

Durability between checkpoints comes from the checksummed segmented WAL
(:mod:`repro.docdb.wal`) — see docs/STORAGE.md.  It closes the §4.2.2
trade-off (batched inserts risk losing a destination's worth of
samples on a crash): one batch is one atomic WAL record.
"""
from __future__ import annotations

import json
import os
from typing import List

from repro.docdb.database import Database
from repro.errors import StorageError

_SNAPSHOT_SUFFIX = ".jsonl"


class JsonlStore:
    """Reads and writes one snapshot generation of whole databases."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    @staticmethod
    def _check_db_name(db_name: str) -> None:
        """Dotted database names would corrupt the ``<db>.<coll>.jsonl``
        filename scheme (``list_databases`` splits on the first dot)."""
        if "." in db_name:
            raise StorageError(
                f"database name {db_name!r} must not contain '.' "
                f"(reserved as the db/collection separator in snapshot "
                f"filenames)"
            )

    def _path(self, db_name: str, coll_name: str) -> str:
        return os.path.join(self.directory, f"{db_name}.{coll_name}{_SNAPSHOT_SUFFIX}")

    def save_database(self, db: Database) -> None:
        self._check_db_name(db.name)
        for coll_name in db.list_collection_names():
            coll = db.collection(coll_name)
            tmp = self._path(db.name, coll_name) + ".tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                # Persist full index *specs* (not just names) so compound
                # indexes rebuild with their field order intact.
                index_specs = [
                    {
                        "name": name,
                        "fields": [[f, d] for f, d in info["fields"]],
                        "unique": info["unique"],
                    }
                    for name, info in coll.index_information().items()
                ]
                header = {"__meta__": {"indexes": index_specs}}
                fh.write(json.dumps(header, sort_keys=True) + "\n")
                for doc in coll.all_documents():
                    fh.write(json.dumps(doc, sort_keys=True) + "\n")
            os.replace(tmp, self._path(db.name, coll_name))

    def list_databases(self) -> List[str]:
        names = set()
        for fname in os.listdir(self.directory):
            if fname.endswith(_SNAPSHOT_SUFFIX):
                names.add(fname.split(".", 1)[0])
        return sorted(names)

    def _collections_of(self, db_name: str) -> List[str]:
        out = []
        prefix = f"{db_name}."
        for fname in os.listdir(self.directory):
            if fname.startswith(prefix) and fname.endswith(_SNAPSHOT_SUFFIX):
                out.append(fname[len(prefix): -len(_SNAPSHOT_SUFFIX)])
        return sorted(out)

    def load_database(self, db: Database) -> None:
        self._check_db_name(db.name)
        for coll_name in self._collections_of(db.name):
            coll = db.collection(coll_name)
            path = self._path(db.name, coll_name)
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    lines = fh.read().splitlines()
            except OSError as exc:
                raise StorageError(f"cannot read snapshot {path}: {exc}") from exc
            if not lines:
                continue
            try:
                header = json.loads(lines[0])
            except json.JSONDecodeError as exc:
                raise StorageError(f"corrupt snapshot header in {path}") from exc
            docs = []
            for i, line in enumerate(lines[1:], start=2):
                if not line.strip():
                    continue
                try:
                    docs.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    raise StorageError(
                        f"corrupt snapshot line {i} in {path}"
                    ) from exc
            if docs:
                # Trusted bulk load: the dicts are fresh json.loads
                # output, so the defensive deep-copy is skipped.
                coll.load_documents(docs)
            for spec in header.get("__meta__", {}).get("indexes", []):
                coll.create_index(
                    [(f, int(d)) for f, d in spec["fields"]],
                    unique=bool(spec.get("unique", False)),
                )

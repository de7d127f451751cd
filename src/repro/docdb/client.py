"""Top-level client facade, shaped like ``pymongo.MongoClient``.

The test-suite scripts of the paper talk to MongoDB through a client
object; keeping the same shape (``client[db][collection]``) means the
reproduction's suite code reads like the original scripts.

``DocDBClient()`` is a volatile in-memory store.  The one persistence
mechanism is :meth:`DocDBClient.open`: it recovers the directory
(checkpoint generation + WAL replay) and attaches a segmented,
checksummed write-ahead log so every mutating operation journals itself
automatically.  ``checkpoint()`` / ``compact()`` bound WAL growth;
``close()`` seals the log.  The store is single-threaded: it takes no
locks, and one thread owns a client at a time.  See docs/STORAGE.md.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional

from repro.docdb.database import Database
from repro.docdb.wal import OP_DROP_DATABASE, WalWriter


class DocDBClient:
    """An in-process document-database server handle."""

    def __init__(self) -> None:
        self._databases: Dict[str, Database] = {}
        #: Durable-mode state (None/absent when volatile).
        self._wal: Optional[WalWriter] = None
        self._durable_dir: Optional[str] = None
        self.recovery_report: Optional[Any] = None
        self._compactions = 0
        self._checkpoints = 0
        self._segments_removed = 0
        self._generations_removed = 0

    # -- durable mode ------------------------------------------------------------

    @classmethod
    def open(
        cls,
        directory: str,
        *,
        fsync: str = "batch",
        segment_bytes: int = 1 << 20,
        batch_every: int = 64,
    ) -> "DocDBClient":
        """Open (and recover) a durable database rooted at ``directory``.

        Runs :class:`~repro.docdb.recovery.RecoveryManager` — latest
        snapshot generation + WAL replay above the checkpoint, torn
        tail rolled back, indexes rebuilt, cache epochs bumped — then
        attaches a :class:`~repro.docdb.wal.WalWriter` continuing at
        the next LSN.  Every subsequent mutating operation on any
        collection of this client is journalled automatically.
        """
        from repro.docdb.recovery import WAL_DIR, RecoveryManager

        client, report = RecoveryManager(directory).recover()
        wal = WalWriter(
            os.path.join(directory, WAL_DIR),
            start_lsn=report.last_lsn + 1,
            fsync=fsync,
            segment_bytes=segment_bytes,
            batch_every=batch_every,
        )
        client._durable_dir = directory
        client.recovery_report = report
        client._attach_wal(wal)
        return client

    def _attach_wal(self, wal: Optional[WalWriter]) -> None:
        self._wal = wal
        for db in self._databases.values():
            db.attach_wal(wal)

    @property
    def wal(self) -> Optional[WalWriter]:
        """The attached WAL writer (None in volatile mode)."""
        return self._wal

    @property
    def durable_dir(self) -> Optional[str]:
        return self._durable_dir

    @property
    def is_durable(self) -> bool:
        return self._wal is not None

    def checkpoint(self) -> Any:
        """Snapshot + flip CHECKPOINT + GC old generations/segments.

        Returns a :class:`~repro.docdb.recovery.CheckpointResult`.  Call
        from a quiesced point (between campaign rounds); see
        :func:`repro.docdb.recovery.run_checkpoint`.
        """
        from repro.docdb.recovery import run_checkpoint

        result = run_checkpoint(self)
        if not result.skipped:
            self._checkpoints += 1
        self._segments_removed += result.segments_removed
        self._generations_removed += result.generations_removed
        return result

    def compact(self) -> Any:
        """Compaction: checkpoint only if the WAL grew.

        Cheap when idle (pure GC), a full checkpoint otherwise — this is
        the hook the monitoring scheduler calls between rounds.
        """
        self._compactions += 1
        return self.checkpoint()

    def compaction_hook(self, *, every: int = 1):
        """A ``MonitoringScheduler.add_round_hook``-compatible callable.

        Runs :meth:`compact` every ``every`` finished rounds, keeping
        WAL growth bounded during continuous monitoring without any
        caller-side persistence bookkeeping.
        """
        if every < 1:
            raise ValueError("compaction interval must be >= 1")
        counter = {"rounds": 0}

        def hook(_record: Any) -> None:
            counter["rounds"] += 1
            if counter["rounds"] % every == 0:
                self.compact()

        return hook

    def close(self) -> None:
        """Seal the WAL (flush + fsync) and detach it."""
        if self._wal is not None:
            self._wal.close()
            self._attach_wal(None)

    def __enter__(self) -> "DocDBClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def wal_stats(self) -> Dict[str, Any]:
        """JSON-friendly durability counters (empty dict when volatile).

        Folded into the suite CLI's ``--metrics`` output by
        :func:`repro.suite.metrics.wal_stats_snapshot`.
        """
        wal = self._wal
        if wal is None:
            return {}
        from repro.docdb.recovery import read_checkpoint

        assert self._durable_dir is not None
        checkpoint = read_checkpoint(self._durable_dir)
        report = self.recovery_report
        return {
            "fsync_policy": wal.fsync_policy,
            "last_lsn": wal.last_lsn,
            "checkpoint_lsn": checkpoint.checkpoint_lsn,
            "segments": wal.segment_count(),
            "checkpoints": self._checkpoints,
            "compactions": self._compactions,
            "segments_removed": self._segments_removed,
            "generations_removed": self._generations_removed,
            "records_replayed": (
                report.records_replayed if report is not None else 0
            ),
            "torn_bytes_truncated": (
                report.torn_bytes_truncated if report is not None else 0
            ),
            **wal.stats,
        }

    # -- databases ---------------------------------------------------------------

    def database(self, name: str) -> Database:
        db = self._databases.get(name)
        if db is None:
            db = Database(name, wal=self._wal)
            self._databases[name] = db
        return db

    __getitem__ = database

    def list_database_names(self) -> List[str]:
        return sorted(self._databases)

    def drop_database(self, name: str) -> None:
        if self._databases.pop(name, None) is not None and self._wal is not None:
            self._wal.append(OP_DROP_DATABASE, name, None, {})

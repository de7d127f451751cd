"""Crash recovery: checkpoints, snapshot generations, WAL replay.

Durable-directory layout (see docs/STORAGE.md for the full lifecycle)::

    <dir>/
      CHECKPOINT                  atomically-replaced JSON pointer:
                                  {"checkpoint_lsn": N, "generation": "gen-..."}
      snapshots/gen-<lsn>/        one JSONL snapshot generation per
                                  checkpoint (``JsonlStore`` files)
      wal/wal-<start-lsn>.log     checksummed WAL segments

The commit protocol makes every step crash-safe:

1. a **checkpoint** writes a *new* generation directory (never touching
   the previous one), then atomically replaces ``CHECKPOINT`` — the
   flip is the commit point; a crash anywhere before it leaves the old
   checkpoint fully intact;
2. only after the flip are older generations and WAL segments at or
   below the checkpoint LSN garbage-collected — a crash mid-GC leaves
   harmless extra files that the next checkpoint removes;
3. **recovery** loads the generation named by ``CHECKPOINT``, then
   replays every WAL record with LSN above the checkpoint, verifying
   checksums and LSN continuity as it goes.  A torn tail (writer died
   mid-record) is truncated; interior corruption raises
   :class:`~repro.errors.WalCorruptionError` naming the LSN.

Recovery is idempotent: recovering twice yields byte-identical state,
because replay is a pure function of the on-disk bytes and the only
mutation (torn-tail truncation) is itself idempotent.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.docdb.storage import JsonlStore
from repro.docdb.wal import (
    OP_CREATE_INDEX,
    OP_DELETE,
    OP_DROP_COLLECTION,
    OP_DROP_DATABASE,
    OP_DROP_INDEX,
    OP_INSERT,
    OP_INSERT_MANY,
    OP_UPDATE,
    WalRecord,
    list_segments,
    read_segment,
)
from repro.errors import StorageError, WalCorruptionError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.docdb.client import DocDBClient

#: Names inside a durable directory.
CHECKPOINT_FILE = "CHECKPOINT"
SNAPSHOT_DIR = "snapshots"
WAL_DIR = "wal"
_GEN_PREFIX = "gen-"


def generation_name(checkpoint_lsn: int) -> str:
    return f"{_GEN_PREFIX}{checkpoint_lsn:016d}"


# -- checkpoint pointer ------------------------------------------------------


@dataclass(frozen=True)
class Checkpoint:
    """The durable checkpoint pointer (LSN + snapshot generation)."""

    checkpoint_lsn: int = 0
    generation: Optional[str] = None


def read_checkpoint(directory: str) -> Checkpoint:
    """Parse ``<dir>/CHECKPOINT`` (missing file = the zero checkpoint)."""
    path = os.path.join(directory, CHECKPOINT_FILE)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except FileNotFoundError:
        return Checkpoint()
    try:
        doc = json.loads(raw)
        lsn = int(doc["checkpoint_lsn"])
        generation = doc.get("generation")
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise StorageError(f"corrupt checkpoint file {path}: {exc}") from exc
    if lsn < 0:
        raise StorageError(f"corrupt checkpoint file {path}: negative LSN")
    return Checkpoint(checkpoint_lsn=lsn, generation=generation)


def write_checkpoint(directory: str, checkpoint: Checkpoint) -> None:
    """Atomically replace the checkpoint pointer (tmp + fsync + rename)."""
    path = os.path.join(directory, CHECKPOINT_FILE)
    tmp = path + ".tmp"
    payload = json.dumps(
        {
            "checkpoint_lsn": checkpoint.checkpoint_lsn,
            "generation": checkpoint.generation,
            "version": 1,
        },
        sort_keys=True,
    )
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(payload + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def list_generations(directory: str) -> List[str]:
    """Snapshot generation directory names, oldest first."""
    snap_root = os.path.join(directory, SNAPSHOT_DIR)
    try:
        names = os.listdir(snap_root)
    except FileNotFoundError:
        return []
    return sorted(n for n in names if n.startswith(_GEN_PREFIX))


def remove_stale_generations(directory: str, keep: Optional[str]) -> int:
    """Delete every snapshot generation except ``keep``; returns count."""
    removed = 0
    for name in list_generations(directory):
        if name == keep:
            continue
        shutil.rmtree(os.path.join(directory, SNAPSHOT_DIR, name))
        removed += 1
    return removed


# -- recovery ----------------------------------------------------------------


@dataclass
class RecoveryReport:
    """What :class:`RecoveryManager.recover` found and did."""

    directory: str
    checkpoint_lsn: int = 0
    generation: Optional[str] = None
    last_lsn: int = 0
    records_replayed: int = 0
    segments_scanned: int = 0
    torn_bytes_truncated: int = 0


class RecoveryManager:
    """Rebuilds a consistent :class:`DocDBClient` from a durable directory.

    ``recover()`` is safe to call on an empty directory (yields an empty
    client), after a clean shutdown, and after any crash the WAL design
    covers (torn record, mid-batch kill, post-rotation pre-checkpoint).
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory

    # -- public API ----------------------------------------------------------

    def recover(self) -> Tuple["DocDBClient", RecoveryReport]:
        """Load snapshot + replay WAL; returns (client, report).

        The returned client is *volatile* (no WAL attached) — the caller
        (:meth:`DocDBClient.open`) attaches a fresh
        :class:`~repro.docdb.wal.WalWriter` continuing at
        ``report.last_lsn + 1``.
        """
        from repro.docdb.client import DocDBClient

        os.makedirs(self.directory, exist_ok=True)
        checkpoint = read_checkpoint(self.directory)
        if checkpoint.generation is None:
            self._refuse_old_layout()
        report = RecoveryReport(
            directory=self.directory,
            checkpoint_lsn=checkpoint.checkpoint_lsn,
            generation=checkpoint.generation,
            last_lsn=checkpoint.checkpoint_lsn,
        )

        client = DocDBClient()
        if checkpoint.generation is not None:
            gen_dir = os.path.join(
                self.directory, SNAPSHOT_DIR, checkpoint.generation
            )
            if not os.path.isdir(gen_dir):
                raise StorageError(
                    f"checkpoint names missing snapshot generation "
                    f"{checkpoint.generation!r} under {self.directory}"
                )
            store = JsonlStore(gen_dir)
            for db_name in store.list_databases():
                store.load_database(client.database(db_name))

        self._replay_wal(client, checkpoint.checkpoint_lsn, report)
        self._rebuild_caches(client)
        return client, report

    def _refuse_old_layout(self) -> None:
        """Raise on ``<db>.<coll>.jsonl`` files at the top level.

        That is the layout of the removed snapshot mode.  Opening such a
        directory empty would let the next checkpoint hide its data.
        """
        stale = sorted(
            name for name in os.listdir(self.directory) if name.endswith(".jsonl")
        )
        if stale:
            raise StorageError(
                f"{self.directory} holds a snapshot in the old layout "
                f"({stale[0]}) and no checkpoint; refusing to open it empty"
            )

    # -- WAL replay ----------------------------------------------------------

    def _replay_wal(
        self, client: "DocDBClient", checkpoint_lsn: int, report: RecoveryReport
    ) -> None:
        wal_dir = os.path.join(self.directory, WAL_DIR)
        segments = list_segments(wal_dir)
        if not segments:
            return
        first_start = segments[0][0]
        if first_start > checkpoint_lsn + 1:
            raise WalCorruptionError(
                f"WAL gap: checkpoint lsn {checkpoint_lsn} but the oldest "
                f"segment starts at lsn {first_start} — records "
                f"{checkpoint_lsn + 1}..{first_start - 1} are missing",
                lsn=checkpoint_lsn + 1,
            )
        expected_start = first_start
        for i, (start_lsn, path) in enumerate(segments):
            if start_lsn != expected_start:
                raise WalCorruptionError(
                    f"WAL gap between segments: expected a segment starting "
                    f"at lsn {expected_start}, found "
                    f"{os.path.basename(path)}",
                    lsn=expected_start,
                )
            is_last = i == len(segments) - 1
            scan = read_segment(path, start_lsn, is_last=is_last)
            report.segments_scanned += 1
            for record in scan.records:
                if record.lsn <= checkpoint_lsn:
                    continue  # pre-GC leftovers at or below the checkpoint
                self._apply(client, record)
                report.records_replayed += 1
                report.last_lsn = record.lsn
            if scan.torn_at is not None:
                # Roll the un-committed tail back on disk so the next
                # writer/recovery sees a clean log (idempotent).
                with open(path, "r+b") as fh:
                    fh.truncate(scan.torn_at)
                    fh.flush()
                    os.fsync(fh.fileno())
                report.torn_bytes_truncated += scan.torn_bytes
            expected_start = start_lsn + len(scan.records)

    @staticmethod
    def _apply(client: "DocDBClient", record: WalRecord) -> None:
        """Re-apply one logged operation (WAL detached, so no re-logging)."""
        if record.op == OP_DROP_DATABASE:
            client.drop_database(record.db)
            return
        db = client.database(record.db)
        if record.op == OP_DROP_COLLECTION:
            db.drop_collection(record.coll or "")
            return
        coll = db.collection(record.coll or "")
        payload = record.payload
        if record.op == OP_INSERT:
            # load_documents: same semantics, minus the defensive
            # deep-copy (the payload is fresh json.loads output).
            coll.load_documents([payload["document"]])
        elif record.op == OP_INSERT_MANY:
            coll.load_documents(payload["documents"])
        elif record.op == OP_UPDATE:
            coll.replay_update(payload["docs"])
        elif record.op == OP_DELETE:
            coll.replay_delete(payload["ids"])
        elif record.op == OP_CREATE_INDEX:
            coll.create_index(
                [(f, int(d)) for f, d in payload["fields"]],
                unique=bool(payload.get("unique", False)),
            )
        elif record.op == OP_DROP_INDEX:
            coll.drop_index(payload["name"])
        else:  # pragma: no cover - encode/scan already reject unknown ops
            raise StorageError(f"cannot replay unknown WAL op {record.op!r}")

    # -- post-replay consistency ---------------------------------------------

    @staticmethod
    def _rebuild_caches(client: "DocDBClient") -> None:
        """Bump every epoch and drop caches: planner state is rebuilt.

        Replay already rebuilt the indexes (snapshot headers + replayed
        ``create_index`` records); the final epoch bump guarantees no
        pre-crash cached answer — in this process or a snapshot-carried
        one — can ever be served against recovered state.
        """
        for db_name in client.list_database_names():
            db = client.database(db_name)
            for coll_name in db.list_collection_names():
                coll = db[coll_name]
                coll.cache.clear()
                coll._bump_epoch()


# -- checkpoint / compaction -------------------------------------------------


@dataclass(frozen=True)
class CheckpointResult:
    """Outcome of one checkpoint/compaction pass."""

    checkpoint_lsn: int
    generation: Optional[str]
    skipped: bool
    segments_removed: int = 0
    generations_removed: int = 0


def run_checkpoint(client: "DocDBClient") -> CheckpointResult:
    """Snapshot ``client`` and advance its checkpoint (durable mode only).

    Protocol (each step crash-safe, see module docstring): sync the WAL,
    write a fresh snapshot generation, atomically flip ``CHECKPOINT``,
    then garbage-collect older generations and fully-covered WAL
    segments.  When nothing was written since the last checkpoint the
    pass degenerates to pure GC (``skipped=True``).

    Not safe against *concurrent writers*: call it from a quiesced
    point, such as between monitoring rounds or at campaign teardown
    (the suite CLI checkpoints once, before it closes the client).
    """
    wal = client.wal
    directory = client.durable_dir
    if wal is None or directory is None:
        raise StorageError("checkpoint requires a durable client (DocDBClient.open)")
    lsn = wal.sync()
    current = read_checkpoint(directory)
    if lsn == current.checkpoint_lsn and current.generation is not None:
        # Nothing new to persist; just clean up pre-crash leftovers.
        gens = remove_stale_generations(directory, current.generation)
        segs = wal.remove_segments_below(current.checkpoint_lsn)
        return CheckpointResult(
            checkpoint_lsn=lsn,
            generation=current.generation,
            skipped=True,
            segments_removed=segs,
            generations_removed=gens,
        )
    generation = generation_name(lsn)
    gen_dir = os.path.join(directory, SNAPSHOT_DIR, generation)
    if os.path.isdir(gen_dir):
        # Leftover from a checkpoint that crashed before the CHECKPOINT
        # flip: never the live generation (that case returned above).
        shutil.rmtree(gen_dir)
    store = JsonlStore(gen_dir)
    for db_name in client.list_database_names():
        store.save_database(client.database(db_name))
    write_checkpoint(
        directory, Checkpoint(checkpoint_lsn=lsn, generation=generation)
    )
    generations_removed = remove_stale_generations(directory, generation)
    # Seal the current segment so it becomes GC-able too: everything in
    # it is now covered by the snapshot, and the next recovery should
    # not have to scan-and-skip pre-checkpoint records.
    wal.rotate_if_dirty()
    segments_removed = wal.remove_segments_below(lsn)
    return CheckpointResult(
        checkpoint_lsn=lsn,
        generation=generation,
        skipped=False,
        segments_removed=segments_removed,
        generations_removed=generations_removed,
    )

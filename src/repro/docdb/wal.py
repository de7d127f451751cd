"""Segmented, checksummed write-ahead log (WAL).

The paper's §4.2.2 batches one destination's measurements into a single
``insert_many`` precisely to bound what a crash can lose.  This module
makes that bound *provable*: every mutating operation a durable
:class:`~repro.docdb.client.DocDBClient` performs is appended here as
one length-prefixed, CRC32-checksummed record **before** the operation
is considered committed.  Recovery (:mod:`repro.docdb.recovery`)
replays the records above the last checkpoint; a batch whose record is
torn mid-write is rolled back wholesale — all-or-nothing, exactly the
§4.2.2 contract.

Record wire format (little-endian)::

    +----------------+----------------+----------------------------+
    |  length (u32)  |  crc32 (u32)   |  payload (length bytes)    |
    +----------------+----------------+----------------------------+

``payload`` is UTF-8 JSON::

    {"lsn": 17, "op": "insert_many", "db": "upin",
     "coll": "paths_stats", "payload": {...}}

The CRC covers the payload bytes only; the length prefix tells the
reader how much to check.  Three disk states are distinguished:

* **clean** — every record checks out;
* **torn tail** — the *last* record of the *last* segment has fewer
  bytes than its length prefix announces (the writer died mid-write):
  recovery truncates it and rolls the un-committed operation back;
* **interior corruption** — a size-complete record whose CRC (or LSN
  continuity) fails anywhere, or an incomplete record that is *not*
  the final one: raised as :class:`~repro.errors.WalCorruptionError`
  naming the LSN — never silently skipped.

Segments are files named ``wal-<start-lsn>.log``.  The writer rotates
to a fresh segment once the current one crosses ``segment_bytes``;
checkpointing (:meth:`DocDBClient.checkpoint`) garbage-collects the
segments whose every record is at or below the checkpoint LSN.

``fsync`` policies (the durability/throughput trade-off table in
``docs/STORAGE.md``):

``always``   flush + ``os.fsync`` after every record — survives power
             loss, slowest.
``batch``    flush to the OS after every record, ``fsync`` every
             ``batch_every`` records and on rotation/close — survives
             process crashes (``kill -9``), bounded power-loss window.
``never``    flush to the OS only — survives process crashes, no
             power-loss guarantee, fastest.
"""

from __future__ import annotations

import json
import os
import re
import struct
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import StorageError, WalCorruptionError

# -- record format ----------------------------------------------------------

_HEADER = struct.Struct("<II")  # payload length, crc32(payload)
HEADER_BYTES = _HEADER.size

#: WAL operation constants (documented in docs/STORAGE.md).
OP_INSERT = "insert"
OP_INSERT_MANY = "insert_many"
OP_UPDATE = "update"
OP_DELETE = "delete"
OP_CREATE_INDEX = "create_index"
OP_DROP_INDEX = "drop_index"
OP_DROP_COLLECTION = "drop_collection"
OP_DROP_DATABASE = "drop_database"

#: Every op a WAL record may carry (diff-tested against docs/STORAGE.md).
WAL_OPS = frozenset(
    {
        OP_INSERT,
        OP_INSERT_MANY,
        OP_UPDATE,
        OP_DELETE,
        OP_CREATE_INDEX,
        OP_DROP_INDEX,
        OP_DROP_COLLECTION,
        OP_DROP_DATABASE,
    }
)

#: Accepted fsync policies.
FSYNC_POLICIES = ("always", "batch", "never")

_SEGMENT_RE = re.compile(r"^wal-(\d{16})\.log$")


def segment_name(start_lsn: int) -> str:
    """Filename of the segment whose first record is ``start_lsn``."""
    return f"wal-{start_lsn:016d}.log"


@dataclass(frozen=True)
class WalRecord:
    """One decoded WAL record."""

    lsn: int
    op: str
    db: str
    coll: Optional[str]
    payload: Dict[str, Any]


def encode_record(record: WalRecord) -> bytes:
    """Serialize a record: header (length, crc32) + JSON payload."""
    body = json.dumps(
        {
            "lsn": record.lsn,
            "op": record.op,
            "db": record.db,
            "coll": record.coll,
            "payload": record.payload,
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    return _HEADER.pack(len(body), zlib.crc32(body)) + body


def _decode_body(body: bytes, expected_lsn: int, where: str) -> WalRecord:
    try:
        doc = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WalCorruptionError(
            f"WAL record at lsn={expected_lsn} in {where} has a valid "
            f"checksum but undecodable payload",
            lsn=expected_lsn,
        ) from exc
    lsn = int(doc["lsn"])
    if lsn != expected_lsn:
        raise WalCorruptionError(
            f"WAL LSN discontinuity in {where}: expected lsn={expected_lsn}, "
            f"record says lsn={lsn}",
            lsn=expected_lsn,
        )
    op = str(doc["op"])
    if op not in WAL_OPS:
        raise WalCorruptionError(
            f"WAL record at lsn={lsn} in {where} carries unknown op "
            f"{op!r}",
            lsn=lsn,
        )
    return WalRecord(
        lsn=lsn,
        op=op,
        db=str(doc["db"]),
        coll=doc.get("coll"),
        payload=doc.get("payload") or {},
    )


# -- segment scanning --------------------------------------------------------


def list_segments(directory: str) -> List[Tuple[int, str]]:
    """``[(start_lsn, absolute_path), ...]`` sorted by start LSN."""
    out: List[Tuple[int, str]] = []
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return out
    for name in names:
        match = _SEGMENT_RE.match(name)
        if match:
            out.append((int(match.group(1)), os.path.join(directory, name)))
    out.sort()
    return out


@dataclass
class SegmentScan:
    """Outcome of reading one segment."""

    records: List[WalRecord]
    torn_at: Optional[int]  # byte offset of a torn tail (None = clean)
    torn_bytes: int  # how many trailing bytes the tear spans


def read_segment(
    path: str, start_lsn: int, *, is_last: bool
) -> SegmentScan:
    """Read and verify every record of one segment.

    ``is_last`` selects torn-tail semantics: an incomplete final record
    is tolerated (reported via ``torn_at``) only in the final segment of
    the log — anywhere else it is interior corruption and raises
    :class:`~repro.errors.WalCorruptionError`.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    records: List[WalRecord] = []
    offset = 0
    lsn = start_lsn
    size = len(blob)
    while offset < size:
        if size - offset < HEADER_BYTES:
            if is_last:
                return SegmentScan(records, torn_at=offset, torn_bytes=size - offset)
            raise WalCorruptionError(
                f"WAL segment {os.path.basename(path)} ends mid-header at "
                f"lsn={lsn} (offset {offset}) but is not the final segment",
                lsn=lsn,
            )
        length, crc = _HEADER.unpack_from(blob, offset)
        body_start = offset + HEADER_BYTES
        if size - body_start < length:
            if is_last:
                return SegmentScan(records, torn_at=offset, torn_bytes=size - offset)
            raise WalCorruptionError(
                f"WAL segment {os.path.basename(path)} ends mid-record at "
                f"lsn={lsn} (offset {offset}) but is not the final segment",
                lsn=lsn,
            )
        body = blob[body_start: body_start + length]
        if zlib.crc32(body) != crc:
            raise WalCorruptionError(
                f"WAL checksum mismatch at lsn={lsn} in "
                f"{os.path.basename(path)} (offset {offset})",
                lsn=lsn,
            )
        records.append(_decode_body(body, lsn, os.path.basename(path)))
        offset = body_start + length
        lsn += 1
    return SegmentScan(records, torn_at=None, torn_bytes=0)


# -- writer -----------------------------------------------------------------

#: Crash-hook signature: ``hook(event, writer, lsn, data)`` where
#: ``event`` is ``"pre_append"`` (record encoded, nothing written),
#: ``"post_append"`` (record fully on the OS side) or ``"post_rotate"``
#: (fresh segment just opened).  Installed by the crash-fault harness
#: (:class:`repro.suite.faults.CrashPlan`) — see tools/crash_fuzz.py.
CrashHook = Callable[[str, "WalWriter", int, bytes], None]


class WalWriter:
    """Appender for the segmented WAL (single-threaded, like the store)."""

    def __init__(
        self,
        directory: str,
        *,
        start_lsn: int = 1,
        fsync: str = "batch",
        segment_bytes: int = 1 << 20,
        batch_every: int = 64,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise StorageError(
                f"unknown fsync policy {fsync!r} (expected one of "
                f"{', '.join(FSYNC_POLICIES)})"
            )
        if segment_bytes < HEADER_BYTES + 2:
            raise StorageError("segment_bytes is too small to hold a record")
        if batch_every < 1:
            raise StorageError("batch_every must be >= 1")
        self.directory = directory
        self.fsync_policy = fsync
        self.segment_bytes = segment_bytes
        self.batch_every = batch_every
        self.crash_hook: Optional[CrashHook] = None
        self._next_lsn = start_lsn
        self._unsynced = 0
        self._closed = False
        self.stats: Dict[str, int] = {
            "appends": 0,
            "bytes_written": 0,
            "fsyncs": 0,
            "rotations": 0,
            "segments_created": 0,
        }
        os.makedirs(directory, exist_ok=True)
        self._open_segment(start_lsn)

    # -- lifecycle ----------------------------------------------------------

    def _open_segment(self, start_lsn: int) -> None:
        self._segment_start = start_lsn
        self._segment_path = os.path.join(self.directory, segment_name(start_lsn))
        self._fh = open(self._segment_path, "ab")
        self._size = self._fh.tell()
        self.stats["segments_created"] += 1

    def close(self) -> None:
        """Flush, fsync (unless policy ``never``) and close the writer."""
        if self._closed:
            return
        self._fh.flush()
        if self.fsync_policy != "never":
            os.fsync(self._fh.fileno())
            self.stats["fsyncs"] += 1
        self._fh.close()
        self._closed = True

    def __enter__(self) -> "WalWriter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- introspection ------------------------------------------------------

    @property
    def last_lsn(self) -> int:
        """The LSN of the most recently appended record (0 = none yet)."""
        return self._next_lsn - 1

    def segment_count(self) -> int:
        return len(list_segments(self.directory))

    # -- appending ----------------------------------------------------------

    def append(
        self, op: str, db: str, coll: Optional[str], payload: Dict[str, Any]
    ) -> int:
        """Append one operation record; returns its LSN.

        The record is on the OS side of the file buffer when this
        returns (and on the platter too under ``fsync="always"``) —
        this call *is* the commit point of the operation.
        """
        if op not in WAL_OPS:
            raise StorageError(f"unknown WAL op: {op!r}")
        if self._closed:
            raise StorageError("WAL writer is closed")
        lsn = self._next_lsn
        data = encode_record(
            WalRecord(lsn=lsn, op=op, db=db, coll=coll, payload=payload)
        )
        if self._size >= self.segment_bytes:
            self._rotate()
            if self.crash_hook is not None:
                self.crash_hook("post_rotate", self, lsn, data)
        if self.crash_hook is not None:
            self.crash_hook("pre_append", self, lsn, data)
        self._fh.write(data)
        self._fh.flush()  # always reach the OS: kill -9 loses nothing
        self._size += len(data)
        self._next_lsn = lsn + 1
        self.stats["appends"] += 1
        self.stats["bytes_written"] += len(data)
        self._unsynced += 1
        if self.fsync_policy == "always" or (
            self.fsync_policy == "batch" and self._unsynced >= self.batch_every
        ):
            self._fsync()
        if self.crash_hook is not None:
            self.crash_hook("post_append", self, lsn, data)
        return lsn

    def _fsync(self) -> None:
        os.fsync(self._fh.fileno())
        self.stats["fsyncs"] += 1
        self._unsynced = 0

    def sync(self) -> int:
        """Force flush + fsync; returns the last durable LSN."""
        if not self._closed:
            self._fh.flush()
            self._fsync()
        return self.last_lsn

    def rotate_if_dirty(self) -> bool:
        """Seal the current segment iff it holds records; returns True if sealed.

        Called by the checkpointer right before garbage collection: once
        sealed, a fully-checkpointed segment becomes removable, so the
        next recovery scans (almost) no pre-checkpoint records.
        """
        if self._closed or self._size == 0:
            return False
        self._rotate()
        return True

    def _rotate(self) -> None:
        """Seal the current segment and open a fresh one."""
        self._fh.flush()
        if self.fsync_policy != "never":
            os.fsync(self._fh.fileno())
            self.stats["fsyncs"] += 1
        self._fh.close()
        self.stats["rotations"] += 1
        self._open_segment(self._next_lsn)

    # -- garbage collection --------------------------------------------------

    def remove_segments_below(self, checkpoint_lsn: int) -> int:
        """Delete segments whose every record is ≤ ``checkpoint_lsn``.

        A segment is removable when the *next* segment starts at or
        below ``checkpoint_lsn + 1`` (so nothing above the checkpoint
        lives in it).  The currently open segment is never removed.
        Returns the number of segments deleted.
        """
        removed = 0
        segments = list_segments(self.directory)
        for i, (start_lsn, path) in enumerate(segments):
            if path == self._segment_path:
                continue
            next_start = (
                segments[i + 1][0] if i + 1 < len(segments) else self._next_lsn
            )
            if next_start <= checkpoint_lsn + 1:
                os.remove(path)
                removed += 1
        return removed

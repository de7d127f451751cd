"""Tests for the crash-safe storage engine (WAL + recovery + checkpoints).

Covers the §4.2.2 durability contract end to end: record wire format,
segment rotation and garbage collection, the three disk states (clean /
torn tail / interior corruption), recovery replay, checkpoint
generations, the auto-journaling client, and the crash-fault harness
(:class:`repro.suite.faults.CrashPlan`).
"""

import json
import os
import struct

import pytest

from repro.docdb.client import DocDBClient
from repro.docdb.recovery import (
    CHECKPOINT_FILE,
    SNAPSHOT_DIR,
    WAL_DIR,
    Checkpoint,
    RecoveryManager,
    generation_name,
    list_generations,
    read_checkpoint,
    run_checkpoint,
    write_checkpoint,
)
from repro.docdb.wal import (
    FSYNC_POLICIES,
    HEADER_BYTES,
    OP_INSERT,
    OP_INSERT_MANY,
    WAL_OPS,
    WalRecord,
    WalWriter,
    encode_record,
    list_segments,
    read_segment,
    segment_name,
)
from repro.errors import StorageError, ValidationError, WalCorruptionError
from repro.suite.faults import CrashPlan, SimulatedCrash


def wal_dir(base) -> str:
    return os.path.join(str(base), WAL_DIR)


def wal_records(base):
    """Every valid record across the WAL's segments, in LSN order."""
    segments = list_segments(wal_dir(base))
    return [
        record
        for i, (start, path) in enumerate(segments)
        for record in read_segment(path, start, is_last=i == len(segments) - 1).records
    ]


def open_client(base, **kw) -> DocDBClient:
    return DocDBClient.open(str(base), **kw)


def docs_of(client, db="upin", coll="paths"):
    return sorted(client[db][coll].find({}), key=lambda d: str(d["_id"]))


# -- wire format -------------------------------------------------------------


class TestRecordFormat:
    def test_encode_roundtrip_via_segment_read(self, tmp_path):
        with WalWriter(wal_dir(tmp_path)) as wal:
            lsn = wal.append(OP_INSERT, "upin", "paths", {"document": {"_id": 1}})
        assert lsn == 1
        records = wal_records(tmp_path)
        assert len(records) == 1
        rec = records[0]
        assert (rec.lsn, rec.op, rec.db, rec.coll) == (1, OP_INSERT, "upin", "paths")
        assert rec.payload == {"document": {"_id": 1}}

    def test_header_is_length_then_crc(self):
        data = encode_record(
            WalRecord(lsn=7, op=OP_INSERT, db="d", coll="c", payload={})
        )
        length, _crc = struct.Struct("<II").unpack_from(data, 0)
        assert length == len(data) - HEADER_BYTES
        body = json.loads(data[HEADER_BYTES:].decode("utf-8"))
        assert body["lsn"] == 7

    def test_segment_name_is_zero_padded(self):
        assert segment_name(1) == "wal-0000000000000001.log"
        assert segment_name(12345) == "wal-0000000000012345.log"

    def test_wal_ops_frozen(self):
        assert OP_INSERT in WAL_OPS
        assert len(WAL_OPS) == 8
        assert FSYNC_POLICIES == ("always", "batch", "never")


# -- writer ------------------------------------------------------------------


class TestWalWriter:
    def test_lsns_are_monotonic(self, tmp_path):
        with WalWriter(wal_dir(tmp_path)) as wal:
            lsns = [
                wal.append(OP_INSERT, "d", "c", {"document": {"_id": i}})
                for i in range(5)
            ]
        assert lsns == [1, 2, 3, 4, 5]
        assert [r.lsn for r in wal_records(tmp_path)] == lsns

    def test_rotation_at_segment_bytes(self, tmp_path):
        with WalWriter(wal_dir(tmp_path), segment_bytes=128) as wal:
            for i in range(8):
                wal.append(OP_INSERT, "d", "c", {"document": {"_id": i}})
            assert wal.stats["rotations"] >= 2
        segments = list_segments(wal_dir(tmp_path))
        assert len(segments) >= 3
        # Segment start LSNs must be contiguous with record counts.
        expected = 1
        for i, (start, path) in enumerate(segments):
            assert start == expected
            scan = read_segment(path, start, is_last=(i == len(segments) - 1))
            expected += len(scan.records)
        assert expected == 9  # 8 records total

    def test_bad_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(StorageError, match="fsync"):
            WalWriter(wal_dir(tmp_path), fsync="sometimes")

    def test_unknown_op_rejected(self, tmp_path):
        with WalWriter(wal_dir(tmp_path)) as wal:
            with pytest.raises(StorageError, match="unknown WAL op"):
                wal.append("truncate", "d", "c", {})

    def test_append_after_close_raises(self, tmp_path):
        wal = WalWriter(wal_dir(tmp_path))
        wal.close()
        with pytest.raises(StorageError, match="closed"):
            wal.append(OP_INSERT, "d", "c", {"document": {}})

    def test_always_policy_fsyncs_every_append(self, tmp_path):
        with WalWriter(wal_dir(tmp_path), fsync="always") as wal:
            for i in range(3):
                wal.append(OP_INSERT, "d", "c", {"document": {"_id": i}})
            assert wal.stats["fsyncs"] == 3

    def test_batch_policy_fsyncs_every_n(self, tmp_path):
        with WalWriter(wal_dir(tmp_path), fsync="batch", batch_every=2) as wal:
            for i in range(5):
                wal.append(OP_INSERT, "d", "c", {"document": {"_id": i}})
            assert wal.stats["fsyncs"] == 2  # after #2 and #4

    def test_never_policy_fsyncs_on_neither_rotation_nor_close(self, tmp_path):
        wal = WalWriter(wal_dir(tmp_path), fsync="never", segment_bytes=96)
        for i in range(6):
            wal.append(OP_INSERT, "d", "c", {"document": {"_id": i}})
        wal.close()
        assert wal.stats["rotations"] >= 1
        assert wal.stats["fsyncs"] == 0
        assert [r.lsn for r in wal_records(tmp_path)] == list(range(1, 7))

    def test_sync_returns_last_durable_lsn(self, tmp_path):
        with WalWriter(wal_dir(tmp_path), fsync="never") as wal:
            wal.append(OP_INSERT, "d", "c", {"document": {"_id": 1}})
            assert wal.sync() == 1
            assert wal.stats["fsyncs"] == 1

    def test_gc_never_removes_open_segment(self, tmp_path):
        with WalWriter(wal_dir(tmp_path), segment_bytes=96) as wal:
            for i in range(6):
                wal.append(OP_INSERT, "d", "c", {"document": {"_id": i}})
            before = list_segments(wal_dir(tmp_path))
            # Checkpoint beyond everything: only sealed segments go.
            removed = wal.remove_segments_below(wal.last_lsn)
            assert removed == len(before) - 1 >= 1
            assert list_segments(wal_dir(tmp_path)) == before[-1:]

    def test_gc_keeps_segments_above_checkpoint(self, tmp_path):
        with WalWriter(wal_dir(tmp_path), segment_bytes=96) as wal:
            for i in range(6):
                wal.append(OP_INSERT, "d", "c", {"document": {"_id": i}})
            before = wal.segment_count()
            assert wal.remove_segments_below(0) == 0
            assert wal.segment_count() == before


# -- corruption detection ----------------------------------------------------


def build_segment(tmp_path, n=4):
    """A single sealed segment with ``n`` records; returns its path."""
    wal = WalWriter(wal_dir(tmp_path))
    for i in range(n):
        wal.append(OP_INSERT, "d", "c", {"document": {"_id": i}})
    wal.close()
    [(start, path)] = list_segments(wal_dir(tmp_path))
    assert start == 1
    return path


class TestCorruption:
    def test_torn_tail_in_last_segment_is_reported(self, tmp_path):
        path = build_segment(tmp_path, n=3)
        extra = encode_record(
            WalRecord(lsn=4, op=OP_INSERT, db="d", coll="c", payload={"document": {}})
        )
        with open(path, "ab") as fh:
            fh.write(extra[: len(extra) - 5])  # die mid-record
        scan = read_segment(path, 1, is_last=True)
        assert len(scan.records) == 3
        assert scan.torn_at is not None
        assert scan.torn_bytes == len(extra) - 5

    def test_torn_tail_in_interior_segment_raises(self, tmp_path):
        path = build_segment(tmp_path, n=3)
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) - 5)
        with pytest.raises(WalCorruptionError) as err:
            read_segment(path, 1, is_last=False)
        assert err.value.lsn == 3

    def test_flipped_payload_byte_fails_checksum(self, tmp_path):
        path = build_segment(tmp_path, n=2)
        with open(path, "r+b") as fh:
            fh.seek(HEADER_BYTES + 2)  # inside record #1's payload
            byte = fh.read(1)
            fh.seek(HEADER_BYTES + 2)
            fh.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(WalCorruptionError) as err:
            wal_records(tmp_path)
        assert err.value.lsn == 1
        assert "checksum" in str(err.value)

    def test_lsn_discontinuity_detected(self, tmp_path):
        # Two records claiming the same LSN: valid CRCs, broken chain.
        rec = WalRecord(lsn=1, op=OP_INSERT, db="d", coll="c", payload={})
        os.makedirs(wal_dir(tmp_path))
        with open(os.path.join(wal_dir(tmp_path), segment_name(1)), "wb") as fh:
            fh.write(encode_record(rec))
            fh.write(encode_record(rec))
        with pytest.raises(WalCorruptionError, match="discontinuity") as err:
            wal_records(tmp_path)
        assert err.value.lsn == 2

    def test_repair_truncates_torn_tail(self, tmp_path):
        path = build_segment(tmp_path, n=2)
        clean_size = os.path.getsize(path)
        with open(path, "ab") as fh:
            fh.write(b"\x99" * 11)
        client, report = RecoveryManager(str(tmp_path)).recover()
        assert report.records_replayed == 2
        assert report.torn_bytes_truncated == 11
        assert os.path.getsize(path) == clean_size
        assert len(client["d"]["c"]) == 2


# -- checkpoint pointer ------------------------------------------------------


class TestCheckpointPointer:
    def test_missing_file_is_zero_checkpoint(self, tmp_path):
        cp = read_checkpoint(str(tmp_path))
        assert cp == Checkpoint(checkpoint_lsn=0, generation=None)

    def test_roundtrip(self, tmp_path):
        write_checkpoint(
            str(tmp_path), Checkpoint(checkpoint_lsn=42, generation=generation_name(42))
        )
        cp = read_checkpoint(str(tmp_path))
        assert cp.checkpoint_lsn == 42
        assert cp.generation == generation_name(42)
        assert not os.path.exists(os.path.join(str(tmp_path), CHECKPOINT_FILE + ".tmp"))

    def test_corrupt_pointer_raises(self, tmp_path):
        with open(os.path.join(str(tmp_path), CHECKPOINT_FILE), "w") as fh:
            fh.write("{not json")
        with pytest.raises(StorageError, match="corrupt checkpoint"):
            read_checkpoint(str(tmp_path))


# -- recovery ----------------------------------------------------------------


class TestRecovery:
    def test_empty_directory_recovers_empty(self, tmp_path):
        client, report = RecoveryManager(str(tmp_path)).recover()
        assert client.list_database_names() == []
        assert report.last_lsn == 0
        assert report.records_replayed == 0

    def test_replay_restores_documents_and_indexes(self, tmp_path):
        with open_client(tmp_path) as client:
            coll = client["upin"]["paths"]
            coll.create_index([("server_id", 1), ("loss", -1)])
            coll.insert_many([{"_id": f"p{i}", "server_id": i % 2, "loss": i}
                              for i in range(6)])
            for i in (0, 2, 4):
                coll.replace_one({"_id": f"p{i}"},
                                 {"server_id": 0, "loss": i, "flagged": True})
            coll.delete_many({"loss": {"$gt": 4}})
        # Process "died" (close sealed the WAL); recover from disk alone.
        client2 = open_client(tmp_path)
        coll2 = client2["upin"]["paths"]
        assert len(coll2) == 5
        assert coll2.count_documents({"flagged": True}) == 3
        assert any("server_id" in name for name in coll2.index_information())
        report = client2.recovery_report
        assert report.records_replayed >= 4
        assert report.torn_bytes_truncated == 0
        client2.close()

    def test_checkpoint_then_recover_uses_snapshot(self, tmp_path):
        with open_client(tmp_path) as client:
            client["upin"]["paths"].insert_many(
                [{"_id": i, "v": i} for i in range(4)]
            )
            result = client.checkpoint()
            assert not result.skipped
            # Post-checkpoint write must come from WAL replay.
            client["upin"]["paths"].insert_one({"_id": 99, "v": 99})
        client2 = open_client(tmp_path)
        assert len(client2["upin"]["paths"]) == 5
        report = client2.recovery_report
        assert report.checkpoint_lsn == result.checkpoint_lsn
        assert report.records_replayed == 1  # just the post-checkpoint insert
        client2.close()

    def test_torn_tail_is_rolled_back_and_truncated(self, tmp_path):
        with open_client(tmp_path) as client:
            client["upin"]["paths"].insert_one({"_id": "committed"})
        # Simulate a mid-write death: partial record appended to the log.
        [(_, seg_path)] = list_segments(os.path.join(str(tmp_path), WAL_DIR))
        garbage = encode_record(
            WalRecord(lsn=2, op=OP_INSERT, db="upin", coll="paths",
                      payload={"document": {"_id": "lost"}})
        )
        with open(seg_path, "ab") as fh:
            fh.write(garbage[: len(garbage) - 7])
        client2 = open_client(tmp_path)
        assert [d["_id"] for d in client2["upin"]["paths"].find({})] == ["committed"]
        assert client2.recovery_report.torn_bytes_truncated == len(garbage) - 7
        client2.close()
        # Idempotent: a third recovery finds a clean log.
        client3 = open_client(tmp_path)
        assert client3.recovery_report.torn_bytes_truncated == 0
        client3.close()

    def test_interior_corruption_names_the_lsn(self, tmp_path):
        with open_client(tmp_path) as client:
            for i in range(3):
                client["upin"]["paths"].insert_one({"_id": i})
        [(_, seg_path)] = list_segments(os.path.join(str(tmp_path), WAL_DIR))
        with open(seg_path, "r+b") as fh:
            fh.seek(HEADER_BYTES + 4)  # record #1's payload
            fh.write(b"\xff")
        with pytest.raises(WalCorruptionError) as err:
            open_client(tmp_path)
        assert err.value.lsn == 1

    def test_wal_gap_is_detected(self, tmp_path):
        with open_client(tmp_path, segment_bytes=96) as client:
            for i in range(6):
                client["upin"]["paths"].insert_one({"_id": i})
        segments = list_segments(os.path.join(str(tmp_path), WAL_DIR))
        assert len(segments) >= 3
        os.remove(segments[1][1])  # lose an interior segment
        with pytest.raises(WalCorruptionError, match="gap"):
            open_client(tmp_path)

    def test_missing_oldest_segment_without_checkpoint(self, tmp_path):
        with open_client(tmp_path, segment_bytes=96) as client:
            for i in range(6):
                client["upin"]["paths"].insert_one({"_id": i})
        segments = list_segments(os.path.join(str(tmp_path), WAL_DIR))
        os.remove(segments[0][1])
        with pytest.raises(WalCorruptionError, match="gap"):
            open_client(tmp_path)

    def test_missing_generation_dir_raises(self, tmp_path):
        write_checkpoint(
            str(tmp_path), Checkpoint(checkpoint_lsn=5, generation=generation_name(5))
        )
        with pytest.raises(StorageError, match="missing snapshot generation"):
            RecoveryManager(str(tmp_path)).recover()

    def test_old_snapshot_layout_is_refused(self, tmp_path):
        # The removed snapshot mode wrote <db>.<coll>.jsonl files at the
        # top level and no CHECKPOINT.  Opening that directory empty
        # would let the next checkpoint hide its data.
        for name in ("upin.paths.jsonl", "upin.availableServers.jsonl"):
            (tmp_path / name).write_text('{"__meta__": {"indexes": []}}\n')
        with pytest.raises(StorageError, match=r"upin\.availableServers\.jsonl"):
            RecoveryManager(str(tmp_path)).recover()
        assert not os.path.exists(os.path.join(str(tmp_path), WAL_DIR))

    def test_recovery_clears_query_caches(self, tmp_path):
        with open_client(tmp_path) as client:
            coll = client["upin"]["paths"]
            coll.insert_many([{"_id": i, "v": i} for i in range(4)])
            coll.find({"v": {"$gte": 0}})  # warm the cache
        client2 = open_client(tmp_path)
        assert len(client2["upin"]["paths"].cache) == 0
        client2.close()


# -- checkpoint / compaction -------------------------------------------------


class TestCheckpoint:
    def test_checkpoint_gcs_generations_and_segments(self, tmp_path):
        client = open_client(tmp_path, segment_bytes=96)
        for i in range(6):
            client["upin"]["paths"].insert_one({"_id": i})
        first = client.checkpoint()
        assert not first.skipped
        assert first.segments_removed >= 1
        for i in range(6, 12):
            client["upin"]["paths"].insert_one({"_id": i})
        second = client.checkpoint()
        assert second.checkpoint_lsn > first.checkpoint_lsn
        assert second.generations_removed == 1
        assert list_generations(str(tmp_path)) == [second.generation]
        client.close()

    def test_idle_checkpoint_is_gc_only(self, tmp_path):
        client = open_client(tmp_path)
        client["upin"]["paths"].insert_one({"_id": 1})
        first = client.checkpoint()
        second = client.checkpoint()
        assert second.skipped
        assert second.checkpoint_lsn == first.checkpoint_lsn
        # The live generation must never be rewritten.
        assert second.generation == first.generation
        client.close()

    def test_checkpoint_requires_durable_client(self):
        with pytest.raises(StorageError, match="durable"):
            run_checkpoint(DocDBClient())

    def test_crashed_checkpoint_leftovers_are_cleaned(self, tmp_path):
        client = open_client(tmp_path)
        client["upin"]["paths"].insert_one({"_id": 1})
        # A generation dir written by a checkpoint that died pre-flip.
        stale = os.path.join(str(tmp_path), SNAPSHOT_DIR, generation_name(999))
        os.makedirs(stale)
        result = client.checkpoint()
        assert generation_name(999) not in list_generations(str(tmp_path))
        assert result.generations_removed >= 1
        client.close()


# -- the auto-journaling client ---------------------------------------------


class TestDurableClient:
    def test_every_mutation_is_journalled(self, tmp_path):
        with open_client(tmp_path) as client:
            db = client["upin"]
            db["paths"].insert_one({"_id": 1})
            db["paths"].insert_many([{"_id": 2}, {"_id": 3}])
            db["paths"].replace_one({"_id": 1}, {"v": "x"})
            db["paths"].delete_one({"_id": 3})
            db["paths"].create_index("v")
            db["paths"].drop_index("v")
            db["stats"].insert_one({"_id": "s"})
            db.drop_collection("stats")
            client["scratch"]["c"].insert_one({"_id": 0})
            client.drop_database("scratch")
        client2 = open_client(tmp_path)
        assert [d["_id"] for d in docs_of(client2)] == [1, 2]
        assert client2["upin"]["paths"].find_one({"_id": 1})["v"] == "x"
        assert "stats" not in client2["upin"].list_collection_names()
        assert "scratch" not in client2.list_database_names()
        client2.close()

    def test_reads_are_not_journalled(self, tmp_path):
        with open_client(tmp_path) as client:
            coll = client["upin"]["paths"]
            coll.insert_one({"_id": 1, "v": 5})
            before = client.wal.last_lsn
            coll.find({"v": {"$gt": 0}})
            coll.count_documents({})
            coll.find_one({"_id": 1})
            assert client.wal.last_lsn == before

    def test_noop_mutations_are_not_journalled(self, tmp_path):
        with open_client(tmp_path) as client:
            coll = client["upin"]["paths"]
            coll.insert_one({"_id": 1})
            before = client.wal.last_lsn
            coll.delete_many({"_id": "absent"})
            coll.replace_one({"_id": "absent"}, {"v": 1})
            coll.replace_one({"_id": 1}, {})
            assert client.wal.last_lsn == before

    def test_close_detaches_and_context_manager(self, tmp_path):
        client = open_client(tmp_path)
        assert client.is_durable
        client.close()
        assert not client.is_durable
        assert client.wal_stats() == {}
        # Volatile writes after close are not journalled (and not durable).
        client["upin"]["paths"].insert_one({"_id": "volatile"})
        client2 = open_client(tmp_path)
        assert docs_of(client2) == []
        client2.close()

    def test_wal_stats_shape(self, tmp_path):
        with open_client(tmp_path, fsync="always") as client:
            client["upin"]["paths"].insert_one({"_id": 1})
            stats = client.wal_stats()
        for key in (
            "fsync_policy", "last_lsn", "checkpoint_lsn", "segments",
            "checkpoints", "appends", "bytes_written",
            "fsyncs", "rotations", "records_replayed", "torn_bytes_truncated",
        ):
            assert key in stats
        assert stats["fsync_policy"] == "always"
        assert stats["last_lsn"] == 1

    def test_replay_helpers_reject_unknown_ids(self):
        coll = DocDBClient()["d"]["c"]
        coll.insert_one({"_id": 1})
        with pytest.raises(StorageError):
            coll.replay_update([{"_id": "ghost", "v": 1}])


# -- the crash-fault harness -------------------------------------------------


class TestCrashPlan:
    def test_validation(self):
        with pytest.raises(ValidationError):
            CrashPlan()  # no trigger
        with pytest.raises(ValidationError):
            CrashPlan(at_append=0)
        with pytest.raises(ValidationError):
            CrashPlan(at_append=1, mode="segfault")
        with pytest.raises(ValidationError):
            CrashPlan(torn_at_append=1, torn_fraction=1.0)

    def test_kill_after_nth_append_commits_exact_prefix(self, tmp_path):
        client = open_client(tmp_path)
        CrashPlan(at_append=3).install(client.wal)
        with pytest.raises(SimulatedCrash):
            for i in range(10):
                client["upin"]["paths"].insert_one({"_id": i})
        # Memory is "lost"; recover from disk.
        recovered = open_client(tmp_path)
        assert [d["_id"] for d in docs_of(recovered)] == [0, 1, 2]
        recovered.close()

    def test_torn_write_rolls_back_the_batch(self, tmp_path):
        client = open_client(tmp_path)
        CrashPlan(torn_at_append=2, torn_fraction=0.5).install(client.wal)
        client["upin"]["paths"].insert_one({"_id": "first"})
        with pytest.raises(SimulatedCrash):
            client["upin"]["paths"].insert_many(
                [{"_id": f"batch{i}"} for i in range(50)]
            )
        recovered = open_client(tmp_path)
        assert [d["_id"] for d in docs_of(recovered)] == ["first"]
        assert recovered.recovery_report.torn_bytes_truncated > 0
        recovered.close()

    def test_crash_after_rotation_before_checkpoint(self, tmp_path):
        client = open_client(tmp_path, segment_bytes=96)
        plan = CrashPlan(at_rotation=2).install(client.wal)
        with pytest.raises(SimulatedCrash):
            for i in range(100):
                client["upin"]["paths"].insert_one({"_id": i})
        assert plan.crashed
        committed = plan.appends_seen
        recovered = open_client(tmp_path)
        assert len(recovered["upin"]["paths"]) == committed
        assert recovered.recovery_report.segments_scanned >= 2
        recovered.close()

    def test_simulated_crash_is_not_an_exception(self):
        # Production `except Exception` must not swallow a machine crash.
        assert not issubclass(SimulatedCrash, Exception)
        assert issubclass(SimulatedCrash, BaseException)

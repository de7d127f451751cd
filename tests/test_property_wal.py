"""Property-based tests for the WAL durability contract (§4.2.2).

The acceptance criteria of the storage engine, stated as laws:

1. **committed prefix** — for *every* crash point, the recovered state
   equals the no-crash state restricted to the operations whose WAL
   records were committed before the crash;
2. **flush atomicity** — a campaign batch (one
   :meth:`StatsRepository.flush` = one ``insert_many`` = one WAL
   record) is all-or-nothing: a crash never leaves part of a batch;
3. **corruption detection** — flipping any payload byte of any record
   is always detected at recovery and names the record's LSN;
4. **idempotence** — recovering twice yields exactly the state of
   recovering once.
"""

import json
import os
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.docdb.client import DocDBClient
from repro.docdb.wal import HEADER_BYTES
from repro.errors import DataLossError, WalCorruptionError
from repro.suite.faults import CrashPlan, SimulatedCrash
from repro.suite.storage import StatsRepository

WAL_SETTINGS = settings(max_examples=25, deadline=None)


def canonical(client: DocDBClient):
    """A comparable dump: every doc of every collection, plus indexes."""
    out = {}
    for db_name in client.list_database_names():
        db = client.database(db_name)
        for coll_name in db.list_collection_names():
            coll = db[coll_name]
            docs = sorted(
                (json.dumps(d, sort_keys=True, default=str) for d in coll.find({})),
            )
            out[f"{db_name}.{coll_name}"] = (docs, sorted(coll.index_information()))
    return out


# Each op appends exactly one WAL record, so "crash after the Nth
# append" is "commit exactly the first N ops".
batches = st.lists(
    st.integers(min_value=1, max_value=5),  # docs per batch
    min_size=1,
    max_size=12,
)


def apply_batches(client, sizes):
    doc_id = 0
    for size in sizes:
        # Look the collection up lazily so an empty prefix creates nothing
        # (matching what recovery reconstructs from an empty log).
        coll = client["upin"]["paths_stats"]
        coll.insert_many(
            [{"_id": f"d{doc_id + j}", "batch": size} for j in range(size)]
        )
        doc_id += size


class TestCommittedPrefix:
    @WAL_SETTINGS
    @given(sizes=st.data())
    def test_recovered_state_is_the_committed_prefix(self, tmp_path_factory, sizes):
        ops = sizes.draw(batches)
        crash_at = sizes.draw(st.integers(min_value=1, max_value=len(ops)))
        base = str(tmp_path_factory.mktemp("wal-prefix"))

        # Crashed run: die right after the crash_at-th WAL append.
        client = DocDBClient.open(base, segment_bytes=512)
        CrashPlan(at_append=crash_at).install(client.wal)
        with pytest.raises(SimulatedCrash):
            apply_batches(client, ops)
            raise AssertionError("crash plan never fired")  # pragma: no cover

        recovered = DocDBClient.open(base)
        got = canonical(recovered)
        recovered.close()

        # Oracle: a volatile client that ran only the committed prefix.
        oracle = DocDBClient()
        apply_batches(oracle, ops[:crash_at])
        assert got == canonical(oracle)

    @WAL_SETTINGS
    @given(sizes=st.data())
    def test_torn_write_commits_strictly_before(self, tmp_path_factory, sizes):
        ops = sizes.draw(batches)
        torn_at = sizes.draw(st.integers(min_value=1, max_value=len(ops)))
        base = str(tmp_path_factory.mktemp("wal-torn"))

        client = DocDBClient.open(base, segment_bytes=512)
        CrashPlan(torn_at_append=torn_at, torn_fraction=0.4).install(client.wal)
        with pytest.raises(SimulatedCrash):
            apply_batches(client, ops)
            raise AssertionError("crash plan never fired")  # pragma: no cover

        recovered = DocDBClient.open(base)
        report = recovered.recovery_report
        got = canonical(recovered)
        recovered.close()
        assert report.torn_bytes_truncated > 0

        oracle = DocDBClient()
        apply_batches(oracle, ops[: torn_at - 1])
        assert got == canonical(oracle)


class TestFlushAtomicity:
    @WAL_SETTINGS
    @given(
        n_batches=st.integers(min_value=1, max_value=6),
        batch_size=st.integers(min_value=1, max_value=8),
        crash_batch=st.integers(min_value=1, max_value=6),
    )
    def test_flush_is_all_or_nothing(
        self, tmp_path_factory, n_batches, batch_size, crash_batch
    ):
        """A crash mid-batch loses the whole batch, never a slice of it."""
        crash_batch = min(crash_batch, n_batches)
        base = str(tmp_path_factory.mktemp("wal-flush"))
        client = DocDBClient.open(base)
        repo = StatsRepository(client["upin"]["paths_stats"])
        CrashPlan(torn_at_append=crash_batch).install(client.wal)

        doc_id = 0
        with pytest.raises(SimulatedCrash):
            for _ in range(n_batches):
                for _ in range(batch_size):
                    repo.add({"_id": f"s{doc_id}", "lat": doc_id})
                    doc_id += 1
                repo.flush()  # one WAL record per flush
            raise AssertionError("crash plan never fired")  # pragma: no cover

        recovered = DocDBClient.open(base)
        stored = {d["_id"] for d in recovered["upin"]["paths_stats"].find({})}
        recovered.close()
        expected = {
            f"s{i}" for i in range((crash_batch - 1) * batch_size)
        }
        assert stored == expected  # complete batches only, no partial slice

    def test_data_loss_fault_drops_whole_buffer(self):
        """The §4.1.2 data-loss fault also respects batch atomicity."""
        def exploding_hook(batch):
            raise DataLossError("injected")

        repo = StatsRepository(
            DocDBClient()["upin"]["paths_stats"], flush_hook=exploding_hook
        )
        for i in range(5):
            repo.add({"_id": i})
        with pytest.raises(DataLossError):
            repo.flush()
        assert repo.lost_last_flush == 5
        assert len(repo.collection) == 0  # nothing partially stored
        assert len(repo) == 0  # and the buffer is gone


class TestCorruptionDetection:
    @WAL_SETTINGS
    @given(data=st.data())
    def test_any_payload_byte_flip_is_detected(self, tmp_path_factory, data):
        n_ops = data.draw(st.integers(min_value=1, max_value=8))
        base = str(tmp_path_factory.mktemp("wal-corrupt"))
        with DocDBClient.open(base) as client:
            for i in range(n_ops):
                client["upin"]["paths"].insert_one({"_id": i, "pad": "x" * 16})

        # Pick a record, then a byte inside its *payload* (CRC-covered).
        wal_dir = os.path.join(base, "wal")
        [seg] = [os.path.join(wal_dir, n) for n in os.listdir(wal_dir)
                 if n.endswith(".log")]
        with open(seg, "rb") as fh:
            blob = bytearray(fh.read())
        # Walk the records to find their payload extents.
        extents = []
        offset, lsn = 0, 1
        while offset < len(blob):
            length = int.from_bytes(blob[offset:offset + 4], "little")
            extents.append((lsn, offset + HEADER_BYTES, length))
            offset += HEADER_BYTES + length
            lsn += 1
        target_lsn, body_start, body_len = data.draw(st.sampled_from(extents))
        flip_at = body_start + data.draw(
            st.integers(min_value=0, max_value=body_len - 1)
        )
        flip_to = data.draw(st.integers(min_value=1, max_value=255))
        blob[flip_at] ^= flip_to
        with open(seg, "wb") as fh:
            fh.write(bytes(blob))

        with pytest.raises(WalCorruptionError) as err:
            DocDBClient.open(base)
        assert err.value.lsn == target_lsn
        assert str(target_lsn) in str(err.value)

    def test_crc32_actually_covers_the_payload(self, tmp_path):
        # Guard against a refactor that checksums the wrong slice.
        with DocDBClient.open(str(tmp_path)) as client:
            client["upin"]["paths"].insert_one({"_id": 1})
        wal_dir = os.path.join(str(tmp_path), "wal")
        [seg] = [os.path.join(wal_dir, n) for n in os.listdir(wal_dir)
                 if n.endswith(".log")]
        with open(seg, "rb") as fh:
            blob = fh.read()
        length = int.from_bytes(blob[0:4], "little")
        crc = int.from_bytes(blob[4:8], "little")
        assert zlib.crc32(blob[8:8 + length]) == crc


class TestRecoveryIdempotence:
    @WAL_SETTINGS
    @given(data=st.data())
    def test_recover_twice_equals_once(self, tmp_path_factory, data):
        ops = data.draw(batches)
        crash_at = data.draw(st.integers(min_value=1, max_value=len(ops)))
        kind = data.draw(st.sampled_from(["kill", "torn"]))
        base = str(tmp_path_factory.mktemp("wal-idem"))

        client = DocDBClient.open(base, segment_bytes=512)
        plan = (
            CrashPlan(at_append=crash_at)
            if kind == "kill"
            else CrashPlan(torn_at_append=crash_at)
        )
        plan.install(client.wal)
        with pytest.raises(SimulatedCrash):
            apply_batches(client, ops)
            raise AssertionError("crash plan never fired")  # pragma: no cover

        first = DocDBClient.open(base)
        dump1 = canonical(first)
        lsn1 = first.recovery_report.last_lsn
        first.close()
        second = DocDBClient.open(base)
        dump2 = canonical(second)
        lsn2 = second.recovery_report.last_lsn
        # The second recovery found an already-clean log.
        assert second.recovery_report.torn_bytes_truncated == 0
        second.close()
        assert dump1 == dump2
        assert lsn1 == lsn2

"""WAL durability bench: fsync-policy throughput and recovery time.

Two questions the storage engine's knobs raise (docs/STORAGE.md):

1. **What does durability cost?**  The same campaign-shaped write load
   (batched ``insert_many``, one WAL record per §4.2.2 batch) is run
   against a volatile client and against durable clients under each
   fsync policy (``always`` / ``batch`` / ``never``).
2. **What does recovery cost?**  Un-checkpointed WALs of increasing
   length are recovered from scratch; replay time should grow roughly
   linearly with the record count, and a checkpoint should collapse it
   to near-zero.

Writes the table under ``benchmarks/output/wal_durability.txt``.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from typing import Any, Dict, List

from benchmarks.conftest import write_figure
from repro.docdb.client import DocDBClient

BATCH = 25  # one destination's worth of path samples (§4.2.2)
N_BATCHES = 120
RECOVERY_SIZES = (60, 240, 960)  # batches in the un-checkpointed WAL


def _batches(n_batches: int) -> List[List[Dict[str, Any]]]:
    doc = 0
    out = []
    for b in range(n_batches):
        batch = []
        for _ in range(BATCH):
            batch.append(
                {
                    "_id": f"s{doc}",
                    "path_id": f"p{doc % 40}",
                    "server_id": b % 10,
                    "avg_latency_ms": 40.0 + doc % 13,
                    "loss_pct": 0.0,
                }
            )
            doc += 1
        out.append(batch)
    return out


def _write_load(client: DocDBClient, batches: List[List[Dict[str, Any]]]) -> float:
    coll = client["upin"]["paths_stats"]
    start = time.perf_counter()
    for batch in batches:
        coll.insert_many(batch)
    return time.perf_counter() - start


def _timed_open(base: str) -> float:
    start = time.perf_counter()
    client = DocDBClient.open(base)
    elapsed = time.perf_counter() - start
    client.close()
    return elapsed


def test_fsync_policy_throughput_and_recovery():
    batches = _batches(N_BATCHES)
    n_docs = N_BATCHES * BATCH
    lines = [
        f"WAL durability trade-off ({N_BATCHES} batches x {BATCH} docs, "
        f"one WAL record per batch)",
        "",
        "  write throughput by persistence mode",
        f"  {'mode':<16}{'time':>10}  {'docs/s':>10}  {'fsyncs':>7}",
    ]

    volatile = DocDBClient()
    t_volatile = _write_load(volatile, batches)
    lines.append(
        f"  {'volatile':<16}{t_volatile * 1e3:>8.1f}ms"
        f"  {n_docs / t_volatile:>10.0f}  {'-':>7}"
    )

    fsyncs_by_policy: Dict[str, int] = {}
    for policy in ("never", "batch", "always"):
        base = tempfile.mkdtemp(prefix=f"wal-bench-{policy}-")
        try:
            client = DocDBClient.open(base, fsync=policy)
            elapsed = _write_load(client, batches)
            fsyncs = client.wal_stats()["fsyncs"]
            client.close()
            fsyncs_by_policy[policy] = fsyncs
            lines.append(
                f"  {'wal/' + policy:<16}{elapsed * 1e3:>8.1f}ms"
                f"  {n_docs / elapsed:>10.0f}  {fsyncs:>7}"
            )
        finally:
            shutil.rmtree(base, ignore_errors=True)

    # `always` pays one fsync per record and `never` none.  Asserted on
    # the counts: one wall-clock timing per policy cannot order them.
    assert fsyncs_by_policy["always"] == N_BATCHES
    assert fsyncs_by_policy["never"] == 0

    lines += ["", "  recovery time vs un-checkpointed WAL size",
              f"  {'records':>9}  {'wal bytes':>10}  {'recovery':>10}  {'replayed':>9}"]
    for n in RECOVERY_SIZES:
        base = tempfile.mkdtemp(prefix="wal-bench-recover-")
        try:
            client = DocDBClient.open(base, fsync="never")
            _write_load(client, _batches(n))
            client.close()
            wal_bytes = sum(
                os.path.getsize(os.path.join(base, "wal", f))
                for f in os.listdir(os.path.join(base, "wal"))
            )
            elapsed = _timed_open(base)
            check = DocDBClient.open(base)
            replayed = check.recovery_report.records_replayed
            assert replayed == n
            assert len(check["upin"]["paths_stats"]) == n * BATCH
            check.close()
            lines.append(
                f"  {n:>9}  {wal_bytes:>10}  {elapsed * 1e3:>8.1f}ms  {replayed:>9}"
            )
        finally:
            shutil.rmtree(base, ignore_errors=True)

    # A checkpoint collapses replay to zero records.
    base = tempfile.mkdtemp(prefix="wal-bench-checkpoint-")
    try:
        client = DocDBClient.open(base, fsync="never")
        _write_load(client, _batches(RECOVERY_SIZES[-1]))
        client.checkpoint()
        client.close()
        elapsed = _timed_open(base)
        check = DocDBClient.open(base)
        assert check.recovery_report.records_replayed == 0
        assert len(check["upin"]["paths_stats"]) == RECOVERY_SIZES[-1] * BATCH
        check.close()
        lines.append(
            f"  {'(ckpt)':>9}  {'-':>10}  {elapsed * 1e3:>8.1f}ms  {0:>9}"
        )
        lines.append(
            "  (ckpt) = same workload after a checkpoint: recovery is a"
        )
        lines.append(
            "  snapshot load, zero WAL records replayed, segments GC'd"
        )
    finally:
        shutil.rmtree(base, ignore_errors=True)

    write_figure("wal_durability.txt", "\n".join(lines))

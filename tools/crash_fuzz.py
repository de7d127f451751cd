#!/usr/bin/env python
"""Seeded crash/recovery fuzzing for the docdb storage engine.

Every round this driver:

1. derives a random *workload* (insert_many batches shaped like
   ``StatsRepository.flush``, single inserts, replacements, deletes, index
   builds, checkpoints) and a random *crash plan* (kill -9 after the
   Nth WAL append, a torn write of the Nth record, or a crash right
   after a segment rotation) — all pure functions of ``--seed``;
2. runs the workload in a **subprocess** against a durable
   :class:`DocDBClient` with the crash plan installed; the subprocess
   dies with ``os._exit(137)`` at the crash point — a real no-cleanup
   process death, like the §4.2.2 scenario the paper designs for;
3. recovers the directory in-process and asserts the recovered
   database equals the **committed-prefix oracle**: the state produced
   by replaying exactly the operations whose WAL record survived
   (torn records roll back; one batch is all-or-nothing);
4. re-recovers and asserts recovery is idempotent, that indexes were
   rebuilt, and that ``explain()`` runs against recovered state.

Usage::

    python tools/crash_fuzz.py --rounds 25 --seed 42
    python tools/crash_fuzz.py --rounds 25 --seed $GITHUB_RUN_ID \
        --artifact-dir crash-fuzz-failures

Exit status 0 iff every round's oracle held.  On failure the round's
durable directory (WAL segments + snapshots + CHECKPOINT) is copied
under ``--artifact-dir`` for post-mortem (CI uploads it as an
artifact).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional, Tuple

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
)

from repro.docdb.client import DocDBClient  # noqa: E402
from repro.suite.faults import CrashPlan  # noqa: E402

DB = "upin"
COLLECTIONS = ("paths_stats", "availableServers")
CRASH_EXIT = 137


# ---------------------------------------------------------------------------
# deterministic workload generation (shared by worker and oracle)
# ---------------------------------------------------------------------------


def generate_ops(seed: int, n_ops: int) -> List[Dict[str, Any]]:
    """A reproducible mixed workload; pure function of ``seed``."""
    rng = random.Random(seed)
    ops: List[Dict[str, Any]] = []
    next_id = 0
    live_ids: List[str] = []
    for i in range(n_ops):
        coll = rng.choice(COLLECTIONS)
        kind = rng.choices(
            ["flush", "insert", "replace", "delete", "index", "checkpoint"],
            weights=[5, 2, 3, 2, 1, 1],
        )[0]
        if kind == "flush":
            # One destination's measurement batch (§4.2.2): atomic.
            docs = []
            for _ in range(rng.randint(2, 8)):
                docs.append(
                    {
                        "_id": f"doc_{next_id}",
                        "server_id": rng.randint(1, 5),
                        "timestamp_ms": 1_000_000 + next_id,
                        "latency_ms": round(rng.uniform(5.0, 180.0), 3),
                    }
                )
                live_ids.append(f"doc_{next_id}")
                next_id += 1
            ops.append({"kind": "flush", "coll": coll, "docs": docs})
        elif kind == "insert":
            doc = {
                "_id": f"doc_{next_id}",
                "server_id": rng.randint(1, 5),
                "timestamp_ms": 1_000_000 + next_id,
            }
            live_ids.append(f"doc_{next_id}")
            next_id += 1
            ops.append({"kind": "insert", "coll": coll, "doc": doc})
        elif kind == "replace":
            # Journalled as a WAL ``update`` record when it changes a
            # document; the target may already be deleted (no record).
            target = rng.choice(live_ids) if live_ids else "doc_0"
            ops.append(
                {
                    "kind": "replace",
                    "coll": coll,
                    "filter": {"_id": target},
                    "doc": {
                        "server_id": rng.randint(1, 5),
                        "flag": rng.randint(0, 9),
                    },
                }
            )
        elif kind == "delete":
            victims = rng.sample(live_ids, k=min(len(live_ids), rng.randint(1, 3)))
            ops.append(
                {"kind": "delete", "coll": coll, "filter": {"_id": {"$in": victims}}}
            )
        elif kind == "index":
            ops.append(
                {
                    "kind": "index",
                    "coll": coll,
                    "fields": rng.choice(
                        [
                            [["server_id", 1]],
                            [["server_id", 1], ["timestamp_ms", 1]],
                            [["timestamp_ms", 1]],
                        ]
                    ),
                }
            )
        else:
            ops.append({"kind": "checkpoint"})
    return ops


def apply_op(client: DocDBClient, op: Dict[str, Any], *, durable: bool) -> None:
    """Apply one generated op (worker: durable=True; oracle: False)."""
    if op["kind"] == "checkpoint":
        if durable:
            client.checkpoint()
        return
    coll = client[DB][op["coll"]]
    if op["kind"] == "flush":
        coll.insert_many(op["docs"])
    elif op["kind"] == "insert":
        coll.insert_one(op["doc"])
    elif op["kind"] == "replace":
        coll.replace_one(op["filter"], op["doc"])
    elif op["kind"] == "delete":
        coll.delete_many(op["filter"])
    elif op["kind"] == "index":
        coll.create_index([(f, int(d)) for f, d in op["fields"]])
    else:  # pragma: no cover
        raise ValueError(f"unknown op kind {op['kind']!r}")


# ---------------------------------------------------------------------------
# committed-prefix oracle
# ---------------------------------------------------------------------------


class _CountingWal:
    """Duck-typed WAL stub: counts records the ops *would* emit."""

    def __init__(self) -> None:
        self.appends = 0

    def append(self, op: str, db: str, coll: Optional[str], payload: Dict) -> int:
        self.appends += 1
        return self.appends


def oracle_state(
    ops: List[Dict[str, Any]], committed_records: int
) -> Tuple[Dict[str, Any], int]:
    """State after exactly the ops whose WAL record is ≤ the commit point.

    Returns ``(canonical_dump, ops_applied)``.  Ops that emit no record
    (e.g. a replacement matching nothing) carry no durable effect, so
    including them at the boundary is state-neutral.
    """
    client = DocDBClient()
    counter = _CountingWal()
    client._wal = counter  # type: ignore[assignment]
    applied = 0
    for op in ops:
        before = counter.appends
        apply_op(client, op, durable=False)
        if counter.appends > committed_records:
            # This op's record never survived: roll it back by rebuilding.
            return _rebuild_prefix(ops, applied)
        applied += 1
        assert counter.appends - before <= 1, "one op must emit at most one record"
    client._wal = None
    return canonical_dump(client), applied


def _rebuild_prefix(
    ops: List[Dict[str, Any]], n_applied: int
) -> Tuple[Dict[str, Any], int]:
    client = DocDBClient()
    for op in ops[:n_applied]:
        apply_op(client, op, durable=False)
    return canonical_dump(client), n_applied


def canonical_dump(client: DocDBClient) -> Dict[str, Any]:
    """Order-independent JSON-able digest of the whole client state.

    Empty, index-free collections are omitted: merely *touching* a
    collection (a no-op ``delete_many``, say) instantiates it in memory
    but emits no WAL record, so it rightly does not survive a crash —
    the durable state is defined by journalled operations only.
    """
    out: Dict[str, Any] = {}
    for db_name in client.list_database_names():
        db = client.database(db_name)
        out[db_name] = {}
        for coll_name in db.list_collection_names():
            coll = db[coll_name]
            if len(coll) == 0 and not coll.index_information():
                continue
            out[db_name][coll_name] = {
                "docs": sorted(
                    json.dumps(d, sort_keys=True) for d in coll.all_documents()
                ),
                "indexes": {
                    name: {
                        "fields": [[f, d] for f, d in info["fields"]],
                        "unique": info["unique"],
                    }
                    for name, info in coll.index_information().items()
                },
            }
        if not out[db_name]:
            del out[db_name]  # database of nothing but untouched shells
    return out


# ---------------------------------------------------------------------------
# round specification
# ---------------------------------------------------------------------------


def make_spec(seed: int, round_index: int, directory: str) -> Dict[str, Any]:
    rng = random.Random((seed * 1_000_003 + round_index) & 0xFFFFFFFF)
    n_ops = rng.randint(12, 40)
    fsync = rng.choice(["always", "batch", "never"])
    segment_bytes = rng.choice([512, 2048, 8192])
    crash_kind = rng.choice(["kill", "kill", "torn", "torn", "rotate"])
    # Records ≤ ops (some ops emit none), so aim low to guarantee firing;
    # a plan that never fires is still checked as a clean-shutdown round.
    target = rng.randint(1, max(1, int(n_ops * 0.6)))
    crash: Dict[str, Any] = {"mode": "exit"}
    if crash_kind == "kill":
        crash["at_append"] = target
    elif crash_kind == "torn":
        crash["torn_at_append"] = target
        crash["torn_fraction"] = rng.choice([0.1, 0.4, 0.5, 0.9])
    else:
        crash["at_rotation"] = rng.randint(1, 3)
    return {
        "dir": directory,
        "ops_seed": (seed * 7_919 + round_index) & 0xFFFFFFFF,
        "n_ops": n_ops,
        "fsync": fsync,
        "segment_bytes": segment_bytes,
        "batch_every": rng.choice([1, 4, 16]),
        "crash": crash,
    }


# ---------------------------------------------------------------------------
# worker (runs in the crashing subprocess)
# ---------------------------------------------------------------------------


def run_worker(spec: Dict[str, Any]) -> int:
    plan = CrashPlan(**spec["crash"])
    client = DocDBClient.open(
        spec["dir"],
        fsync=spec["fsync"],
        segment_bytes=spec["segment_bytes"],
        batch_every=spec["batch_every"],
    )
    assert client.wal is not None
    plan.install(client.wal)
    ops = generate_ops(spec["ops_seed"], spec["n_ops"])
    for op in ops:
        apply_op(client, op, durable=True)
    # Crash never fired: clean shutdown (still a valid recovery case).
    client.close()
    return 0


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def run_round(
    seed: int, round_index: int, base_dir: str, verbose: bool
) -> Tuple[bool, str, Dict[str, Any]]:
    directory = os.path.join(base_dir, f"round-{round_index:03d}")
    os.makedirs(directory, exist_ok=True)
    spec = make_spec(seed, round_index, directory)
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker", json.dumps(spec)],
        capture_output=True,
        text=True,
    )
    crash = spec["crash"]
    label = (
        f"round {round_index:3d}: fsync={spec['fsync']:6s} "
        f"seg={spec['segment_bytes']:5d} crash={crash}"
    )
    if proc.returncode not in (0, CRASH_EXIT):
        return False, f"{label} — worker died unexpectedly:\n{proc.stderr}", spec

    try:
        recovered = DocDBClient.open(spec["dir"])
        report = recovered.recovery_report
        assert report is not None
        committed = report.last_lsn
        recovered_dump = canonical_dump(recovered)
        # explain()/planner must run against recovered state, and the
        # recovery epoch bump means no stale cached answer can exist.
        for db_name in recovered.list_database_names():
            db = recovered.database(db_name)
            for coll_name in db.list_collection_names():
                coll = db[coll_name]
                assert len(coll.cache) == 0, "recovered cache must start empty"
                coll.explain({"server_id": 1})
        recovered.close()

        ops = generate_ops(spec["ops_seed"], spec["n_ops"])
        expected_dump, ops_applied = oracle_state(ops, committed)

        # Crash-point accounting: the WAL must contain *exactly* the
        # records the plan allowed through.
        if proc.returncode == CRASH_EXIT:
            if "at_append" in crash:
                assert committed == crash["at_append"], (
                    f"kill after append #{crash['at_append']} must commit "
                    f"exactly that prefix, got {committed}"
                )
            if "torn_at_append" in crash:
                assert committed == crash["torn_at_append"] - 1, (
                    f"torn record #{crash['torn_at_append']} must roll back "
                    f"to {crash['torn_at_append'] - 1}, got {committed}"
                )
                assert report.torn_bytes_truncated > 0, (
                    "torn-write round must truncate a tail"
                )

        if recovered_dump != expected_dump:
            return (
                False,
                f"{label} — recovered state != committed prefix "
                f"(committed lsn {committed}, {ops_applied} ops)",
                spec,
            )

        # Recovery idempotence: a second recovery changes nothing.
        again = DocDBClient.open(spec["dir"])
        again_dump = canonical_dump(again)
        again.close()
        if again_dump != recovered_dump:
            return False, f"{label} — recovery is not idempotent", spec
    except Exception as exc:  # noqa: BLE001 - the driver must report, not die
        return False, f"{label} — {type(exc).__name__}: {exc}", spec

    status = "crashed+recovered" if proc.returncode == CRASH_EXIT else "clean run"
    return True, f"{label} — OK ({status}, lsn {committed})", spec


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=25)
    parser.add_argument("--seed", type=int, default=20231112)
    parser.add_argument(
        "--artifact-dir",
        default=None,
        help="copy each failing round's durable directory here",
    )
    parser.add_argument(
        "--base-dir",
        default=None,
        help="work under this directory instead of a fresh temp dir",
    )
    parser.add_argument("--worker", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.worker is not None:
        return run_worker(json.loads(args.worker))

    base_dir = args.base_dir or tempfile.mkdtemp(prefix="crash-fuzz-")
    failures = 0
    for i in range(args.rounds):
        ok, message, spec = run_round(args.seed, i, base_dir, verbose=True)
        print(message)
        if not ok:
            failures += 1
            if args.artifact_dir:
                os.makedirs(args.artifact_dir, exist_ok=True)
                target = os.path.join(args.artifact_dir, f"round-{i:03d}")
                shutil.rmtree(target, ignore_errors=True)
                shutil.copytree(spec["dir"], target)
                with open(
                    os.path.join(target, "SPEC.json"), "w", encoding="utf-8"
                ) as fh:
                    json.dump(spec, fh, indent=2, sort_keys=True)
                print(f"  -> failing WAL directory preserved at {target}")
        shutil.rmtree(spec["dir"], ignore_errors=True)
    if not args.base_dir:
        shutil.rmtree(base_dir, ignore_errors=True)
    print(
        f"crash-fuzz: {args.rounds - failures}/{args.rounds} rounds held the "
        f"committed-prefix oracle (seed {args.seed})"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

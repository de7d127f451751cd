"""The test-suite CLI (the ``test_suite.sh`` wrapper, §5.1).

Mirrors the original interface::

    upin-test-suite 100 --skip         # 100 iterations, reuse stored paths
    upin-test-suite 10 --some_only     # only the first destination

plus reproduction conveniences: ``--seed`` for determinism,
``--metrics`` for campaign telemetry, and ``--db-dir`` to persist the
database in a write-ahead-logged directory (``--durability`` picks the
fsync policy).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.docdb.client import DocDBClient
from repro.errors import ReproError, ValidationError
from repro.scion.snet import ScionHost
from repro.scionlab.defaults import available_server_documents
from repro.suite.collect import PathsCollector
from repro.suite.config import SERVERS_COLLECTION, SuiteConfig
from repro.suite.metrics import (
    database_stats_snapshot,
    format_database_stats,
    format_metrics,
    format_wal_stats,
    wal_stats_snapshot,
)
from repro.suite.runner import TestRunner


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="upin-test-suite",
        description="UPIN path measurement campaign over simulated SCIONLab",
    )
    parser.add_argument(
        "iterations", type=int, help="test runs per path (the paper used up to 100)"
    )
    parser.add_argument(
        "--skip",
        action="store_true",
        help="bypass path collection (paths must already be stored)",
    )
    parser.add_argument(
        "--some_only",
        action="store_true",
        help="test only the first destination in availableServers",
    )
    parser.add_argument("--seed", type=int, default=20231112)
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print retry/backoff/batch telemetry after the campaign",
    )
    parser.add_argument(
        "--db-dir", default=None, help="persist the database under this directory"
    )
    parser.add_argument(
        "--durability",
        choices=["always", "batch", "never"],
        default=None,
        help="fsync policy of the --db-dir write-ahead log (default: never). "
        "Every batch flush survives kill -9 and the campaign ends with a "
        "checkpoint (see docs/STORAGE.md)",
    )
    parser.add_argument(
        "--sign",
        action="store_true",
        help="sign every statistics document with a coordinator-issued AS "
        "key and enforce verification on insert (§4.1.4)",
    )
    return parser


def seed_servers(db) -> int:
    """Populate ``availableServers`` (idempotent); returns server count."""
    coll = db[SERVERS_COLLECTION]
    docs = available_server_documents()
    for doc in docs:
        coll.replace_one({"_id": doc["_id"]}, doc, upsert=True)
    return len(docs)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = SuiteConfig(iterations=args.iterations, some_only=args.some_only,
                             skip_collection=args.skip)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.durability is not None and args.db_dir is None:
        print("error: --durability requires --db-dir", file=sys.stderr)
        return 2
    if args.db_dir is not None:
        # Recover (checkpoint generation + WAL replay) and auto-journal.
        fsync = args.durability or "never"
        try:
            client = DocDBClient.open(args.db_dir, fsync=fsync)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        report = client.recovery_report
        assert report is not None
        print(
            f"durable database: wal fsync={fsync}, "
            f"recovered to lsn {report.last_lsn} "
            f"({report.records_replayed} records replayed"
            + (
                f", {report.torn_bytes_truncated} torn bytes rolled back)"
                if report.torn_bytes_truncated
                else ")"
            )
        )
    else:
        client = DocDBClient()
    db = client[config.database]
    n_servers = seed_servers(db)
    host = ScionHost.scionlab(seed=args.seed)
    print(f"local address: {host.address()}  servers: {n_servers}")

    signer = None
    signer_subject = ""
    if args.sign:
        from repro.crypto.rsa import RSAKeyPair
        from repro.docdb.auth import SignedDocumentVerifier
        from repro.scionlab.coordinator import Coordinator
        from repro.suite.config import STATS_COLLECTION
        from repro.util.rng import RngStreams

        coordinator = Coordinator(host.topology, seed=args.seed)
        signer_subject = str(host.local_ia)
        signer = RSAKeyPair.generate(
            RngStreams(args.seed).get("suite-signer"), bits=256
        )
        certificate = coordinator.issue_as_certificate(
            host.local_ia, signer.public
        )
        # Anyone can check the writer key against the ISD trust root...
        coordinator.trust_store().verify_certificate([certificate])
        # ...and the stats collection now refuses unsigned documents.
        verifier = SignedDocumentVerifier()
        verifier.register_writer(signer_subject, signer.public)
        db[STATS_COLLECTION].validator = verifier
        print(f"signing stats as {signer_subject} "
              f"(key {signer.public.fingerprint()}, PKC verified)")

    try:
        if not args.skip:
            collection = PathsCollector(host, db, config).collect()
            print(
                f"collected {collection.paths_stored} paths over "
                f"{collection.destinations} destinations "
                f"({collection.paths_deleted} stale deleted, "
                f"{len(collection.failures)} failures)"
            )
        report = TestRunner(
            host, db, config, signer=signer, signer_subject=signer_subject
        ).run()
        print(
            f"campaign: {report.stats_stored} stats stored, "
            f"{report.paths_tested} path tests, "
            f"{report.stats_lost} lost, {report.measurement_errors} errors, "
            f"{report.sim_seconds:.1f} simulated seconds"
        )
        if args.metrics:
            block = format_metrics(report.metrics, indent="  ")
            print("metrics:" + ("\n" + block if block else " (none)"))
            db_block = format_database_stats(database_stats_snapshot(db))
            if db_block:
                print(db_block)
            wal_block = format_wal_stats(wal_stats_snapshot(client))
            if wal_block:
                print(wal_block)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if client.is_durable:
            # Every flushed batch is already on the OS side of the WAL;
            # close without checkpointing so the next open replays it.
            client.close()
        return 1

    if client.is_durable:
        result = client.checkpoint()
        client.close()
        print(
            f"database checkpointed under {args.db_dir} "
            f"(lsn {result.checkpoint_lsn}, "
            f"{result.segments_removed} WAL segment(s) compacted)"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

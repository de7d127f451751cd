"""An embedded MongoDB-equivalent document store.

The paper stores all measurements in MongoDB (§4.2.1) — three
collections (``availableServers``, ``paths``, ``paths_stats``), compound
string ids, heterogeneous documents, and later queries for path
selection.  This package provides the same surface offline:

* Mongo-style filter documents (``$gt``, ``$in``, ``$regex``, ``$or``,
  dotted paths, ...); writes are inserts, whole-document replacements
  (``replace_one``, with upsert) and deletes — the writes the paper's
  test-suite issues (§4.2.2),
* one index structure, :class:`Index`, over one or more fields (a
  single-field index is the one-field case), with cost-based query
  planning (selectivity estimates from index cardinality statistics)
  and ``Collection.explain()`` plan documents,
* an LRU query-result cache with epoch-based invalidation (one epoch
  bump per write *operation*, so batched campaign flushes invalidate
  once per batch),
* the aggregation stages path selection uses (``$match``, ``$group``,
  ``$sort``, ``$limit``, ``$skip``, ``$count``) with leading-``$match``
  index pushdown,
* JSONL snapshots plus a checksummed write-ahead log with crash recovery,
* certificate-based write access control and signed-document
  verification (the paper's §4.1.4 security design).

See ``docs/DATABASE.md`` for the complete query-language reference.
"""

from repro.docdb.document import new_object_id, normalize_document
from repro.docdb.query import matches, supported_operators
from repro.docdb.collection import Collection, InsertManyResult, UpdateResult, DeleteResult
from repro.docdb.index import Index
from repro.docdb.planner import QueryPlanner, format_plan
from repro.docdb.cache import QueryCache, freeze
from repro.docdb.database import Database
from repro.docdb.client import DocDBClient
from repro.docdb.storage import JsonlStore
from repro.docdb.wal import WAL_OPS, WalRecord, WalWriter
from repro.docdb.recovery import (
    Checkpoint,
    CheckpointResult,
    RecoveryManager,
    RecoveryReport,
    run_checkpoint,
)
from repro.docdb.auth import AccessController, Role, SignedDocumentVerifier

__all__ = [
    "new_object_id",
    "normalize_document",
    "matches",
    "supported_operators",
    "Collection",
    "InsertManyResult",
    "UpdateResult",
    "DeleteResult",
    "Index",
    "QueryPlanner",
    "QueryCache",
    "format_plan",
    "freeze",
    "Database",
    "DocDBClient",
    "JsonlStore",
    "WalWriter",
    "WalRecord",
    "WAL_OPS",
    "RecoveryManager",
    "RecoveryReport",
    "Checkpoint",
    "CheckpointResult",
    "run_checkpoint",
    "AccessController",
    "Role",
    "SignedDocumentVerifier",
]

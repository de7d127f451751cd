"""Collections: the Mongo-like document container.

Thread-safe (one RLock per collection, so clients that share a store
from several threads never interleave a mutation), with single-field
and compound indexes, a
cost-based query planner (:mod:`repro.docdb.planner`), an LRU+TTL
query-result cache with epoch-based invalidation
(:mod:`repro.docdb.cache`), and an optional document validator hook
used by the signed statistics pipeline (§4.1.4).

Write/epoch contract (the cache-invalidation backbone):

* every mutating *operation* bumps the collection ``epoch`` exactly
  once — in particular one ``insert_many`` batch is one bump, which is
  what lets :class:`~repro.suite.storage.StatsRepository` flush a whole
  destination's measurements while invalidating cached selection
  queries only once per batch (§4.2.2);
* cached ``find``/``aggregate``/``count_documents`` results remember
  the epoch they were computed under and are never served across a
  bump.

Query statistics (``Collection.stats``):

``inserts``        documents committed
``scans``          full collection scans executed (``COLLSCAN`` plans)
``index_hits``     index-answered queries (``IXSCAN``/``IDHACK`` plans)
``docs_examined``  documents materialised and run through the residual
                   filter — reconciles with ``explain()``'s
                   ``executionStats.docsExamined``
``cache_hits`` / ``cache_misses``   query-result cache outcomes
``explains``       ``explain()`` calls
"""

from __future__ import annotations

import copy
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.docdb.cache import QueryCache, freeze
from repro.docdb.document import get_path, json_deepcopy, normalize_document
from repro.docdb.index import CompoundIndex, FieldIndex
from repro.docdb.planner import (
    STAGE_COLLSCAN,
    STAGE_FILTER,
    CandidatePlan,
    PlanOutcome,
    QueryPlanner,
)
from repro.docdb.query import matches
from repro.docdb.update import apply_update, is_update_document
from repro.docdb.wal import (
    OP_CREATE_INDEX,
    OP_DELETE,
    OP_DROP_INDEX,
    OP_INSERT,
    OP_INSERT_MANY,
    OP_UPDATE,
)
from repro.errors import DuplicateKeyError, QueryError, StorageError

SortSpec = Sequence[Tuple[str, int]]

#: Accepted index specifications: a dotted path, a list of paths, or a
#: Mongo-style list of ``(path, direction)`` pairs.
IndexSpec = Union[str, Sequence[str], Sequence[Tuple[str, int]]]


@dataclass(frozen=True)
class InsertOneResult:
    inserted_id: Any


@dataclass(frozen=True)
class InsertManyResult:
    inserted_ids: Tuple[Any, ...]


@dataclass(frozen=True)
class UpdateResult:
    matched_count: int
    modified_count: int
    upserted_id: Any = None


@dataclass(frozen=True)
class DeleteResult:
    deleted_count: int


def _normalize_index_spec(spec: IndexSpec) -> List[Tuple[str, int]]:
    """Canonical ``[(path, direction), ...]`` form of an index spec."""
    if isinstance(spec, str):
        return [(spec, 1)]
    out: List[Tuple[str, int]] = []
    for item in spec:
        if isinstance(item, str):
            out.append((item, 1))
        else:
            path, direction = item
            if direction not in (1, -1):
                raise QueryError(f"index direction must be 1 or -1: {direction}")
            out.append((str(path), int(direction)))
    if not out:
        raise QueryError("index spec must name at least one field")
    return out


def _index_name(fields: List[Tuple[str, int]]) -> str:
    """Mongo-style name — bare path for single-field (seed compat)."""
    if len(fields) == 1:
        return fields[0][0]
    return "_".join(f"{path}_{direction}" for path, direction in fields)


class Collection:
    """One named collection of documents."""

    def __init__(
        self,
        name: str,
        *,
        cache_capacity: int = 256,
        cache_ttl_s: Optional[float] = 60.0,
    ) -> None:
        self.name = name
        self._docs: Dict[Any, Dict[str, Any]] = {}
        self._indexes: Dict[str, Union[FieldIndex, CompoundIndex]] = {}
        self._lock = threading.RLock()
        #: Optional hook run on every inserted/updated document; raise to
        #: reject the write (used for signature verification).
        self.validator: Optional[Callable[[Dict[str, Any]], None]] = None
        #: Counters for the scalability benchmarks (see module docstring).
        self.stats = {
            "inserts": 0,
            "scans": 0,
            "index_hits": 0,
            "docs_examined": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "explains": 0,
        }
        self._planner = QueryPlanner(self)
        self.cache = QueryCache(capacity=cache_capacity, ttl_s=cache_ttl_s)
        self._epoch = 0
        #: Write-ahead-log sink, wired by :meth:`Database.attach_wal`
        #: when the owning client is opened durable.  Called as
        #: ``sink(op, payload)`` after every successful in-memory
        #: mutation (still under the collection lock) — the WAL append
        #: is the operation's commit point.  ``None`` = volatile mode.
        self._wal_sink: Optional[Callable[[str, Dict[str, Any]], None]] = None

    # -- epoch / cache invalidation ---------------------------------------------

    @property
    def epoch(self) -> int:
        """Monotonic write-epoch; bumped once per mutating operation."""
        return self._epoch

    def _bump_epoch(self) -> None:
        """Invalidate cached query results (one bump = one write op)."""
        self._epoch += 1

    def _emit_wal(self, op: str, payload: Dict[str, Any]) -> None:
        """Append the committed operation to the WAL (durable mode only)."""
        if self._wal_sink is not None:
            self._wal_sink(op, payload)

    # -- inserts ----------------------------------------------------------------

    def insert_one(self, doc: Dict[str, Any]) -> InsertOneResult:
        with self._lock:
            stored = self._insert(doc)
            self._bump_epoch()
            return InsertOneResult(inserted_id=stored["_id"])

    def insert_many(self, docs: Iterable[Dict[str, Any]]) -> InsertManyResult:
        """Insert a batch atomically: either all documents land or none.

        This is the operation the paper's §4.2.2 design leans on — the
        runner buffers all statistics for one destination and inserts
        them in a single call.  The whole batch is **one** epoch bump,
        so cached selection queries are invalidated once per flush, not
        once per document.
        """
        with self._lock:
            prepared = [normalize_document(d) for d in docs]
            ids = [d["_id"] for d in prepared]
            if len(set(ids)) != len(ids):
                raise DuplicateKeyError(f"duplicate _id inside batch for {self.name}")
            for d in prepared:
                if d["_id"] in self._docs:
                    raise DuplicateKeyError(f"duplicate _id: {d['_id']!r}")
                if self.validator is not None:
                    self.validator(d)
            for d in prepared:
                self._commit_insert(d)
            if prepared:
                self._bump_epoch()
                # One batch = one WAL record = one atomic unit: recovery
                # either replays the whole flush or rolls it back
                # (§4.2.2's all-or-nothing destination batch).
                self._emit_wal(OP_INSERT_MANY, {"documents": prepared})
            return InsertManyResult(inserted_ids=tuple(ids))

    def load_documents(self, docs: Iterable[Dict[str, Any]]) -> int:
        """Bulk-load freshly-parsed documents (snapshot load, WAL replay).

        :meth:`insert_many` semantics — same validation, duplicate
        checks, validator hook, single epoch bump — minus two things:
        the defensive deep-copy (the loader owns the dicts; they come
        straight out of ``json.loads``) and the WAL emission (loads
        reconstruct state that is already durable; re-journalling it
        would double the log).  Returns the number of documents loaded.
        """
        with self._lock:
            prepared = [normalize_document(d, deep_copy=False) for d in docs]
            ids = [d["_id"] for d in prepared]
            if len(set(ids)) != len(ids):
                raise DuplicateKeyError(f"duplicate _id inside batch for {self.name}")
            for d in prepared:
                if d["_id"] in self._docs:
                    raise DuplicateKeyError(f"duplicate _id: {d['_id']!r}")
                if self.validator is not None:
                    self.validator(d)
            for d in prepared:
                self._commit_insert(d)
            if prepared:
                self._bump_epoch()
            return len(prepared)

    def _insert(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        stored = normalize_document(doc)
        if stored["_id"] in self._docs:
            raise DuplicateKeyError(f"duplicate _id: {stored['_id']!r}")
        if self.validator is not None:
            self.validator(stored)
        self._commit_insert(stored)
        self._emit_wal(OP_INSERT, {"document": stored})
        return stored

    def _commit_insert(self, stored: Dict[str, Any]) -> None:
        self._docs[stored["_id"]] = stored
        for index in self._indexes.values():
            index.add(stored)
        self.stats["inserts"] += 1

    # -- queries ------------------------------------------------------------------

    def find(
        self,
        flt: Optional[Dict[str, Any]] = None,
        projection: Optional[Dict[str, int]] = None,
        *,
        sort: Optional[SortSpec] = None,
        limit: int = 0,
        skip: int = 0,
    ) -> List[Dict[str, Any]]:
        """Return matching documents (deep copies), optionally sorted.

        Results are served from the epoch-keyed query cache when the
        exact same ``(filter, projection, sort, limit, skip)`` was
        answered since the last write.
        """
        flt = flt or {}
        sort_key = tuple((f, d) for f, d in sort) if sort else None
        cache_key = freeze(("find", flt, projection, sort_key, limit, skip))
        with self._lock:
            epoch = self._epoch
            if cache_key is not None:
                cached = self.cache.get(cache_key, epoch)
                if cached is not None:
                    self.stats["cache_hits"] += 1
                    return json_deepcopy(cached)
                self.stats["cache_misses"] += 1
            matched = self._execute_filter(flt)
            out = [json_deepcopy(d) for d in matched]
        if sort:
            out = _sorted_docs(out, sort)
        if skip:
            out = out[skip:]
        if limit:
            out = out[:limit]
        if projection:
            out = [_project(d, projection) for d in out]
        if cache_key is not None:
            with self._lock:
                self.cache.put(cache_key, epoch, out)
            return json_deepcopy(out)
        return out

    def find_one(
        self,
        flt: Optional[Dict[str, Any]] = None,
        projection: Optional[Dict[str, int]] = None,
        *,
        sort: Optional[SortSpec] = None,
    ) -> Optional[Dict[str, Any]]:
        results = self.find(flt, projection, sort=sort, limit=1)
        return results[0] if results else None

    def count_documents(self, flt: Optional[Dict[str, Any]] = None) -> int:
        flt = flt or {}
        with self._lock:
            if not flt:
                return len(self._docs)
            cache_key = freeze(("count", flt))
            epoch = self._epoch
            if cache_key is not None:
                cached = self.cache.get(cache_key, epoch)
                if cached is not None:
                    self.stats["cache_hits"] += 1
                    return cached
                self.stats["cache_misses"] += 1
            n = len(self._execute_filter(flt))
            if cache_key is not None:
                self.cache.put(cache_key, epoch, n)
            return n

    def distinct(self, field_path: str, flt: Optional[Dict[str, Any]] = None) -> List[Any]:
        seen: List[Any] = []
        for doc in self.find(flt):
            found, value = get_path(doc, field_path)
            if not found:
                continue
            values = value if isinstance(value, list) else [value]
            for v in values:
                if v not in seen:
                    seen.append(v)
        return seen

    # -- planner ---------------------------------------------------------------------

    def _execute_filter(self, flt: Dict[str, Any]) -> List[Dict[str, Any]]:
        """Plan, fetch candidates, apply the residual filter, count stats.

        Must be called under ``self._lock``.  ``scans`` counts only full
        collection scans; index-answered queries count ``index_hits``;
        ``docs_examined`` counts documents actually materialised — the
        numbers ``explain()`` reports.
        """
        outcome = self._planner.plan(flt)
        return self._run_plan(outcome.winning, flt)

    def _run_plan(
        self, plan: CandidatePlan, flt: Dict[str, Any]
    ) -> List[Dict[str, Any]]:
        candidates, examined = self._planner.fetch(plan)
        if plan.stage == STAGE_COLLSCAN:
            self.stats["scans"] += 1
        else:
            self.stats["index_hits"] += 1
        self.stats["docs_examined"] += examined
        return [d for d in candidates if matches(d, flt)]

    def explain(self, flt: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Plan *and execute* ``flt``, returning a structured plan document.

        The document mirrors Mongo's ``explain("executionStats")`` shape:
        a ``winningPlan`` stage tree (residual ``FILTER`` over the access
        stage), ``rejectedPlans`` with their selectivity estimates, and
        ``executionStats`` whose ``docsExamined`` is exactly the number
        of documents the query materialised (it reconciles with the
        ``docs_examined`` counter in :attr:`stats`).
        """
        flt = flt or {}
        with self._lock:
            self.stats["explains"] += 1
            outcome: PlanOutcome = self._planner.plan(flt)
            docs_before = self.stats["docs_examined"]
            results = self._run_plan(outcome.winning, flt)
            examined = self.stats["docs_examined"] - docs_before
            return {
                "namespace": self.name,
                "filter": copy.deepcopy(flt),
                "plannerVersion": 1,
                "winningPlan": {
                    "stage": STAGE_FILTER,
                    "inputStage": outcome.winning.stage_document(),
                },
                "rejectedPlans": [
                    {"stage": STAGE_FILTER, "inputStage": p.stage_document()}
                    for p in outcome.rejected
                ],
                "executionStats": {
                    "nReturned": len(results),
                    "docsExamined": examined,
                    "totalDocsInCollection": len(self._docs),
                },
                "cache": self.cache.info(),
                "epoch": self._epoch,
            }

    # -- updates -------------------------------------------------------------------------

    def update_one(
        self,
        flt: Dict[str, Any],
        update: Dict[str, Any],
        *,
        upsert: bool = False,
    ) -> UpdateResult:
        return self._update(flt, update, multi=False, upsert=upsert)

    def update_many(
        self,
        flt: Dict[str, Any],
        update: Dict[str, Any],
        *,
        upsert: bool = False,
    ) -> UpdateResult:
        return self._update(flt, update, multi=True, upsert=upsert)

    def replace_one(
        self, flt: Dict[str, Any], replacement: Dict[str, Any], *, upsert: bool = False
    ) -> UpdateResult:
        if is_update_document(replacement):
            raise QueryError("replacement document cannot contain operators")
        return self._update(flt, replacement, multi=False, upsert=upsert)

    def _update(
        self,
        flt: Dict[str, Any],
        update: Dict[str, Any],
        *,
        multi: bool,
        upsert: bool,
    ) -> UpdateResult:
        with self._lock:
            matched = 0
            modified = 0
            changed: List[Dict[str, Any]] = []
            for doc in self._execute_filter(flt):
                matched += 1
                new_doc = apply_update(doc, update)
                if new_doc != doc:
                    if self.validator is not None:
                        self.validator(new_doc)
                    self._replace_committed(doc, new_doc)
                    changed.append(new_doc)
                    modified += 1
                if not multi:
                    break
            if matched == 0 and upsert:
                seed = {
                    k: v
                    for k, v in flt.items()
                    if not k.startswith("$") and not isinstance(v, dict)
                }
                new_doc = apply_update(seed, update) if is_update_document(update) else {
                    **seed,
                    **update,
                }
                stored = self._insert(new_doc)
                self._bump_epoch()
                return UpdateResult(0, 0, upserted_id=stored["_id"])
            if modified:
                self._bump_epoch()
                # Physiological logging: the WAL stores the *resulting*
                # documents, so replay is exact regardless of planner
                # candidate order or update-operator re-evaluation.
                self._emit_wal(OP_UPDATE, {"docs": changed})
            return UpdateResult(matched, modified)

    def _replace_committed(self, old: Dict[str, Any], new: Dict[str, Any]) -> None:
        for index in self._indexes.values():
            index.remove(old)
        self._docs[new["_id"]] = new
        for index in self._indexes.values():
            index.add(new)

    # -- deletes -----------------------------------------------------------------------------

    def delete_one(self, flt: Dict[str, Any]) -> DeleteResult:
        return self._delete(flt, multi=False)

    def delete_many(self, flt: Optional[Dict[str, Any]] = None) -> DeleteResult:
        return self._delete(flt or {}, multi=True)

    def _delete(self, flt: Dict[str, Any], *, multi: bool) -> DeleteResult:
        with self._lock:
            victims = self._execute_filter(flt)
            if not multi:
                victims = victims[:1]
            for doc in victims:
                del self._docs[doc["_id"]]
                for index in self._indexes.values():
                    index.remove(doc)
            if victims:
                self._bump_epoch()
                self._emit_wal(OP_DELETE, {"ids": [d["_id"] for d in victims]})
            return DeleteResult(deleted_count=len(victims))

    # -- indexes --------------------------------------------------------------------------------

    def create_index(self, spec: IndexSpec, *, unique: bool = False) -> str:
        """Create a single-field or compound index; returns its name.

        ``spec`` accepts a dotted path (``"server_id"``), a list of
        paths (``["server_id", "timestamp_ms"]``) or Mongo-style
        ``[("server_id", 1), ("timestamp_ms", 1)]`` pairs.  Single-field
        indexes keep the bare path as their name (seed compatibility);
        compound names follow Mongo (``server_id_1_timestamp_ms_1``).
        """
        fields = _normalize_index_spec(spec)
        name = _index_name(fields)
        with self._lock:
            if name not in self._indexes:
                paths = [f for f, _ in fields]
                index: Union[FieldIndex, CompoundIndex]
                if len(paths) == 1:
                    index = FieldIndex(paths[0], unique=unique)
                else:
                    index = CompoundIndex(paths, unique=unique)
                for doc in self._docs.values():
                    index.add(doc)
                self._indexes[name] = index
                self._bump_epoch()  # plans change; drop cached decisions
                self._emit_wal(
                    OP_CREATE_INDEX,
                    {"fields": [[f, d] for f, d in fields], "unique": unique},
                )
            return name

    def drop_index(self, spec: IndexSpec) -> None:
        """Drop an index by name or by the spec used to create it."""
        if isinstance(spec, str):
            name = spec
        else:
            name = _index_name(_normalize_index_spec(spec))
        with self._lock:
            if self._indexes.pop(name, None) is not None:
                self._bump_epoch()
                self._emit_wal(OP_DROP_INDEX, {"name": name})

    def list_indexes(self) -> List[str]:
        return sorted(self._indexes)

    def index_information(self) -> Dict[str, Dict[str, Any]]:
        """Index metadata: ``{name: {"fields": [(path, 1), ...], "unique"}}``."""
        with self._lock:
            return {
                name: {
                    "fields": [(f, 1) for f in index.fields],
                    "unique": index.unique,
                }
                for name, index in sorted(self._indexes.items())
            }

    # -- WAL replay (recovery-only entry points) ----------------------------------------------------

    def replay_update(self, docs: Sequence[Dict[str, Any]]) -> None:
        """Re-apply a physiologically-logged ``OP_UPDATE`` record.

        Each ``doc`` replaces the stored document with the same ``_id``
        (indexes maintained).  Only :class:`~repro.docdb.recovery.
        RecoveryManager` calls this; a missing target means the log
        diverged from the snapshot and is surfaced as corruption.
        """
        with self._lock:
            for new_doc in docs:
                old = self._docs.get(new_doc["_id"])
                if old is None:
                    raise StorageError(
                        f"WAL replay: update targets unknown _id "
                        f"{new_doc['_id']!r} in collection {self.name!r}"
                    )
                self._replace_committed(old, copy.deepcopy(new_doc))
            if docs:
                self._bump_epoch()
                self._emit_wal(OP_UPDATE, {"docs": list(docs)})

    def replay_delete(self, ids: Sequence[Any]) -> None:
        """Re-apply an ``OP_DELETE`` record (delete by logged ids)."""
        with self._lock:
            removed = []
            for _id in ids:
                doc = self._docs.pop(_id, None)
                if doc is None:
                    raise StorageError(
                        f"WAL replay: delete targets unknown _id {_id!r} "
                        f"in collection {self.name!r}"
                    )
                for index in self._indexes.values():
                    index.remove(doc)
                removed.append(_id)
            if removed:
                self._bump_epoch()
                self._emit_wal(OP_DELETE, {"ids": removed})

    # -- aggregation --------------------------------------------------------------------------------

    def aggregate(self, pipeline: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Run an aggregation pipeline.

        A leading ``$match`` stage is pushed down into :meth:`find` so
        it can use an index instead of scanning the collection — this is
        what keeps the best-path selection query (``$match`` on
        ``server_id`` over ``paths_stats``) off the full-scan path.
        Results are cached like ``find`` (pipelines containing live
        objects, e.g. a ``$lookup`` ``from`` collection, are exempt).
        """
        from repro.docdb.aggregate import run_pipeline, split_leading_match

        cache_key = freeze(("aggregate", pipeline))
        with self._lock:
            epoch = self._epoch
            if cache_key is not None:
                cached = self.cache.get(cache_key, epoch)
                if cached is not None:
                    self.stats["cache_hits"] += 1
                    return json_deepcopy(cached)
                self.stats["cache_misses"] += 1
        match, rest = split_leading_match(pipeline)
        docs = self.find(match)
        out = run_pipeline(docs, rest)
        if cache_key is not None:
            with self._lock:
                self.cache.put(cache_key, epoch, out)
            return json_deepcopy(out)
        return out

    # -- misc -------------------------------------------------------------------------------------------

    def all_documents(self) -> List[Dict[str, Any]]:
        """Snapshot of every document (deep copies), in insertion order."""
        with self._lock:
            return [json_deepcopy(d) for d in self._docs.values()]

    def __len__(self) -> int:
        return len(self._docs)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Collection({self.name!r}, n={len(self._docs)})"


# -- helpers --------------------------------------------------------------------


def _sorted_docs(docs: List[Dict[str, Any]], sort: SortSpec) -> List[Dict[str, Any]]:
    out = docs
    for field_path, direction in reversed(list(sort)):
        if direction not in (1, -1):
            raise QueryError(f"sort direction must be 1 or -1: {direction}")
        out = sorted(
            out,
            key=lambda d: _sort_key(d, field_path),
            reverse=direction == -1,
        )
    return out


def _sort_key(doc: Dict[str, Any], path: str) -> Tuple:
    found, value = get_path(doc, path)
    if not found or value is None:
        return (0, 0.0, "")
    if isinstance(value, bool):
        return (1, float(value), "")
    if isinstance(value, (int, float)):
        return (1, float(value), "")
    if isinstance(value, str):
        return (2, 0.0, value)
    return (3, 0.0, repr(value))


def _project(doc: Dict[str, Any], projection: Dict[str, int]) -> Dict[str, Any]:
    include = {k for k, v in projection.items() if v}
    exclude = {k for k, v in projection.items() if not v}
    if include and exclude - {"_id"}:
        raise QueryError("cannot mix inclusion and exclusion projections")
    if include:
        out: Dict[str, Any] = {}
        for path in include:
            found, value = get_path(doc, path)
            if found:
                out[path] = json_deepcopy(value)
        if "_id" not in exclude and "_id" in doc:
            out["_id"] = doc["_id"]
        return out
    return {k: v for k, v in doc.items() if k not in exclude}

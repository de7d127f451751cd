"""Collections: the Mongo-like document container.

Single-threaded (no locks: one thread owns a store at a time), with
indexes over one or more fields (:class:`~repro.docdb.index.Index`), a
cost-based query planner (:mod:`repro.docdb.planner`), an LRU
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
  bump.  Every mutating path bumps — inserts, replacements, deletes,
  ``create_index``/``drop_index``, bulk loads and WAL replay — so a
  cached result is always exact and needs no expiry;
* a write that only inserted documents (``insert_one``,
  ``insert_many``, ``load_documents``, an upsert) bumps as an
  *append*: a kept ``$group`` state may fold the appended documents in
  (:meth:`Collection.aggregate`), and every other write makes it
  rebuild.

Copy contract: a document crosses the collection boundary as one copy
each way.  Writes store the validating copy that
:func:`~repro.docdb.document.normalize_document` builds; every public
read (``find``, ``find_one``, ``aggregate``, ``distinct``,
``all_documents``) copies its result once on the way out.  Internally,
queries and the query cache pass the *stored* documents by reference.
That is safe only because a stored document is never edited in place:
``replace_one`` and WAL replay swap in a new dict, and deletes drop it.
Keep it so — an in-place edit would leak into cached results.

Query statistics (``Collection.stats``):

``inserts``        documents committed
``scans``          full collection scans executed (``COLLSCAN`` plans)
``index_hits``     index-answered queries (``IXSCAN``/``IDHACK`` plans)
``docs_examined``  documents materialised and run through the residual
                   filter, by a plan or by a ``$group`` fold
                   (:meth:`Collection.aggregate`) — a plan's count
                   reconciles with ``explain()``'s
                   ``executionStats.docsExamined``
``explains``       ``explain()`` calls

Query-result cache outcomes are counted once, by the cache itself
(``Collection.cache.hits`` / ``.misses``).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from itertools import islice
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.docdb.cache import QueryCache, freeze
from repro.docdb.document import get_path, json_deepcopy, normalize_document
from repro.docdb.index import Index
from repro.docdb.planner import (
    STAGE_COLLSCAN,
    STAGE_FILTER,
    CandidatePlan,
    PlanOutcome,
    QueryPlanner,
)
from repro.docdb.query import matches
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


def is_update_document(doc: Dict[str, Any]) -> bool:
    """True when ``doc`` uses ``$`` operators (vs. a full replacement)."""
    return isinstance(doc, dict) and any(k.startswith("$") for k in doc)


def _index_name(fields: List[Tuple[str, int]]) -> str:
    """Mongo-style name — bare path for single-field (seed compat)."""
    if len(fields) == 1:
        return fields[0][0]
    return "_".join(f"{path}_{direction}" for path, direction in fields)


class Collection:
    """One named collection of documents."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._docs: Dict[Any, Dict[str, Any]] = {}
        self._indexes: Dict[str, Index] = {}
        #: Optional hook run on every inserted or replacement document; raise to
        #: reject the write (used for signature verification).
        self.validator: Optional[Callable[[Dict[str, Any]], None]] = None
        #: Counters for the scalability benchmarks (see module docstring).
        self.stats = {
            "inserts": 0,
            "scans": 0,
            "index_hits": 0,
            "docs_examined": 0,
            "explains": 0,
        }
        self._planner = QueryPlanner(self)
        self.cache = QueryCache()
        self._epoch = 0
        #: The epoch since which every write only inserted documents
        #: (see :meth:`aggregate`).
        self._appends_since = 0
        #: Write-ahead-log sink, wired by :meth:`Database.attach_wal`
        #: when the owning client is opened durable.  Called as
        #: ``sink(op, payload)`` after every successful in-memory
        #: mutation — the WAL append is the operation's commit point.
        #: ``None`` = volatile mode.
        self._wal_sink: Optional[Callable[[str, Dict[str, Any]], None]] = None

    # -- epoch / cache invalidation ---------------------------------------------

    @property
    def epoch(self) -> int:
        """Monotonic write-epoch; bumped once per mutating operation."""
        return self._epoch

    def _bump_epoch(self, *, appended: bool = False) -> None:
        """Invalidate cached query results (one bump = one write op).

        ``appended`` marks a write that only inserted documents, which
        kept ``$group`` columns may fold in; any other write makes them
        rebuild.
        """
        self._epoch += 1
        if not appended:
            self._appends_since = self._epoch

    def _emit_wal(self, op: str, payload: Dict[str, Any]) -> None:
        """Append the committed operation to the WAL (durable mode only)."""
        if self._wal_sink is not None:
            self._wal_sink(op, payload)

    # -- inserts ----------------------------------------------------------------

    def insert_one(self, doc: Dict[str, Any]) -> InsertOneResult:
        stored = self._insert(doc)
        self._bump_epoch(appended=True)
        return InsertOneResult(inserted_id=stored["_id"])

    def insert_many(self, docs: Iterable[Dict[str, Any]]) -> InsertManyResult:
        """Insert a batch atomically: either all documents land or none.

        This is the operation the paper's §4.2.2 design leans on — the
        runner buffers all statistics for one destination and inserts
        them in a single call.  The whole batch is **one** epoch bump,
        so cached selection queries are invalidated once per flush, not
        once per document.
        """
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
            self._bump_epoch(appended=True)
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
            self._bump_epoch(appended=True)
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
        *,
        sort: Optional[SortSpec] = None,
        limit: int = 0,
        skip: int = 0,
    ) -> List[Dict[str, Any]]:
        """Return copies of the matching documents, optionally sorted.

        Results are served from the epoch-keyed query cache when the
        exact same ``(filter, sort, limit, skip)`` was
        answered since the last write.
        """
        return [
            json_deepcopy(d)
            for d in self._find_stored(flt, sort=sort, limit=limit, skip=skip)
        ]

    def _find_stored(
        self,
        flt: Optional[Dict[str, Any]] = None,
        *,
        sort: Optional[SortSpec] = None,
        limit: int = 0,
        skip: int = 0,
    ) -> List[Dict[str, Any]]:
        """The matching *stored* documents: read-only, never returned to
        callers uncopied.  The query cache holds these lists."""
        flt = flt or {}
        sort_key = tuple((f, d) for f, d in sort) if sort else None
        cache_key = freeze(("find", flt, sort_key, limit, skip))
        epoch = self._epoch
        if cache_key is not None:
            cached = self.cache.get(cache_key, epoch)
            if cached is not None:
                return cached
        out = self._execute_filter(flt)
        if sort:
            out = _sorted_docs(out, sort)
        if skip:
            out = out[skip:]
        if limit:
            out = out[:limit]
        if cache_key is not None:
            self.cache.put(cache_key, epoch, out)
        return out

    def find_one(
        self,
        flt: Optional[Dict[str, Any]] = None,
        *,
        sort: Optional[SortSpec] = None,
    ) -> Optional[Dict[str, Any]]:
        results = self.find(flt, sort=sort, limit=1)
        return results[0] if results else None

    def count_documents(self, flt: Optional[Dict[str, Any]] = None) -> int:
        flt = flt or {}
        if not flt:
            return len(self._docs)
        cache_key = freeze(("count", flt))
        epoch = self._epoch
        if cache_key is not None:
            cached = self.cache.get(cache_key, epoch)
            if cached is not None:
                return cached
        n = len(self._execute_filter(flt))
        if cache_key is not None:
            self.cache.put(cache_key, epoch, n)
        return n

    def distinct(self, field_path: str, flt: Optional[Dict[str, Any]] = None) -> List[Any]:
        seen: List[Any] = []
        for doc in self._find_stored(flt):
            found, value = get_path(doc, field_path)
            if not found:
                continue
            values = value if isinstance(value, list) else [value]
            for v in values:
                if v not in seen:
                    seen.append(v)
        return json_deepcopy(seen)

    # -- planner ---------------------------------------------------------------------

    def _execute_filter(self, flt: Dict[str, Any]) -> List[Dict[str, Any]]:
        """Plan, fetch candidates, apply the residual filter, count stats.

        ``scans`` counts only full collection scans; index-answered
        queries count ``index_hits``; ``docs_examined`` counts documents
        actually materialised — the numbers ``explain()`` reports.
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

    # -- replacement ---------------------------------------------------------------------

    def replace_one(
        self, flt: Dict[str, Any], replacement: Dict[str, Any], *, upsert: bool = False
    ) -> UpdateResult:
        """Replace the first document matching ``flt`` with a validated
        copy of ``replacement`` that keeps the stored ``_id``.

        With ``upsert`` and no match, the filter's plain equality fields
        plus ``replacement`` are inserted instead.  Replacing a document
        with an equal one is a no-op: no WAL record, no epoch bump.
        """
        new_doc = normalize_document(replacement, ensure_id=False)
        if is_update_document(new_doc):
            raise QueryError("replacement document cannot contain operators")
        for doc in self._execute_filter(flt):
            new_doc["_id"] = doc["_id"]
            if new_doc == doc:
                return UpdateResult(1, 0)
            if self.validator is not None:
                self.validator(new_doc)
            self._replace_committed(doc, new_doc)
            self._bump_epoch()
            # Physiological logging: the WAL stores the resulting
            # document, so replay never re-runs the filter.
            self._emit_wal(OP_UPDATE, {"docs": [new_doc]})
            return UpdateResult(1, 1)
        if upsert:
            seed = {
                k: v
                for k, v in flt.items()
                if not k.startswith("$") and not isinstance(v, dict)
            }
            stored = self._insert({**seed, **new_doc})
            self._bump_epoch(appended=True)
            return UpdateResult(0, 0, upserted_id=stored["_id"])
        return UpdateResult(0, 0)

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
        """Create an index over one or more fields; returns its name.

        ``spec`` accepts a dotted path (``"server_id"``), a list of
        paths (``["server_id", "timestamp_ms"]``) or Mongo-style
        ``[("server_id", 1), ("timestamp_ms", 1)]`` pairs.  Every spec
        builds the same :class:`~repro.docdb.index.Index`.  A one-field
        index keeps the bare path as its name (seed compatibility);
        multi-field names follow Mongo (``server_id_1_timestamp_ms_1``).
        """
        fields = _normalize_index_spec(spec)
        name = _index_name(fields)
        if name not in self._indexes:
            index = Index([f for f, _ in fields], unique=unique)
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
        if self._indexes.pop(name, None) is not None:
            self._bump_epoch()
            self._emit_wal(OP_DROP_INDEX, {"name": name})

    def index_information(self) -> Dict[str, Dict[str, Any]]:
        """Index metadata: ``{name: {"fields": [(path, 1), ...], "unique"}}``."""
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

        A leading ``$match`` stage is pushed down into the query planner
        (the stored-document read behind :meth:`find`) so it can use an
        index instead of scanning the collection — this is
        what keeps the best-path selection query (``$match`` on
        ``server_id`` over ``paths_stats``) off the full-scan path.
        Results are cached like ``find`` (a pipeline holding a value
        :func:`~repro.docdb.cache.freeze` cannot freeze is exempt).

        A ``$group`` that follows the leading ``$match`` (or leads the
        pipeline) reads the matched documents in storage order,
        whichever plan fetched them, and its cache entry keeps the
        group's columns (:class:`~repro.docdb.aggregate.GroupColumns`)
        with the number of documents stored when they were built.  If
        every write since was an insert, the documents inserted since
        are the tail of storage order, and the answer folds those that
        pass the ``$match`` into the kept columns: no planner call, no
        index, no sort.  Any other write (replace, delete, replay,
        ``create_index``/``drop_index``) and a cold cache rebuild the
        columns.  Like a rebuild, a fold counts as a cache miss.
        """
        from repro.docdb.aggregate import GroupColumns, run_pipeline, split_leading_match

        cache_key = freeze(("aggregate", pipeline))
        epoch = self._epoch
        entry = None if cache_key is None else self.cache.entry(cache_key, epoch)
        if entry is not None and entry[0] == epoch:
            return json_deepcopy(entry[1][0])
        match, rest = split_leading_match(pipeline)
        group = _leading_group(rest)
        # The stages build new lists and group documents but never
        # edit their inputs, so they run over the stored documents;
        # the result may share their values until the copy below.
        if group is None:
            out, kept = run_pipeline(self._find_stored(match), rest), None
        else:
            if entry is not None and entry[0] >= self._appends_since:
                columns, n_docs = entry[1][1]
                tail = list(
                    islice(reversed(self._docs.values()), len(self._docs) - n_docs)
                )
                self.stats["docs_examined"] += len(tail)
                columns.fold(d for d in reversed(tail) if matches(d, match))
            else:
                columns = GroupColumns(group)
                columns.fold(self._stored_in_storage_order(match))
            kept = (columns, len(self._docs))
            out = run_pipeline(columns.finish(), rest[1:])
        if cache_key is not None:
            self.cache.put(cache_key, epoch, (out, kept))
        return json_deepcopy(out)

    def _stored_in_storage_order(self, flt: Dict[str, Any]) -> List[Dict[str, Any]]:
        """The stored documents matching ``flt``, in ``_docs`` order
        whichever plan fetched them."""
        matched = self._execute_filter(flt)
        if len(matched) == len(self._docs):
            return list(self._docs.values())
        wanted = {id(d) for d in matched}
        return [d for d in self._docs.values() if id(d) in wanted]

    # -- misc -------------------------------------------------------------------------------------------

    def all_documents(self) -> List[Dict[str, Any]]:
        """Snapshot of every document (deep copies), in insertion order."""
        return [json_deepcopy(d) for d in self._docs.values()]

    def __len__(self) -> int:
        return len(self._docs)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Collection({self.name!r}, n={len(self._docs)})"


# -- helpers --------------------------------------------------------------------


def _leading_group(stages: List[Dict[str, Any]]) -> Optional[Any]:
    """The spec of a ``$group`` stage at the head of ``stages``, or None."""
    if stages and isinstance(stages[0], dict) and len(stages[0]) == 1:
        return stages[0].get("$group")
    return None


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

"""Cost-based query planning over the collection's indexes.

The planner answers one question per query: *which access path touches
the fewest documents?*  It extracts the sargable conjuncts of a filter
(top-level equality, ``$in`` over scalars, and same-typed
``$gt``/``$gte``/``$lt``/``$lte`` ranges) and builds one candidate plan
per applicable index.  Every index — one field or several — contributes
its longest usable *leading prefix* of equalities, optionally
``$in``- or range-bound on the field after the prefix, so one plan
builder serves them all.  Each candidate is scored with selectivity
estimates derived from index cardinality statistics (distinct keys and
prefixes, entries per key, the overflow set) and the cheapest plan wins,
falling back to a full collection scan (``COLLSCAN``) when no index
does.

Every plan a query could have used is kept, so
:meth:`~repro.docdb.collection.Collection.explain` can report the
winning plan *and* the rejected ones with their estimates, Mongo
``explain()``-style.

Correctness contract: an index only ever *narrows* the candidate set to
a superset of the true matches; the residual ``FILTER`` stage re-checks
every candidate with :func:`repro.docdb.query.matches`.  Documents an
index could not key (its overflow set) are always candidates.
Conditions the index cannot answer exactly (array-equality, ``$ne``,
``$regex``, …) are simply not sargable and fall through to that
residual check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    KeysView,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.docdb.index import Index

_RANGE_OPS = ("$gt", "$gte", "$lt", "$lte")

#: Stage names, mirroring MongoDB's explain vocabulary.
STAGE_IDHACK = "IDHACK"      # point lookup on the primary-key map
STAGE_IXSCAN = "IXSCAN"      # secondary-index scan
STAGE_COLLSCAN = "COLLSCAN"  # full collection scan
STAGE_FILTER = "FILTER"      # residual predicate re-check

_STAGE_RANK = {STAGE_IDHACK: 0, STAGE_IXSCAN: 1, STAGE_COLLSCAN: 2}


def _is_scalar(value: Any) -> bool:
    return not isinstance(value, (dict, list, tuple))


@dataclass(frozen=True)
class Predicate:
    """The sargable part of one top-level filter conjunct."""

    path: str
    #: Scalar equality value (``has_eq`` disambiguates ``None``).
    eq: Any = None
    has_eq: bool = False
    #: ``$in`` over scalars.
    in_values: Optional[Tuple[Any, ...]] = None
    #: Same-typed range bounds, keyed ``gt``/``gte``/``lt``/``lte``.
    bounds: Tuple[Tuple[str, Any], ...] = ()

    @property
    def sargable(self) -> bool:
        return self.has_eq or self.in_values is not None or bool(self.bounds)


def extract_predicates(flt: Dict[str, Any]) -> Dict[str, Predicate]:
    """Sargable conjuncts of ``flt``, keyed by dotted field path.

    Only *top-level* conjuncts participate in planning (Mongo's planner
    does the same for the common case); ``$and``/``$or`` trees and
    negative/array operators stay in the residual filter.
    """
    out: Dict[str, Predicate] = {}
    for path, condition in flt.items():
        if path.startswith("$"):
            continue
        pred = _predicate_of(path, condition)
        if pred is not None and pred.sargable:
            out[path] = pred
    return out


def _predicate_of(path: str, condition: Any) -> Optional[Predicate]:
    if not isinstance(condition, dict):
        if _is_scalar(condition):
            return Predicate(path=path, eq=condition, has_eq=True)
        return None  # array/object equality: not index-exact (see query.py)
    if not any(k.startswith("$") for k in condition):
        return None  # literal sub-document equality
    if "$eq" in condition and _is_scalar(condition["$eq"]):
        return Predicate(path=path, eq=condition["$eq"], has_eq=True)
    in_operand = condition.get("$in")
    if isinstance(in_operand, (list, tuple)) and all(
        _is_scalar(v) for v in in_operand
    ):
        return Predicate(path=path, in_values=tuple(in_operand))
    bounds = tuple(
        (op.lstrip("$"), condition[op]) for op in _RANGE_OPS if op in condition
    )
    if bounds and _typed_bounds(bounds):
        return Predicate(path=path, bounds=bounds)
    return None


def _typed_bounds(bounds: Sequence[Tuple[str, Any]]) -> bool:
    """True when every bound is comparable within one index type lane."""
    values = [v for _, v in bounds]
    all_numbers = all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
    )
    all_strings = all(isinstance(v, str) for v in values)
    return all_numbers or all_strings


@dataclass
class CandidatePlan:
    """One scored access path (winning or rejected)."""

    stage: str
    estimated_docs: float
    index_name: Optional[str] = None
    key_pattern: Optional[Dict[str, int]] = None
    #: Human-readable per-field bounds, e.g. ``{"server_id": "[3, 3]"}``.
    index_bounds: Dict[str, str] = field(default_factory=dict)
    #: How many leading index fields the plan pins (prefix length).
    prefix_len: int = 0
    #: Materialises the candidate ids in index order (None for
    #: COLLSCAN/IDHACK).
    _ids: Optional[Callable[[], KeysView[Any]]] = None
    #: Point-lookup key for IDHACK plans.
    _point_id: Any = None

    def sort_key(self) -> Tuple[float, int, int, str]:
        return (
            self.estimated_docs,
            _STAGE_RANK[self.stage],
            -self.prefix_len,
            self.index_name or "",
        )

    def stage_document(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "stage": self.stage,
            "estimatedDocsExamined": round(self.estimated_docs, 2),
        }
        if self.index_name is not None:
            doc["indexName"] = self.index_name
            doc["keyPattern"] = dict(self.key_pattern or {})
            doc["indexBounds"] = dict(self.index_bounds)
        return doc


@dataclass
class PlanOutcome:
    """The planner's decision for one filter."""

    winning: CandidatePlan
    rejected: List[CandidatePlan] = field(default_factory=list)


class QueryPlanner:
    """Scores candidate indexes for a collection's queries.

    Owns no state beyond a reference to its collection; all cardinality
    statistics live in the indexes themselves so estimates always
    reflect the current data.
    """

    def __init__(self, collection: "Any") -> None:
        self._coll = collection

    # -- planning ------------------------------------------------------------

    def plan(self, flt: Dict[str, Any]) -> PlanOutcome:
        """Choose the cheapest access path for ``flt``."""
        docs = self._coll._docs
        n_docs = len(docs)
        candidates: List[CandidatePlan] = [
            CandidatePlan(stage=STAGE_COLLSCAN, estimated_docs=float(n_docs))
        ]
        id_condition = flt.get("_id")
        if "_id" in flt and _is_scalar(id_condition) and not isinstance(
            id_condition, dict
        ):
            candidates.append(
                CandidatePlan(
                    stage=STAGE_IDHACK,
                    estimated_docs=1.0,
                    index_name="_id_",
                    key_pattern={"_id": 1},
                    index_bounds={"_id": _point_bounds(id_condition)},
                    prefix_len=1,
                    _point_id=id_condition,
                )
            )
        predicates = extract_predicates(flt)
        if predicates:
            for name, index in self._coll._indexes.items():
                plan = self._index_plan(name, index, predicates)
                if plan is not None:
                    candidates.append(plan)
        candidates.sort(key=CandidatePlan.sort_key)
        return PlanOutcome(winning=candidates[0], rejected=candidates[1:])

    def _index_plan(
        self, name: str, index: Index, predicates: Dict[str, Predicate]
    ) -> Optional[CandidatePlan]:
        # Longest equality run over the leading fields.
        eq_values: List[Any] = []
        for f in index.fields:
            pred = predicates.get(f)
            if pred is not None and pred.has_eq:
                eq_values.append(pred.eq)
            else:
                break
        j = len(eq_values)
        prefix = tuple(eq_values)
        next_pred = (
            predicates.get(index.fields[j]) if j < len(index.fields) else None
        )
        key_pattern = {f: 1 for f in index.fields}
        bounds_text = {
            f: _point_bounds(v) for f, v in zip(index.fields, eq_values)
        }
        if next_pred is not None and next_pred.in_values is not None:
            values = next_pred.in_values
            bounds_text[index.fields[j]] = _in_bounds(values)
            return CandidatePlan(
                stage=STAGE_IXSCAN,
                estimated_docs=index.estimate_equal(j + 1, len(values)),
                index_name=name,
                key_pattern=key_pattern,
                index_bounds=bounds_text,
                prefix_len=j + 1,
                _ids=lambda: _union(index.ids(prefix + (v,)) for v in values),
            )
        if next_pred is not None and next_pred.bounds:
            bounds = dict(next_pred.bounds)
            bounds_text[index.fields[j]] = _range_bounds_text(bounds)
            return CandidatePlan(
                stage=STAGE_IXSCAN,
                estimated_docs=index.estimate_range(prefix, **bounds),
                index_name=name,
                key_pattern=key_pattern,
                index_bounds=bounds_text,
                prefix_len=j + 1,
                _ids=lambda: index.ids(prefix, **bounds),
            )
        if j == 0:
            return None  # no usable leading prefix
        return CandidatePlan(
            stage=STAGE_IXSCAN,
            estimated_docs=index.estimate_equal(j),
            index_name=name,
            key_pattern=key_pattern,
            index_bounds=bounds_text,
            prefix_len=j,
            _ids=lambda: index.ids(prefix),
        )

    # -- execution -----------------------------------------------------------

    def fetch(self, plan: CandidatePlan) -> Tuple[List[Dict[str, Any]], int]:
        """Materialise a plan's candidate documents.

        Returns ``(stored_documents, docs_examined)`` where
        ``docs_examined`` is exactly the number of documents the residual
        filter stage will touch — the number ``explain()`` reports.
        """
        docs = self._coll._docs
        if plan.stage == STAGE_IDHACK:
            doc = docs.get(plan._point_id)
            found = [doc] if doc is not None else []
            return found, len(found)
        if plan.stage == STAGE_COLLSCAN:
            out = list(docs.values())
            return out, len(out)
        assert plan._ids is not None
        ids = plan._ids()
        out = [docs[i] for i in ids if i in docs]
        return out, len(out)


# -- rendering ---------------------------------------------------------------


def _union(id_views: Iterable[KeysView[Any]]) -> KeysView[Any]:
    """Ids of several lookups, first occurrence first."""
    out: Dict[Any, None] = {}
    for ids in id_views:
        out.update(dict.fromkeys(ids))
    return out.keys()


def _point_bounds(value: Any) -> str:
    return f"[{value!r}, {value!r}]"


def _in_bounds(values: Sequence[Any]) -> str:
    return "[" + ", ".join(repr(v) for v in values) + "]"


def _range_bounds_text(bounds: Dict[str, Any]) -> str:
    lo_bracket, lo = "(", "-inf"
    hi_bracket, hi = ")", "inf"
    if "gte" in bounds:
        lo_bracket, lo = "[", repr(bounds["gte"])
    if "gt" in bounds:
        lo_bracket, lo = "(", repr(bounds["gt"])
    if "lte" in bounds:
        hi_bracket, hi = "]", repr(bounds["lte"])
    if "lt" in bounds:
        hi_bracket, hi = ")", repr(bounds["lt"])
    return f"{lo_bracket}{lo}, {hi}{hi_bracket}"


def format_plan(plan_doc: Dict[str, Any], *, indent: str = "  ") -> str:
    """Render an ``explain()`` document as indented text (CLI/benchmarks)."""
    lines: List[str] = [f"query plan for {plan_doc.get('namespace', '?')}:"]
    winning = plan_doc.get("winningPlan", {})
    lines.extend(_format_stage(winning, indent, 1))
    execution = plan_doc.get("executionStats", {})
    if execution:
        lines.append(
            f"{indent}execution: {execution.get('nReturned', 0)} returned, "
            f"{execution.get('docsExamined', 0)} of "
            f"{execution.get('totalDocsInCollection', 0)} docs examined"
        )
    rejected = plan_doc.get("rejectedPlans", [])
    if rejected:
        lines.append(f"{indent}rejected plans:")
        for rej in rejected:
            stage = rej.get("inputStage", rej)
            label = stage.get("indexName", stage.get("stage", "?"))
            lines.append(
                f"{indent}{indent}- {stage.get('stage')} {label} "
                f"(est {stage.get('estimatedDocsExamined')})"
            )
    return "\n".join(lines)


def _format_stage(stage: Dict[str, Any], indent: str, depth: int) -> List[str]:
    pad = indent * depth
    label = stage.get("stage", "?")
    parts = [f"{pad}{label}"]
    if "indexName" in stage:
        bounds = ", ".join(
            f"{k}: {v}" for k, v in stage.get("indexBounds", {}).items()
        )
        parts.append(f"index={stage['indexName']}" + (f" bounds({bounds})" if bounds else ""))
    if "estimatedDocsExamined" in stage:
        parts.append(f"est={stage['estimatedDocsExamined']}")
    lines = [" ".join(parts)]
    inner = stage.get("inputStage")
    if inner:
        lines.extend(_format_stage(inner, indent, depth + 1))
    return lines

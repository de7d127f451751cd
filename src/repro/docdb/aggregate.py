"""The subset of the Mongo aggregation pipeline that path selection uses.

Stages: ``$match``, ``$group``, ``$sort``, ``$limit``, ``$skip`` and
``$count`` — the paper's selection queries are ``$match`` + ``$group``
(§4.1–4.2).  Group accumulators: ``$sum``, ``$avg``, ``$min``, ``$max``,
``$push``, ``$addToSet``, ``$first``, ``$last``.  Expressions are field
references (``"$field.path"``) or constants.
"""

from __future__ import annotations

from numbers import Number
from typing import Any, Dict, List, Tuple

from repro.docdb.document import get_path
from repro.docdb.query import matches
from repro.errors import QueryError

_ACCUMULATORS = frozenset(
    {"$sum", "$avg", "$min", "$max", "$push", "$addToSet", "$first", "$last"}
)

#: Stages the pipeline executor implements (kept in sync with
#: ``run_pipeline``'s dispatch; docs/DATABASE.md documents each one).
SUPPORTED_STAGES = frozenset(
    {"$match", "$group", "$sort", "$limit", "$skip", "$count"}
)


def split_leading_match(
    pipeline: List[Dict[str, Any]]
) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Split a pipeline into (leading ``$match`` filter, remaining stages).

    The filter is what :meth:`~repro.docdb.collection.Collection.
    aggregate` pushes down into the query planner so a leading match can
    ride an index instead of forcing a full collection scan.  Returns an
    empty filter when the pipeline does not start with ``$match``.
    """
    if (
        pipeline
        and isinstance(pipeline[0], dict)
        and len(pipeline[0]) == 1
        and "$match" in pipeline[0]
        and isinstance(pipeline[0]["$match"], dict)
    ):
        return pipeline[0]["$match"], list(pipeline[1:])
    return {}, list(pipeline)


def run_pipeline(
    docs: List[Dict[str, Any]], pipeline: List[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """Run ``pipeline`` over ``docs`` and return the resulting documents."""
    current = docs
    for stage in pipeline:
        if not isinstance(stage, dict) or len(stage) != 1:
            raise QueryError(f"each pipeline stage must have exactly one key: {stage}")
        op, spec = next(iter(stage.items()))
        if op == "$match":
            current = [d for d in current if matches(d, spec)]
        elif op == "$group":
            current = _group_stage(current, spec)
        elif op == "$sort":
            current = _sort_stage(current, spec)
        elif op == "$limit":
            current = current[: int(spec)]
        elif op == "$skip":
            current = current[int(spec):]
        elif op == "$count":
            current = [{str(spec): len(current)}]
        else:
            raise QueryError(f"unsupported pipeline stage: {op}")
    return current


def evaluate(doc: Dict[str, Any], expr: Any) -> Any:
    """Evaluate an expression against a document."""
    if isinstance(expr, str) and expr.startswith("$"):
        found, value = get_path(doc, expr[1:])
        return value if found else None
    if isinstance(expr, dict):
        return {k: evaluate(doc, v) for k, v in expr.items()}
    if isinstance(expr, list):
        return [evaluate(doc, e) for e in expr]
    return expr


def _group_stage(
    docs: List[Dict[str, Any]], spec: Dict[str, Any]
) -> List[Dict[str, Any]]:
    if "_id" not in spec:
        raise QueryError("$group requires an _id expression")
    key_expr = spec["_id"]
    groups: Dict[str, Tuple[Any, List[Dict[str, Any]]]] = {}
    for doc in docs:
        key_value = evaluate(doc, key_expr)
        bucket = groups.setdefault(repr(key_value), (key_value, []))
        bucket[1].append(doc)

    out: List[Dict[str, Any]] = []
    for key_value, members in groups.values():
        result: Dict[str, Any] = {"_id": key_value}
        for field_name, acc_spec in spec.items():
            if field_name == "_id":
                continue
            if not isinstance(acc_spec, dict) or len(acc_spec) != 1:
                raise QueryError(f"bad accumulator for {field_name!r}: {acc_spec}")
            acc, expr = next(iter(acc_spec.items()))
            if acc not in _ACCUMULATORS:
                raise QueryError(f"unsupported accumulator: {acc}")
            result[field_name] = _accumulate(acc, expr, members)
        out.append(result)
    return out


def _accumulate(acc: str, expr: Any, members: List[Dict[str, Any]]) -> Any:
    values = [evaluate(d, expr) for d in members]
    if acc == "$push":
        return values
    if acc == "$addToSet":
        out: List[Any] = []
        for v in values:
            if v not in out:
                out.append(v)
        return out
    if acc == "$first":
        return values[0] if values else None
    if acc == "$last":
        return values[-1] if values else None
    numeric = [v for v in values if isinstance(v, Number) and not isinstance(v, bool)]
    if acc == "$sum":
        return sum(numeric) if numeric else 0
    if acc == "$avg":
        return sum(numeric) / len(numeric) if numeric else None
    if acc == "$min":
        return min(numeric) if numeric else None
    if acc == "$max":
        return max(numeric) if numeric else None
    raise QueryError(f"unhandled accumulator: {acc}")  # pragma: no cover


def _sort_stage(
    docs: List[Dict[str, Any]], spec: Dict[str, int]
) -> List[Dict[str, Any]]:
    from repro.docdb.collection import _sorted_docs

    return _sorted_docs(docs, list(spec.items()))

"""The subset of the Mongo aggregation pipeline that path selection uses.

Stages: ``$match``, ``$group``, ``$sort``, ``$limit``, ``$skip`` and
``$count`` — the paper's selection queries are ``$match`` + ``$group``
(§4.1–4.2).  Group accumulators: ``$sum``, ``$avg``, ``$min``, ``$max``,
``$stdDevPop`` (population standard deviation), ``$push``,
``$addToSet``, ``$first``, ``$last``; the numeric ones skip non-numeric
values and bools.  Expressions are field references
(``"$field.path"``) or constants.

``$group`` is a fold plus a finish (:class:`GroupColumns`): documents
are folded into per-group value columns, and the finish reduces the
columns to output documents.  A full stage is a fold from empty, and
:meth:`~repro.docdb.collection.Collection.aggregate` answers a
``[$match, $group, ...]`` pipeline after inserts by folding only the
new documents into the columns it kept.  Its input is the matched
documents in storage order, so both give the same columns, bit for
bit.
"""

from __future__ import annotations

from numbers import Number
from typing import Any, Callable, Dict, Iterable, List, Tuple

import numpy as np

from repro.docdb.document import get_path
from repro.docdb.query import matches
from repro.errors import QueryError

#: Accumulators whose columns keep numbers only.
_NUMERIC = frozenset({"$sum", "$avg", "$min", "$max", "$stdDevPop"})
_ACCUMULATORS = _NUMERIC | {"$push", "$addToSet", "$first", "$last"}
_EXACT_NUMBERS = (float, int)

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
    """A full ``$group``: a fold from empty, then the finish."""
    columns = GroupColumns(spec)
    columns.fold(docs)
    return columns.finish()


class GroupColumns:
    """A ``$group`` stage's running state: per group, its key and one
    column of values per accumulator, groups in order of first
    appearance.

    :meth:`fold` appends each document's values to its group's columns;
    numeric accumulators (``$sum``, ``$avg``, ``$min``, ``$max``,
    ``$stdDevPop``) drop non-numeric values and bools right there, so
    :meth:`finish` reduces each column with C-level ``sum``/``len``/
    ``min``/``max`` or ``np.std``.  Folding documents in two calls
    gives the columns one call over both would, so
    :meth:`~repro.docdb.collection.Collection.aggregate` folds only the
    documents inserted since its last answer into the columns it kept.
    The spec is checked when the state is built, before any document.
    """

    def __init__(self, spec: Dict[str, Any]) -> None:
        if "_id" not in spec:
            raise QueryError("$group requires an _id expression")
        self._key_of = _getter(spec["_id"])
        #: (output field, accumulator) per column, in spec order.
        self._outputs: List[Tuple[str, str]] = []
        #: (value getter, numeric-only) per column.
        self._inputs: List[Tuple[Callable[[Dict[str, Any]], Any], bool]] = []
        for field_name, acc_spec in spec.items():
            if field_name == "_id":
                continue
            if not isinstance(acc_spec, dict) or len(acc_spec) != 1:
                raise QueryError(f"bad accumulator for {field_name!r}: {acc_spec}")
            acc, expr = next(iter(acc_spec.items()))
            if acc not in _ACCUMULATORS:
                raise QueryError(f"unsupported accumulator: {acc}")
            self._outputs.append((field_name, acc))
            self._inputs.append((_getter(expr), acc in _NUMERIC))
        #: repr(key) -> (key, columns)
        self._groups: Dict[str, Tuple[Any, List[List[Any]]]] = {}

    def fold(self, docs: Iterable[Dict[str, Any]]) -> None:
        """Append each document's values to its group's columns."""
        groups, key_of, inputs = self._groups, self._key_of, self._inputs
        for doc in docs:
            key_value = key_of(doc)
            key = repr(key_value)
            bucket = groups.get(key)
            if bucket is None:
                bucket = groups[key] = (key_value, [[] for _ in inputs])
            for column, (value_of, numeric) in zip(bucket[1], inputs):
                value = value_of(doc)
                # Exact int/float first: the Number ABC check is the slow part.
                if numeric and type(value) not in _EXACT_NUMBERS and (
                    isinstance(value, bool) or not isinstance(value, Number)
                ):
                    continue
                column.append(value)

    def finish(self) -> List[Dict[str, Any]]:
        """The stage's output documents; the columns stay foldable."""
        out: List[Dict[str, Any]] = []
        for key_value, columns in self._groups.values():
            result: Dict[str, Any] = {"_id": key_value}
            for (field_name, acc), values in zip(self._outputs, columns):
                result[field_name] = _finish(acc, values)
            out.append(result)
        return out


def _getter(expr: Any) -> Callable[[Dict[str, Any]], Any]:
    """:func:`evaluate` bound to one expression; a field reference is
    parsed once, and an undotted one reads a (dict) document with one
    ``get``."""
    if isinstance(expr, str) and expr.startswith("$"):
        path = expr[1:]
        if path and "." not in path:
            return lambda doc: doc.get(path)
        return lambda doc: get_path(doc, path)[1]
    if isinstance(expr, (dict, list)):
        return lambda doc: evaluate(doc, expr)
    return lambda doc: expr


def _finish(acc: str, values: List[Any]) -> Any:
    """Reduce one column; numeric columns hold numbers only."""
    if acc == "$push":
        return list(values)
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
    if not values:
        return 0 if acc == "$sum" else None
    if acc == "$sum":
        return sum(values)
    if acc == "$avg":
        return sum(values) / len(values)
    if acc == "$min":
        return min(values)
    if acc == "$max":
        return max(values)
    if acc == "$stdDevPop":
        return float(np.std(values))
    raise QueryError(f"unhandled accumulator: {acc}")  # pragma: no cover


def _sort_stage(
    docs: List[Dict[str, Any]], spec: Dict[str, int]
) -> List[Dict[str, Any]]:
    from repro.docdb.collection import _sorted_docs

    return _sorted_docs(docs, list(spec.items()))

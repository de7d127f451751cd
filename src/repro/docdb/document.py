"""Document primitives: ids, normalization, dotted-path access.

Documents are plain dicts restricted to JSON-compatible values; every
stored document carries an ``_id``.  The paper uses *compound string
ids* (``"2_15"`` for path 15 of destination 2, ``"2_15_<ts>"`` for one
measurement of it, §4.2.1), so ids here are any hashable scalar.
"""

from __future__ import annotations

import copy
import itertools
import secrets
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import ValidationError

_JSON_SCALARS = (str, int, float, bool, type(None))


def new_object_id() -> str:
    """A random 12-byte hex id, shaped like Mongo's ObjectId."""
    return secrets.token_hex(12)


def normalize_document(
    doc: Dict[str, Any], *, ensure_id: bool = True, deep_copy: bool = True
) -> Dict[str, Any]:
    """Deep-copy and validate a document; assign an ``_id`` if missing.

    ``deep_copy=False`` skips the defensive copy for callers that
    provably own the dict — the recovery loaders pass documents fresh
    out of ``json.loads`` (snapshot lines, WAL payloads), where copying
    them again roughly triples recovery time.  Validation always runs.
    """
    if not isinstance(doc, dict):
        raise ValidationError(f"document must be a dict, got {type(doc).__name__}")
    _check_value(doc, depth=0)
    out = json_deepcopy(doc) if deep_copy else doc
    if ensure_id and "_id" not in out:
        out["_id"] = new_object_id()
    return out


def json_deepcopy(value: Any) -> Any:
    """Deep copy for JSON-shaped values, far cheaper than ``copy.deepcopy``.

    Validated documents only ever contain dicts with string keys, lists,
    tuples and immutable scalars (:func:`_check_value` enforces this on
    the way in, and rejects cyclic structures via its depth limit), so
    the generic deepcopy machinery — memo dict, reductor dispatch — is
    pure overhead on the storage hot path.  Semantics match
    ``copy.deepcopy`` for that value domain: containers are rebuilt,
    immutable scalars returned as-is.
    """
    if isinstance(value, dict):
        return {k: json_deepcopy(v) for k, v in value.items()}
    if isinstance(value, list):
        return [json_deepcopy(v) for v in value]
    if isinstance(value, tuple):
        return tuple(json_deepcopy(v) for v in value)
    return value


def _check_value(value: Any, depth: int) -> None:
    if depth > 64:
        raise ValidationError("document nesting too deep")
    if isinstance(value, dict):
        for key, sub in value.items():
            if not isinstance(key, str):
                raise ValidationError(f"document keys must be strings: {key!r}")
            _check_value(sub, depth + 1)
    elif isinstance(value, (list, tuple)):
        for sub in value:
            _check_value(sub, depth + 1)
    elif not isinstance(value, _JSON_SCALARS):
        raise ValidationError(
            f"unsupported value type in document: {type(value).__name__}"
        )


# ---------------------------------------------------------------------------
# dotted-path resolution (Mongo semantics)
# ---------------------------------------------------------------------------


_MISSING = object()


def get_path(doc: Any, path: str) -> Tuple[bool, Any]:
    """Resolve ``"a.b.0.c"`` in ``doc``; returns (found, value).

    Follows Mongo rules: a numeric component indexes into arrays; a
    non-numeric component applied to an array maps over its elements
    (handled by callers via :func:`iter_path_values`).
    """
    values = list(iter_path_values(doc, path))
    if not values:
        return False, None
    return True, values[0]


def iter_path_values(doc: Any, path: str) -> Iterator[Any]:
    """Yield every value reachable at ``path`` (array fan-out included)."""
    parts = path.split(".") if path else []
    yield from _walk(doc, parts)


def _walk(value: Any, parts: List[str]) -> Iterator[Any]:
    if not parts:
        yield value
        return
    head, rest = parts[0], parts[1:]
    if isinstance(value, dict):
        if head in value:
            yield from _walk(value[head], rest)
    elif isinstance(value, list):
        if head.isdigit():
            idx = int(head)
            if 0 <= idx < len(value):
                yield from _walk(value[idx], rest)
        else:
            for element in value:
                if isinstance(element, dict) and head in element:
                    yield from _walk(element[head], rest)

"""Document primitives: ids, normalization, dotted-path access.

Documents are plain dicts restricted to JSON-compatible values; every
stored document carries an ``_id``.  The paper uses *compound string
ids* (``"2_15"`` for path 15 of destination 2, ``"2_15_<ts>"`` for one
measurement of it, §4.2.1), so ids here are any hashable scalar.
"""

from __future__ import annotations

import secrets
from typing import Any, Dict, Iterator, List, Tuple

from repro.errors import ValidationError

_JSON_SCALARS = (str, int, float, bool, type(None))
#: Exact scalar types; a leaf of one of these is accepted by ``type()``
#: alone.  Subclasses (``IntEnum``, numpy floats) take the
#: ``isinstance`` check.
_SCALAR_TYPES = frozenset(_JSON_SCALARS)
#: Deepest accepted nesting level (the top-level document is level 0).
_MAX_DEPTH = 64


def new_object_id() -> str:
    """A random 12-byte hex id, shaped like Mongo's ObjectId."""
    return secrets.token_hex(12)


def normalize_document(
    doc: Dict[str, Any], *, ensure_id: bool = True, deep_copy: bool = True
) -> Dict[str, Any]:
    """Validate a document and build its stored copy in one walk;
    assign an ``_id`` if missing.

    The copy is built by the same recursive walk that validates, so a
    stored document costs one pass over the input: dicts with string
    keys, lists, tuples and JSON scalars at most 64 levels deep, and
    anything else raises :class:`~repro.errors.ValidationError` at the
    first offending value in document order.  ``deep_copy=False`` only
    validates, for callers that provably own the dict — the recovery
    loaders pass documents fresh out of ``json.loads`` (snapshot lines,
    WAL payloads), where copying them again roughly triples recovery
    time.
    """
    if not isinstance(doc, dict):
        raise ValidationError(f"document must be a dict, got {type(doc).__name__}")
    out = _checked_copy(doc, 0, build=deep_copy)
    if ensure_id and "_id" not in out:
        out["_id"] = new_object_id()
    return out


def json_deepcopy(value: Any) -> Any:
    """Deep copy for JSON-shaped values, far cheaper than ``copy.deepcopy``.

    Validated documents only ever contain dicts with string keys, lists,
    tuples and immutable scalars (:func:`normalize_document` enforces
    this on the way in, and rejects cyclic structures via its depth
    limit), so the generic deepcopy machinery — memo dict, reductor
    dispatch — is pure overhead on the storage hot path.  Semantics
    match ``copy.deepcopy`` for that value domain: containers are
    rebuilt, immutable scalars returned as-is.  As in
    :func:`_checked_copy`, a container takes its leaves of an exact
    scalar type inline, by ``type()`` alone and without a call; the
    ``isinstance`` checks copy container subclasses as plain
    containers.
    """
    if isinstance(value, dict):
        return {
            k: v if type(v) in _SCALAR_TYPES else json_deepcopy(v)
            for k, v in value.items()
        }
    if isinstance(value, list):
        return [v if type(v) in _SCALAR_TYPES else json_deepcopy(v) for v in value]
    if isinstance(value, tuple):
        return tuple(
            v if type(v) in _SCALAR_TYPES else json_deepcopy(v) for v in value
        )
    return value



def _checked_copy(value: Any, depth: int, build: bool = True) -> Any:
    """Validate ``value`` at nesting ``depth``; return its copy when
    ``build``, else ``value`` itself.

    A container accepts its leaves of an exact scalar type inline, by
    ``type()`` alone and without a call, while they sit within the
    depth limit; every other value recurses.
    """
    if depth > _MAX_DEPTH:
        raise ValidationError("document nesting too deep")
    inline = depth < _MAX_DEPTH
    if isinstance(value, dict):
        out = {}
        for key, sub in value.items():
            if not isinstance(key, str):
                raise ValidationError(f"document keys must be strings: {key!r}")
            if not (inline and type(sub) in _SCALAR_TYPES):
                sub = _checked_copy(sub, depth + 1, build)
            if build:
                out[key] = sub
        return out if build else value
    if isinstance(value, (list, tuple)):
        items = []
        for sub in value:
            if not (inline and type(sub) in _SCALAR_TYPES):
                sub = _checked_copy(sub, depth + 1, build)
            if build:
                items.append(sub)
        if not build:
            return value
        return items if isinstance(value, list) else tuple(items)
    if not isinstance(value, _JSON_SCALARS):
        raise ValidationError(
            f"unsupported value type in document: {type(value).__name__}"
        )
    return value


# ---------------------------------------------------------------------------
# dotted-path resolution (Mongo semantics)
# ---------------------------------------------------------------------------


_MISSING = object()


def get_path(doc: Any, path: str) -> Tuple[bool, Any]:
    """Resolve ``"a.b.0.c"`` in ``doc``; returns (found, value).

    Follows Mongo rules: a numeric component indexes into arrays; a
    non-numeric component applied to an array maps over its elements
    (handled by callers via :func:`iter_path_values`).  A non-empty
    undotted path on a dict is one lookup.
    """
    if path and "." not in path and isinstance(doc, dict):
        value = doc.get(path, _MISSING)
        return (False, None) if value is _MISSING else (True, value)
    for value in _walk(doc, path.split(".") if path else []):
        return True, value
    return False, None


def iter_path_values(doc: Any, path: str) -> Iterator[Any]:
    """Every value reachable at ``path`` (array fan-out included)."""
    if path and "." not in path and isinstance(doc, dict):
        value = doc.get(path, _MISSING)
        return iter(() if value is _MISSING else (value,))
    return _walk(doc, path.split(".") if path else [])


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

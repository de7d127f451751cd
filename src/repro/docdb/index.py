"""One index structure: an ordered index over one or more fields.

An :class:`Index` maps an ordered tuple of dotted field paths to the ids
of the documents holding each key.  It supports Mongo-style *leading
prefix* use: a query may pin an equality value for the first ``j``
fields and then range- or membership-restrict field ``j+1``.  A
single-field index is simply the one-field case, so equality, ``$in``
and range lookups on one field are prefix lookups of length 0 or 1.

Prefix and range lookups use a lazily (re)built sorted key list, which
keeps inserts O(1) amortised while campaigns stream measurements in,
and pays the sort only when such a lookup actually happens — the access
pattern of the paper's workflow (bulk writes, occasional selection
queries).  A lookup that pins every field is a dict lookup and never
sorts.

Each key's bucket, and the overflow set below, is an insertion-ordered
dict of document ids, so a lookup returns ids in a fixed order: key
order, then insertion order within a key.  Iterating a ``set`` of the
paper's string ids would instead follow ``PYTHONHASHSEED``.

Array-valued fields fan out into the cartesian product of their
element keys.  A document whose fan-out exceeds
:data:`MAX_KEY_FANOUT` is not keyed at all: its id goes into the
index's *overflow set*, which every lookup returns and every estimate
counts, so the residual filter re-checks it against each query.

The index exposes *cardinality statistics* (distinct keys and prefixes,
total entries) that the query planner (:mod:`repro.docdb.planner`) uses
to score candidate plans without materialising their result sets.
"""

from __future__ import annotations

import bisect
import itertools
import math
from numbers import Number
from typing import Any, Dict, KeysView, List, Optional, Sequence, Tuple

from repro.docdb.document import iter_path_values

_MISSING = object()

#: Sentinel key component sorting after every real component.  Real
#: components are tuples whose first element is a type tag in
#: ``{"b", "n", "o", "s", "z"}``; ``"~"`` sorts after all of them.
_AFTER: Tuple[str, ...] = ("~",)

#: Cap on the keys one document contributes to an index (the cartesian
#: product of its per-field element keys).  A document over the cap goes
#: into the index's overflow set instead.
MAX_KEY_FANOUT = 64


def _index_key(value: Any) -> Any:
    """Normalize a value into a hashable index key (``("z",)`` for missing)."""
    kind = type(value)
    if kind is str:
        return ("s", value)
    if kind is int or kind is float:
        return ("n", float(value))
    if isinstance(value, bool):
        return ("b", value)
    if isinstance(value, Number):
        return ("n", float(value))
    if isinstance(value, str):
        return ("s", value)
    if value is None:
        return ("z",)
    # Arrays/objects are not range-indexable; hash their repr for equality.
    return ("o", repr(value))


def _field_keys(doc: Dict[str, Any], field: str) -> List[Any]:
    """All index keys one document contributes for one field path.

    A non-empty undotted field is one dict lookup; a dotted path takes
    the generic walk with array fan-out.
    """
    if field and "." not in field:
        value = doc.get(field, _MISSING)
        values = () if value is _MISSING else (value,)
    else:
        values = iter_path_values(doc, field)
    keys: List[Any] = []
    for v in values:
        if isinstance(v, list):
            keys.extend(_index_key(e) for e in v)
        else:
            keys.append(_index_key(v))
    return keys or [("z",)]


class Index:
    """Ordered index over one or more fields, with leading-prefix lookups.

    Keys are tuples with one typed component per indexed field, compared
    lexicographically; a prefix tuple of ``j`` components bounds the
    contiguous run of keys sharing that prefix in the sorted key list.
    Documents over the fan-out cap live in the overflow set (see the
    module docstring).
    """

    def __init__(self, fields: Sequence[str], *, unique: bool = False) -> None:
        if not fields:
            raise ValueError("an index needs at least one field")
        self.fields: Tuple[str, ...] = tuple(fields)
        self.unique = unique
        #: key -> ids of the documents holding it, in insertion order.
        self._by_key: Dict[Tuple[Any, ...], Dict[Any, None]] = {}
        #: Keys contributed by keyed documents, array repeats included.
        self._n_entries = 0
        #: Ids of documents whose key fan-out exceeds the cap.
        self._overflow: Dict[Any, None] = {}
        self._sorted_keys: Optional[List[Tuple[Any, ...]]] = None
        #: prefix length -> distinct prefix count (lazily computed).
        self._prefix_cardinality: Dict[int, int] = {}

    # -- maintenance ---------------------------------------------------------

    def _keys_of(self, doc: Dict[str, Any]) -> Optional[List[Tuple[Any, ...]]]:
        """The document's index keys, or None when over the fan-out cap."""
        per_field = [_field_keys(doc, f) for f in self.fields]
        if math.prod(map(len, per_field)) > MAX_KEY_FANOUT:
            return None
        return list(itertools.product(*per_field))

    def add(self, doc: Dict[str, Any]) -> None:
        doc_id = doc["_id"]
        keys = self._keys_of(doc)
        if keys is None:
            self._overflow[doc_id] = None
            return
        for key in keys:
            self._by_key.setdefault(key, {})[doc_id] = None
        self._n_entries += len(keys)
        self._invalidate_sorted()

    def remove(self, doc: Dict[str, Any]) -> None:
        doc_id = doc["_id"]
        keys = self._keys_of(doc)
        if keys is None:
            self._overflow.pop(doc_id, None)
            return
        for key in keys:
            bucket = self._by_key.get(key)
            if bucket is not None:
                bucket.pop(doc_id, None)
                if not bucket:
                    del self._by_key[key]
        self._n_entries -= len(keys)
        self._invalidate_sorted()

    def _invalidate_sorted(self) -> None:
        self._sorted_keys = None
        self._prefix_cardinality.clear()

    def _sorted(self) -> List[Tuple[Any, ...]]:
        if self._sorted_keys is None:
            self._sorted_keys = sorted(self._by_key)
        return self._sorted_keys

    # -- cardinality statistics (planner inputs) -----------------------------

    def distinct_prefixes(self, length: int) -> int:
        """Distinct key prefixes of ``length`` components (cached).

        Whole keys are distinct by construction, so pinning every field
        reads the key count in O(1) and never sorts.
        """
        length = max(1, min(length, len(self.fields)))
        if length == len(self.fields):
            return len(self._by_key)
        cached = self._prefix_cardinality.get(length)
        if cached is None:
            cached = 0
            previous = _MISSING
            for key in self._sorted():
                prefix = key[:length]
                if prefix != previous:
                    cached += 1
                    previous = prefix
            self._prefix_cardinality[length] = cached
        return cached

    def estimate_equal(self, prefix_len: int, n_values: int = 1) -> float:
        """Estimated entries matched by pinning ``prefix_len`` fields,
        the last of them to any of ``n_values`` values (``$in``)."""
        distinct = self.distinct_prefixes(prefix_len)
        per_value = self._n_entries / distinct if distinct else 0.0
        return n_values * per_value + len(self._overflow)

    def estimate_range(self, prefix_values: Sequence[Any], **bounds: Any) -> float:
        """Estimated entries for an equality prefix + range on the next field."""
        lo, hi = self._slice(self._prefix(prefix_values), **bounds)
        avg_bucket = self._n_entries / len(self._by_key) if self._by_key else 0.0
        return max(0, hi - lo) * avg_bucket + len(self._overflow)

    # -- lookups ---------------------------------------------------------------

    def _prefix(self, values: Sequence[Any]) -> Tuple[Any, ...]:
        if len(values) > len(self.fields):
            raise ValueError("prefix longer than the indexed field list")
        return tuple(_index_key(v) for v in values)

    def _slice(
        self,
        prefix: Tuple[Any, ...],
        *,
        gt: Any = _MISSING,
        gte: Any = _MISSING,
        lt: Any = _MISSING,
        lte: Any = _MISSING,
    ) -> Tuple[int, int]:
        """Sorted-key slice bounds for an equality prefix + typed range."""
        keys = self._sorted()
        bounds = [b for b in (gt, gte, lt, lte) if b is not _MISSING]
        lo = bisect.bisect_left(keys, prefix)
        hi = bisect.bisect_left(keys, prefix + (_AFTER,))
        if not bounds:
            return lo, hi
        tag = "s" if all(isinstance(b, str) for b in bounds) else "n"

        def norm(v: Any) -> Any:
            return v if tag == "s" else float(v)

        # Bracket to the range component's type tag so an open side does
        # not spill into other-typed values under the same prefix.
        lo = max(lo, bisect.bisect_left(keys, prefix + ((tag,),)))
        hi = min(hi, bisect.bisect_left(keys, prefix + ((tag + "~",),)))
        if gte is not _MISSING:
            lo = max(lo, bisect.bisect_left(keys, prefix + ((tag, norm(gte)),)))
        if gt is not _MISSING:
            lo = max(lo, bisect.bisect_left(keys, prefix + ((tag, norm(gt)), _AFTER)))
        if lte is not _MISSING:
            hi = min(hi, bisect.bisect_left(keys, prefix + ((tag, norm(lte)), _AFTER)))
        if lt is not _MISSING:
            hi = min(hi, bisect.bisect_left(keys, prefix + ((tag, norm(lt)),)))
        return lo, hi

    def ids(self, values: Sequence[Any], **bounds: Any) -> KeysView[Any]:
        """Ids matching equality on the leading ``values`` fields,
        optionally range-bounded (``gt``/``gte``/``lt``/``lte``) on the
        *next* field, plus the overflow set, in a fixed order."""
        prefix = self._prefix(values)
        if len(prefix) == len(self.fields):
            out = dict(self._by_key.get(prefix, {}))
        else:
            keys = self._sorted()
            lo, hi = self._slice(prefix, **bounds)
            out = {}
            for key in keys[lo:hi]:
                out.update(self._by_key[key])
        out.update(self._overflow)
        return out.keys()

    def __len__(self) -> int:
        return len(self._by_key)

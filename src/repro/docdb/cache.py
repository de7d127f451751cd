"""Query-result caching: LRU with epoch-based invalidation.

The paper's workload (§4.2.2) is bursty-write / repeated-read: a
measurement campaign batch-inserts one destination's statistics, then
the selection engine answers many user queries against an unchanged
collection until the next batch lands.  :class:`QueryCache` exploits
exactly that shape:

* every collection carries a monotonically increasing **epoch** that is
  bumped once per *write operation* (once per ``insert_many`` batch,
  not once per document — see ``Collection._bump_epoch``);
* cache entries remember the epoch they were computed under and are
  dropped on first access after any write (epoch mismatch), so a served
  entry is always exact and needs no expiry clock;
* an LRU bound caps memory.

Keys are produced by :func:`freeze`, which converts a filter/pipeline
structure into nested hashable tuples.  Structures containing
values it cannot freeze (any object that is not a scalar, dict, list or
tuple) yield ``None``, which callers treat as *uncacheable*.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Hashable, Optional, Tuple

_SCALARS = (str, int, float, bool, type(None), bytes)


def freeze(obj: Any) -> Optional[Hashable]:
    """Deterministic hashable form of a query structure (None = uncacheable).

    Dicts become ``("d", ((key, frozen_value), ...))`` sorted by key,
    lists/tuples become ``("l", (...))``; scalars pass through tagged by
    type so ``1`` and ``True`` and ``1.0`` stay distinct cache keys.
    """
    if isinstance(obj, bool):
        return ("b", obj)
    if isinstance(obj, _SCALARS):
        return ("v", type(obj).__name__, obj)
    if isinstance(obj, dict):
        items = []
        for key in sorted(obj, key=repr):
            frozen = freeze(obj[key])
            if frozen is None:
                return None
            items.append((key, frozen))
        return ("d", tuple(items))
    if isinstance(obj, (list, tuple)):
        items = []
        for element in obj:
            frozen = freeze(element)
            if frozen is None:
                return None
            items.append(frozen)
        return ("l", tuple(items))
    if isinstance(obj, (set, frozenset)):
        items = []
        for element in obj:
            frozen = freeze(element)
            if frozen is None:
                return None
            items.append(frozen)
        return ("s", tuple(sorted(items, key=repr)))
    return None  # live objects (collections, callables, ...) — uncacheable


class QueryCache:
    """Bounded (LRU), epoch-invalidated result cache.

    Not locked: like the owning :class:`~repro.docdb.collection.
    Collection`, it is used from one thread at a time.
    """

    def __init__(self, *, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        # key -> (epoch, value)
        self._entries: "OrderedDict[Hashable, Tuple[int, Any]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable, epoch: int) -> Optional[Any]:
        """Cached value for ``key`` at ``epoch``; None on miss/stale."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        cached_epoch, value = entry
        if cached_epoch != epoch:
            del self._entries[key]
            self.invalidations += 1
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, epoch: int, value: Any) -> None:
        """Store ``value`` computed at ``epoch``, evicting LRU overflow."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = (epoch, value)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> int:
        """Drop every entry; returns the number removed."""
        n = len(self._entries)
        self._entries.clear()
        self.invalidations += n
        return n

    def info(self) -> Dict[str, Any]:
        """JSON-friendly counter snapshot (for stats/metrics folding)."""
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }

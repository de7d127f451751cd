"""The per-host SCION daemon (sciond equivalent).

Applications never run the combinator themselves; they ask the local
daemon, which caches resolved path sets per destination the way sciond
caches segment lookups.  The cache can be refreshed to pick up topology
or health changes — the paper's ``--skip`` flag (§5.1) corresponds to
*not* refreshing.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import NoPathError
from repro.scion.beaconing import Beaconer
from repro.scion.combinator import combine_paths
from repro.scion.path import Path
from repro.topology.graph import Topology
from repro.topology.isd_as import ISDAS

DEFAULT_MAX_PATHS = 10  # the showpaths default the paper notes (§3.3)


class Sciond:
    """Caching path-lookup service for one local AS."""

    def __init__(
        self,
        topology: Topology,
        local_ia: "ISDAS | str",
        *,
        beaconer: Optional[Beaconer] = None,
    ) -> None:
        self.topology = topology
        self.local_ia = ISDAS.parse(local_ia)
        self.beaconer = beaconer or Beaconer(topology)
        self._cache: Dict[ISDAS, List[Path]] = {}
        #: Per-destination ``sequence -> Path`` index, built lazily on the
        #: first :meth:`resolve` of a sequence and invalidated together
        #: with the path cache (``flush``/``refresh``) so it can never
        #: serve paths the cache no longer holds.
        self._seq_index: Dict[ISDAS, Dict[str, Path]] = {}
        self.lookups = 0
        self.cache_hits = 0

    def paths(
        self,
        dst: "ISDAS | str",
        *,
        max_paths: Optional[int] = DEFAULT_MAX_PATHS,
        refresh: bool = False,
    ) -> List[Path]:
        """Ranked paths from the local AS to ``dst``.

        ``max_paths=None`` returns every combinable path (the equivalent
        of a very large ``-m``).  Results are cached per destination;
        ``refresh=True`` recombines from segments.
        """
        dst = ISDAS.parse(dst)
        self.lookups += 1
        cached = None if refresh else self._cache.get(dst)
        if cached is None:
            cached = combine_paths(self.beaconer, self.local_ia, dst, max_paths=None)
            self._cache[dst] = cached
            # Recombination replaces the path set; the sequence index for
            # this destination is stale until rebuilt on next use.
            self._seq_index.pop(dst, None)
        else:
            self.cache_hits += 1
        if max_paths is None:
            return list(cached)
        return cached[:max_paths]

    def resolve(self, dst: "ISDAS | str", sequence: Optional[str] = None) -> Path:
        """The path to ``dst`` that ``sequence`` pins, or the best-ranked one.

        Every ``--sequence`` in the program resolves here, against every
        combinable path (``max_paths`` never narrows the search).  A
        sequence spelled the way :meth:`Path.sequence` prints it is a
        dict lookup in a per-destination index; any other spelling and
        any wildcard fall back to the
        :class:`~repro.apps.sequence.Sequence` scan, the reference
        semantics.  Both return the first match in rank order.  Raises
        :class:`~repro.errors.NoPathError` when nothing matches.
        """
        dst = ISDAS.parse(dst)
        if sequence is None:
            best = self.paths(dst, max_paths=1)
            if not best:
                raise NoPathError(f"no path to {dst}")
            return best[0]
        index = self._seq_index.get(dst)
        if index is None:
            # Reversed, so the first path in rank order owns its sequence.
            paths = reversed(self.paths(dst, max_paths=None))
            index = self._seq_index[dst] = {p.sequence(): p for p in paths}
        path = index.get(sequence)
        if path is not None:
            return path
        from repro.apps.sequence import Sequence  # apps import this module

        matching = Sequence.parse(sequence).select(self._cache[dst])
        if not matching:
            raise NoPathError(f"no path to {dst} matches sequence {sequence!r}")
        return matching[0]

    def flush(self) -> None:
        """Drop the path cache (and segment caches)."""
        self._cache.clear()
        self._seq_index.clear()
        self.beaconer.invalidate()

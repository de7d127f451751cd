"""Path Controller: enforce the user's desired path (§2.1).

"The Path Controller is in charge of setting the forwarding rules based
on the desires of the user.  The Controller is only able to influence
the nodes in its own domain."  In SCION the sender *is* the forwarding
rule — picking a path pins the whole route — so the controller's job
collapses to: run the selection engine, resolve the winning sequence to
a concrete path, and record the active flow rule for tracing and
verification.

Selection memoization
---------------------
Running the selection engine means aggregating every ``paths_stats``
sample for the destination — the most expensive query in the system.
Between measurement campaigns that data does not change, so the
controller memoizes :class:`~repro.selection.engine.SelectionResult`
on the key ``(destination, constraint-set, paths-epoch, stats-epoch)``:

* the *constraint-set* is the full user intent (metric, weights,
  exclusions, hard limits), canonicalised by :func:`request_cache_key`;
* the *epochs* are the write epochs of the ``paths`` and
  ``paths_stats`` collections, which :class:`~repro.suite.storage.
  StatsRepository` bumps exactly once per batch flush.

Repeated identical intents between campaigns are therefore O(1)
dictionary hits; the first intent after a batch lands recomputes and
re-caches.  Memoized :class:`SelectionResult` objects are shared — they
are treated as immutable by every consumer.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import NoPathError
from repro.scion.path import Path
from repro.scion.snet import ScionHost
from repro.selection.engine import PathSelector, SelectionResult
from repro.selection.request import UserRequest
from repro.suite.config import PATHS_COLLECTION, SERVERS_COLLECTION, STATS_COLLECTION


def request_cache_key(request: UserRequest) -> Tuple[Any, ...]:
    """Canonical hashable form of a user intent (the constraint-set).

    Two requests with the same destination, metric, weights, exclusion
    sets and hard limits map to the same key regardless of the
    iteration order of their underlying dicts/sets.
    """
    return (
        request.server_id,
        request.metric.value,
        tuple(sorted(request.weights.items())),
        tuple(sorted(request.exclude_countries)),
        tuple(sorted(request.exclude_operators)),
        tuple(sorted(request.exclude_ases)),
        tuple(sorted(request.exclude_isds)),
        tuple(sorted(request.exclude_paths)),
        request.max_latency_ms,
        request.max_loss_pct,
        request.min_bandwidth_down_mbps,
    )


@dataclass(frozen=True)
class FlowRule:
    """An installed user flow: who talks to which server over which path.

    ``request`` is always the *original* user intent — a failover keeps
    it verbatim while ``selection``/``path`` move to the replacement
    route, so verification and future reselections still answer to what
    the user actually asked for.
    """

    user: str
    server_id: int
    server_address: str
    path: Path
    request: UserRequest
    selection: SelectionResult

    @property
    def key(self) -> Tuple[str, int]:
        """The controller's flow-table key: ``(user, server_id)``."""
        return (self.user, self.server_id)

    @property
    def path_id(self) -> str:
        """The stored path document this flow is pinned to."""
        best = self.selection.best
        if best is None:  # pragma: no cover - rules are built from winners
            raise NoPathError("flow rule carries an empty selection")
        return best.aggregate.path_id


class PathController:
    """Applies user intents by pinning SCION paths.

    One controller serves one UPIN domain; it owns the table of active
    flow rules and the best-path selection memo described in the module
    docstring.
    """

    def __init__(
        self,
        host: ScionHost,
        selector: PathSelector,
        *,
        selection_cache_size: int = 128,
    ) -> None:
        self.host = host
        self.selector = selector
        self._flows: Dict[Tuple[str, int], FlowRule] = {}
        # (constraint-key, paths-epoch, stats-epoch) -> SelectionResult
        self._selection_cache: "OrderedDict[Tuple[Any, ...], SelectionResult]" = (
            OrderedDict()
        )
        self._selection_cache_size = max(1, selection_cache_size)
        self.selection_cache_hits = 0
        self.selection_cache_misses = 0

    # -- selection memo ----------------------------------------------------------

    def _epochs(self) -> Tuple[int, int]:
        """Write epochs of the two collections a selection depends on."""
        db = self.selector.db
        return (db[PATHS_COLLECTION].epoch, db[STATS_COLLECTION].epoch)

    def cached_select(self, request: UserRequest) -> SelectionResult:
        """Selection engine result, memoized per (intent, data epoch).

        A hit costs one dict lookup; a miss runs the full
        aggregate-filter-score pipeline and caches the outcome until
        the next measurement batch bumps either collection's epoch.
        """
        key = (request_cache_key(request),) + self._epochs()
        cached = self._selection_cache.get(key)
        if cached is not None:
            self._selection_cache.move_to_end(key)
            self.selection_cache_hits += 1
            return cached
        self.selection_cache_misses += 1
        result = self.selector.select(request)
        self._selection_cache[key] = result
        while len(self._selection_cache) > self._selection_cache_size:
            self._selection_cache.popitem(last=False)
        return result

    def selection_cache_info(self) -> Dict[str, int]:
        """Memo counters: ``{"size", "hits", "misses"}`` (for CLI/metrics)."""
        return {
            "size": len(self._selection_cache),
            "hits": self.selection_cache_hits,
            "misses": self.selection_cache_misses,
        }

    # -- intents -----------------------------------------------------------------

    def apply_intent(self, user: str, request: UserRequest) -> FlowRule:
        """Select a path for the intent and install the flow rule.

        Raises :class:`~repro.errors.NoPathError` when no admissible
        path exists, the destination is unknown, or the selected
        sequence can no longer be resolved to a live path.
        """
        selection = self.cached_select(request)
        if selection.best is None:
            raise NoPathError(
                f"no admissible path for user {user!r} to server {request.server_id}"
            )
        server = self.selector.db[SERVERS_COLLECTION].find_one(
            {"_id": request.server_id}
        )
        if server is None:
            raise NoPathError(f"unknown server id {request.server_id}")
        path = self.host.daemon.resolve(str(server["isd_as"]), selection.best.sequence)
        rule = FlowRule(
            user=user,
            server_id=request.server_id,
            server_address=str(server["address"]),
            path=path,
            request=request,
            selection=selection,
        )
        self._flows[(user, request.server_id)] = rule
        return rule

    def active_flow(self, user: str, server_id: int) -> Optional[FlowRule]:
        """The installed rule for ``(user, server_id)``, or None."""
        return self._flows.get((user, server_id))

    def flows(self) -> List[FlowRule]:
        """Every installed flow rule, ordered by ``(user, server_id)``."""
        return [self._flows[k] for k in sorted(self._flows)]

    def swap_flow(self, new_rule: FlowRule) -> FlowRule:
        """Atomically replace the installed rule for ``new_rule.key``.

        The failover engine's commit point: the flow table never holds
        a half-updated entry, and the displaced rule is returned so the
        caller can journal the old path.  Raises
        :class:`~repro.errors.NoPathError` when no rule is installed
        for that key — a swap must replace something.
        """
        key = (new_rule.user, new_rule.server_id)
        old = self._flows.get(key)
        if old is None:
            raise NoPathError(
                f"no installed flow for {new_rule.user!r} -> "
                f"server {new_rule.server_id} to swap"
            )
        self._flows[key] = new_rule
        return old


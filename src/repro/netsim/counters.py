"""Data-plane telemetry counters for the measurement fast path.

One :class:`NetCounters` instance is shared by a :class:`~repro.netsim.
network.NetworkSim` and every :class:`~repro.netsim.link.LinkState` it
owns.  The counters are plain ints — the simulator is single-threaded
per host, so no locking is needed — and every one of them is a pure
function of ``(world, seed, campaign)``: the determinism suites compare
snapshots byte-for-byte across runs.

The canonical ``net_*`` metric names these map onto live in
:mod:`repro.suite.metrics` (``_NET_STAT_NAMES``); the table in
``docs/ARCHITECTURE.md`` is diff-tested against that mapping.
"""

from __future__ import annotations

from typing import Dict


class NetCounters:
    """Counters for probes, sampling caches and the flow ledger."""

    __slots__ = (
        "batch_series",
        "batch_packets",
        "sampler_hits",
        "sampler_misses",
        "ledger_pruned_flows",
    )

    def __init__(self) -> None:
        #: Round-trip batches computed by the data-plane engine (echo
        #: series, traceroutes, showpaths status probes).
        self.batch_series = 0
        #: Probe packets computed inside those batches.
        self.batch_packets = 0
        #: Per-link sampling-cache hits ((direction, window) integrals).
        self.sampler_hits = 0
        #: Per-link sampling-cache misses (integral computed fresh).
        self.sampler_misses = 0
        #: Expired flow records dropped from the flow ledger.
        self.ledger_pruned_flows = 0

    def snapshot(self) -> Dict[str, int]:
        """Stable-keyed plain dict (the ``--metrics`` wire format)."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        inner = ", ".join(f"{k}={v}" for k, v in self.snapshot().items())
        return f"NetCounters({inner})"

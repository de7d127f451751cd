"""Spans around the public functions of each layer, recorded from outside.

While a :class:`Tracer` is entered it replaces class attributes with
timing wrappers, and it puts the originals back on exit; nothing inside
``src/`` knows about it.  Every span counts its calls and accumulates
its total and self time.  Self time is the span's duration minus the
part of it that child spans cover.

A span whose module, class or function no longer exists is simply not
installed and reports ``calls = 0``, so the benchmark keeps running when
a later change deletes a function the table names.

The ``scion.echo_series`` span also records which path each call probes
within which top-level call (a call made while no other span is open:
one ``monitor.after_round``, one ``suite.measure_path``), the base of
the repeated-probe ratio.
"""

from __future__ import annotations

import importlib
import time
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

#: (span name, module, class, attribute): the layer boundaries timed.
SPANS: Tuple[Tuple[str, str, str, str], ...] = (
    ("netsim.probe_batch", "repro.netsim.network", "NetworkSim", "probe_batch"),
    ("netsim.probe_partial", "repro.netsim.network", "NetworkSim", "probe_partial"),
    ("netsim.fluid_transfer", "repro.netsim.network", "NetworkSim", "fluid_transfer"),
    ("scion.echo_series", "repro.scion.scmp", "ScmpService", "echo_series"),
    ("scion.traceroute", "repro.scion.scmp", "ScmpService", "traceroute"),
    ("scion.path_by_sequence", "repro.scion.daemon", "Sciond", "path_by_sequence"),
    ("scion.paths", "repro.scion.daemon", "Sciond", "paths"),
    ("apps.ping", "repro.apps.ping", "PingApp", "run"),
    ("apps.bwtest", "repro.apps.bwtester", "BwtestApp", "run"),
    ("suite.collect", "repro.suite.collect", "PathsCollector", "collect"),
    ("suite.measure_path", "repro.suite.runner", "TestRunner", "measure_path"),
    ("suite.flush", "repro.suite.storage", "StatsRepository", "flush"),
    ("docdb.insert_one", "repro.docdb.collection", "Collection", "insert_one"),
    ("docdb.insert_many", "repro.docdb.collection", "Collection", "insert_many"),
    ("docdb.find", "repro.docdb.collection", "Collection", "find"),
    ("docdb.find_one", "repro.docdb.collection", "Collection", "find_one"),
    ("docdb.aggregate", "repro.docdb.collection", "Collection", "aggregate"),
    ("docdb.wal_append", "repro.docdb.wal", "WalWriter", "append"),
    ("selection.select", "repro.selection.engine", "PathSelector", "select"),
    ("upin.cached_select", "repro.upin.controller", "PathController", "cached_select"),
    ("upin.trace_flow", "repro.upin.tracer", "PathTracer", "trace_flow"),
    ("upin.verify", "repro.upin.verifier", "PathVerifier", "verify"),
    ("upin.submit_intent", "repro.upin.frontend", "Frontend", "submit_intent"),
    ("monitor.after_round", "repro.monitor.loop", "FlowMonitor", "after_round"),
    ("monitor.try_failover", "repro.monitor.failover", "FailoverEngine", "try_failover"),
    ("monitor.observe", "repro.monitor.health", "FlowHealthTracker", "observe"),
    ("monitor.journal_append", "repro.monitor.journal", "FlowEventJournal", "append"),
)

#: Spans that only split a workload into set-up and measured phase.
PHASES: Tuple[Tuple[str, str, str, str], ...] = (
    ("phase.monitor_rounds", "repro.suite.scheduler", "MonitoringScheduler", "run"),
)

SPAN_NAMES: Tuple[str, ...] = tuple(s[0] for s in SPANS)
_TARGETS = {s[0]: s[1:] for s in SPANS + PHASES}


def resolve(module: str, cls_name: str, attr: str) -> Optional[type]:
    """The class that carries ``attr``, or None when any part is gone."""
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return None
    cls = getattr(mod, cls_name, None)
    if not isinstance(cls, type) or not callable(getattr(cls, attr, None)):
        return None
    return cls


def path_key(path: object) -> str:
    fingerprint = getattr(path, "fingerprint", None)
    return fingerprint() if callable(fingerprint) else repr(path)


class SpanStats:
    """Running totals of one span."""

    __slots__ = ("calls", "total_s", "self_s", "samples", "starts")

    def __init__(self, keep_samples: bool) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        #: Every call's duration, for spans that keep them.
        self.samples: Optional[List[float]] = [] if keep_samples else None
        #: The clock reading at each kept call's start.
        self.starts: List[float] = []


class Tracer:
    """Times the named spans for as long as it is entered.

    ``keep_samples`` names spans whose every call duration is kept (the
    end-to-end latency samples).
    """

    def __init__(self, spans: Iterable[str], *, keep_samples: Iterable[str] = ()) -> None:
        keep = set(keep_samples)
        self.stats: Dict[str, SpanStats] = {
            name: SpanStats(name in keep) for name in dict.fromkeys(spans)
        }
        self._stack: List[List[float]] = []
        self._patched: List[Tuple[type, str, object]] = []
        #: Spans whose function exists and was wrapped.
        self.installed: Set[str] = set()
        #: Top-level calls entered so far.
        self.top_calls = 0
        #: Distinct (top-level call, path fingerprint) pairs echo series probed.
        self.echo_pairs: Set[Tuple[int, str]] = set()

    def __enter__(self) -> "Tracer":
        for name in self.stats:
            cls = resolve(*_TARGETS[name])
            if cls is None:
                continue
            attr = _TARGETS[name][2]
            self._patched.append((cls, attr, cls.__dict__.get(attr)))
            setattr(cls, attr, self._span(name, getattr(cls, attr)))
            self.installed.add(name)
        return self

    def __exit__(self, *exc: object) -> None:
        for cls, attr, original in reversed(self._patched):
            if original is None:
                delattr(cls, attr)
            else:
                setattr(cls, attr, original)
        self._patched.clear()

    def _span(self, name: str, fn: Callable) -> Callable:
        stack = self._stack
        clock = time.perf_counter
        stats = self.stats[name]
        echo = name == "scion.echo_series"

        def span(*args, **kwargs):
            if not stack:
                self.top_calls += 1
            if echo:
                path = args[1] if len(args) > 1 else kwargs.get("path")
                self.echo_pairs.add((self.top_calls, path_key(path)))
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - frame[0]
                if stats.samples is not None:
                    stats.samples.append(elapsed)
                    stats.starts.append(start)

        return span

    def calls(self, name: str) -> int:
        return self.stats[name].calls

    def samples(self, name: str) -> List[float]:
        return list(self.stats[name].samples or ())

    def starts(self, name: str) -> List[float]:
        return list(self.stats[name].starts)

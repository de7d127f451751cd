"""Selection cost against measurement history (AWS Ireland, server 1).

A UPIN domain measures continuously, so the ``paths_stats`` history a
selection query groups grows with every campaign iteration.  This bench
measures the Ireland destination for 10, then 40, then 160 iterations
in one growing database and, at each size, answers one request per
metric with :class:`~repro.selection.engine.PathSelector`.

Two tables:

* ``selection_history.txt`` — stats documents and the chosen path per
  metric at each size.  Simulation figures only, so CI regenerates it
  and fails on any difference.
* ``selection_history_timing.txt`` — wall-clock p50 of
  ``aggregates()`` three ways: with the ``paths_stats`` query cache
  cleared first (a cold rebuild, paid once per query shape and after a
  write other than an insert), right after one more campaign batch
  landed (what the first select after a batch pays: a fold of that
  batch), and with the cache warm; and of a whole ``select`` over the
  warm cache.  The after-one-batch timings add batches, so they run in
  a second world built the same way, which leaves the gated table
  untouched.  Not gated.
"""

from __future__ import annotations

import statistics
import time

from benchmarks.conftest import BENCH_SEED, write_figure
from repro.docdb.client import DocDBClient
from repro.experiments.fig5 import IRELAND_SERVER_ID as IRELAND
from repro.scion.snet import ScionHost
from repro.selection.engine import PathSelector
from repro.selection.request import Metric, UserRequest
from repro.suite.cli import seed_servers
from repro.suite.collect import PathsCollector
from repro.suite.config import PATHS_COLLECTION, STATS_COLLECTION, SuiteConfig
from repro.suite.runner import TestRunner

SIZES = (10, 40, 160)
METRICS = tuple(m for m in Metric if m is not Metric.COMPOSITE)
REPEATS = 15


def _p50_ms(call, *, before=None) -> float:
    call()  # warm-up, untimed
    samples = []
    for _ in range(REPEATS):
        if before is not None:
            before()
        start = time.perf_counter()
        call()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e3


def _after_one_batch_p50_ms(runner, call) -> float:
    call()  # builds the columns the timed calls fold into
    samples = []
    for _ in range(REPEATS):
        runner.run(iterations=1)
        start = time.perf_counter()
        call()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e3


def _ireland():
    """A fresh database with Ireland's paths collected, and its runner
    and selector."""
    client = DocDBClient()
    db = client["upin"]
    seed_servers(db)
    host = ScionHost.scionlab(seed=BENCH_SEED)
    config = SuiteConfig(destination_ids=[IRELAND])
    PathsCollector(host, db, config).collect()
    return db, TestRunner(host, db, config), PathSelector(db, host.topology)


def _table(title, header, rows):
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    return "\n".join(
        [title]
        + ["  " + "  ".join(c.rjust(w) for c, w in zip(r, widths)) for r in [header] + rows]
    )


def test_selection_history():
    db, runner, selector = _ireland()
    _, batch_runner, batch_selector = _ireland()
    stats = db[STATS_COLLECTION]
    n_paths = db[PATHS_COLLECTION].count_documents({"server_id": IRELAND})
    aggregates = lambda: selector.aggregates(IRELAND)
    latency = UserRequest.make(IRELAND, Metric.LATENCY)

    chosen, timing = [], []
    done = batch_done = 0
    for size in SIZES:
        runner.run(iterations=size - done)
        done = size
        batch_runner.run(iterations=size - batch_done)
        docs = stats.count_documents({"server_id": IRELAND})
        assert docs == n_paths * size
        chosen.append([str(size), str(docs)] + [
            selector.select(UserRequest.make(IRELAND, m)).best.aggregate.path_id
            for m in METRICS
        ])
        after_batch = _after_one_batch_p50_ms(
            batch_runner, lambda: batch_selector.aggregates(IRELAND)
        )
        batch_done = size + REPEATS
        timing.append([str(size), str(docs)] + [
            f"{ms:.3f} ms"
            for ms in (
                _p50_ms(aggregates, before=stats.cache.clear),
                after_batch,
                _p50_ms(aggregates),
                _p50_ms(lambda: selector.select(latency)),
            )
        ])

    where = f"AWS Ireland (server {IRELAND}, {n_paths} paths), seed {BENCH_SEED}"
    write_figure("selection_history.txt", _table(
        f"selection history: {where}, chosen path per metric",
        ["iterations", "stats docs"] + [m.value for m in METRICS],
        chosen,
    ))
    write_figure("selection_history_timing.txt", _table(
        f"selection cost vs history: {where}, p50 of {REPEATS} wall-clock runs",
        ["iterations", "stats docs", "cold rebuild aggregates()",
         "after one batch aggregates()", "cached aggregates()", "cached select"],
        timing,
    ))

"""Query-planner bench: the best-path hot path, three ways.

The selection engine's dominant query is

    find({"server_id": S, "timestamp_ms": {"$gte": T}})

over ``paths_stats`` — an equality on the leading field plus a range on
the trailing field of the compound index the runner creates
(``server_id_1_timestamp_ms_1``, see ``repro.suite.runner``).  This
bench builds a 30-iteration campaign-shaped database and times that
query under the three regimes the planner stack provides:

1. **COLLSCAN** — no usable index: every document is examined.
2. **IXSCAN** — the compound index narrows to one destination's most
   recent batch before the residual filter runs.
3. **cached** — the epoch-keyed query cache answers a repeat of the
   exact same query without touching documents at all.

Asserts the speedup floors (indexed >= 5x scan, cached >= 20x scan)
and writes the wall-clock latency table to
``benchmarks/output/query_planner.txt``.

A second, deterministic table, ``query_planner_plans.txt``, lists the
plan the planner picks for a fixed filter set — winning stage, index,
bounds, ``docsExamined`` and ``nReturned`` — covering single-field
equality, ``$in`` and range, a compound prefix, a prefix plus range, and
a document whose array key fan-out exceeds the index cap.  It holds no
timings, so CI regenerates it and fails on any difference.
"""

from __future__ import annotations

import random
import time
from typing import Any, Dict, List

from benchmarks.conftest import BENCH_SEED, write_figure
from repro.docdb.collection import Collection
from repro.docdb.query import matches
from repro.suite.storage import stats_document_id

ITERATIONS = 30
DESTINATIONS = 10
PATHS_PER_DESTINATION = 40
BASE_MS = 1_700_000_000_000
STEP_MS = 1_000
#: Start of the final campaign iteration: the selection engine's window.
LAST_ROUND_MS = BASE_MS + (ITERATIONS - 1) * DESTINATIONS * (
    PATHS_PER_DESTINATION * STEP_MS
)


def _campaign_documents() -> List[List[Dict[str, Any]]]:
    """Synthesize per-destination ``paths_stats`` batches (runner-shaped).

    One inner list per (iteration, destination) — the granularity at
    which :class:`~repro.suite.storage.StatsRepository` batch-inserts,
    so replaying them through ``insert_many`` reproduces the campaign's
    write/epoch pattern exactly.
    """
    rng = random.Random(BENCH_SEED)
    batches: List[List[Dict[str, Any]]] = []
    tick = 0
    for iteration in range(ITERATIONS):
        for server_id in range(1, DESTINATIONS + 1):
            batch = []
            for path_index in range(PATHS_PER_DESTINATION):
                path_id = f"dst{server_id}_p{path_index}"
                timestamp = BASE_MS + tick * STEP_MS
                tick += 1
                latency = rng.uniform(8.0, 120.0)
                batch.append(
                    {
                        "_id": stats_document_id(path_id, timestamp),
                        "path_id": path_id,
                        "server_id": server_id,
                        "timestamp_ms": timestamp,
                        "hop_count": rng.randint(2, 7),
                        "isds": [16, 17 + rng.randint(0, 3)],
                        "avg_latency_ms": latency,
                        "min_latency_ms": latency * 0.9,
                        "max_latency_ms": latency * 1.3,
                        "mdev_latency_ms": latency * 0.05,
                        "loss_pct": rng.choice([0.0, 0.0, 0.0, 3.3]),
                        "target_mbps": 12.0,
                        "bw_up_small_mbps": rng.uniform(4.0, 12.0),
                        "bw_down_small_mbps": rng.uniform(4.0, 12.0),
                        "bw_up_mtu_mbps": rng.uniform(8.0, 12.0),
                        "bw_down_mtu_mbps": rng.uniform(8.0, 12.0),
                    }
                )
            batches.append(batch)
    return batches


def _load(indexed: bool) -> Collection:
    coll = Collection("paths_stats")
    if indexed:
        coll.create_index("path_id")
        coll.create_index([("server_id", 1), ("timestamp_ms", 1)])
    for batch in _campaign_documents():
        coll.insert_many(batch)
    return coll


def _time_query(
    coll: Collection, flt: Dict[str, Any], *, repeats: int, keep_cache: bool
) -> float:
    """Median seconds per ``find(flt)``; cache cleared unless kept warm."""
    if keep_cache:
        coll.find(flt)  # warm the entry
    samples = []
    for _ in range(repeats):
        if not keep_cache:
            coll.cache.clear()
        start = time.perf_counter()
        docs = coll.find(flt)
        samples.append(time.perf_counter() - start)
        assert docs, "hot-path query must match documents"
    samples.sort()
    return samples[len(samples) // 2]


def _run() -> Dict[str, Any]:
    scan_coll = _load(indexed=False)
    idx_coll = _load(indexed=True)
    total_docs = ITERATIONS * DESTINATIONS * PATHS_PER_DESTINATION

    # The selection engine's window: one destination, last iteration.
    flt = {"server_id": 3, "timestamp_ms": {"$gte": LAST_ROUND_MS}}

    scan_s = _time_query(scan_coll, flt, repeats=9, keep_cache=False)
    idx_s = _time_query(idx_coll, flt, repeats=9, keep_cache=False)
    cached_s = _time_query(idx_coll, flt, repeats=9, keep_cache=True)

    scan_plan = scan_coll.explain(flt)
    idx_plan = idx_coll.explain(flt)
    return {
        "total_docs": total_docs,
        "filter": flt,
        "scan_s": scan_s,
        "idx_s": idx_s,
        "cached_s": cached_s,
        "scan_plan": scan_plan,
        "idx_plan": idx_plan,
    }


def test_query_planner_speedups(benchmark):
    result = benchmark.pedantic(_run, rounds=1, iterations=1)

    scan_s, idx_s, cached_s = (
        result["scan_s"], result["idx_s"], result["cached_s"],
    )
    idx_speedup = scan_s / idx_s
    cached_speedup = scan_s / cached_s

    # Plan shapes: the un-indexed collection must COLLSCAN everything,
    # the indexed one must IXSCAN the compound index and examine only
    # the one destination's recent slice.
    scan_stage = result["scan_plan"]["winningPlan"]["inputStage"]
    idx_stage = result["idx_plan"]["winningPlan"]["inputStage"]
    assert scan_stage["stage"] == "COLLSCAN"
    assert idx_stage["stage"] == "IXSCAN"
    assert idx_stage["indexName"] == "server_id_1_timestamp_ms_1"
    scan_examined = result["scan_plan"]["executionStats"]["docsExamined"]
    idx_examined = result["idx_plan"]["executionStats"]["docsExamined"]
    assert scan_examined == result["total_docs"]
    assert idx_examined <= PATHS_PER_DESTINATION * ITERATIONS
    assert idx_examined < scan_examined / 5

    # The ISSUE's acceptance floors.
    assert idx_speedup >= 5.0, f"indexed only {idx_speedup:.1f}x over scan"
    assert cached_speedup >= 20.0, f"cached only {cached_speedup:.1f}x over scan"

    lines = [
        "best-path hot-path latency (median of 9, "
        f"{result['total_docs']} docs, 30-iteration campaign shape)",
        f"  filter: {result['filter']}",
        f"  {'regime':10s} {'latency':>12s} {'speedup':>8s}",
        f"  {'COLLSCAN':10s} {scan_s * 1e3:9.3f} ms {1.0:7.1f}x",
        f"  {'IXSCAN':10s} {idx_s * 1e3:9.3f} ms {idx_speedup:7.1f}x",
        f"  {'cached':10s} {cached_s * 1e3:9.3f} ms {cached_speedup:7.1f}x",
        "  (plans and examined counts: query_planner_plans.txt)",
    ]
    write_figure("query_planner.txt", "\n".join(lines))


#: Deterministic plan table inputs.  ``paths_stats`` carries the
#: runner's indexes plus a single-field range index; ``overcap`` holds
#: one document whose ``tags`` fan-out (100 keys) exceeds the index cap
#: of 64 keys per document and one ordinary document.
_PLAN_FILTERS = [
    ("paths_stats", "single-field equality", {"path_id": "dst3_p7"}),
    ("paths_stats", "single-field $in",
     {"path_id": {"$in": ["dst3_p7", "dst4_p1"]}}),
    ("paths_stats", "single-field range", {"avg_latency_ms": {"$lt": 9.0}}),
    ("paths_stats", "compound prefix", {"server_id": 3}),
    ("paths_stats", "prefix + range",
     {"server_id": 3, "timestamp_ms": {"$gte": LAST_ROUND_MS}}),
    ("overcap", "over-cap compound prefix", {"a": 1}),
    ("overcap", "over-cap full key", {"a": 1, "tags": 5}),
    ("overcap", "over-cap single-field", {"tags": 5}),
]


def _plan_collections() -> Dict[str, Collection]:
    stats = _load(indexed=True)
    stats.create_index("avg_latency_ms")
    overcap = Collection("overcap")
    overcap.create_index([("a", 1), ("tags", 1)])
    overcap.create_index("tags")
    overcap.insert_many(
        [{"_id": 1, "a": 1, "tags": list(range(100))},
         {"_id": 2, "a": 1, "tags": [5]}]
    )
    return {"paths_stats": stats, "overcap": overcap}


def test_query_planner_plans():
    colls = _plan_collections()
    lines = ["winning plan per filter (deterministic; no timings)"]
    wrong = []
    for coll_name, label, flt in _PLAN_FILTERS:
        coll = colls[coll_name]
        plan = coll.explain(flt)
        stage = plan["winningPlan"]["inputStage"]
        stats = plan["executionStats"]
        brute = sum(1 for d in coll.all_documents() if matches(d, flt))
        lines += [
            f"{label}: {coll_name} {flt}",
            f"  {stage['stage']} index={stage.get('indexName', '-')} "
            f"bounds={stage.get('indexBounds', {})}",
            f"  docsExamined={stats['docsExamined']} "
            f"nReturned={stats['nReturned']} scan={brute}",
        ]
        if stats["nReturned"] != brute:
            wrong.append(label)
    write_figure("query_planner_plans.txt", "\n".join(lines))
    assert not wrong, f"indexed plans disagree with a scan: {wrong}"

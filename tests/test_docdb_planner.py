"""Query planner, explain(), query cache and epoch tests.

Covers the planner's plan-selection rules, the reconciliation between
``explain()``'s reported ``docsExamined`` and the collection's
``docs_examined`` counter, epoch/cache interaction (one ``insert_many``
batch = one bump), and the docs/DATABASE.md operator table staying in
sync with the matcher's dispatch set.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

from repro.docdb.aggregate import SUPPORTED_STAGES
from repro.docdb.cache import QueryCache, freeze
from repro.docdb.collection import Collection
from repro.docdb.planner import (
    STAGE_COLLSCAN,
    STAGE_IDHACK,
    STAGE_IXSCAN,
    extract_predicates,
    format_plan,
)
from repro.docdb.query import supported_operators

DOCS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "docs")


def campaign_collection(*, indexed: bool = True, n_servers: int = 4,
                        n_paths: int = 6, n_rounds: int = 5) -> Collection:
    """A small ``paths_stats``-shaped collection."""
    coll = Collection("paths_stats")
    if indexed:
        coll.create_index("path_id")
        coll.create_index([("server_id", 1), ("timestamp_ms", 1)])
    t = 0
    for rnd in range(n_rounds):
        batch = []
        for sid in range(1, n_servers + 1):
            for p in range(n_paths):
                batch.append(
                    {
                        "_id": f"s{sid}p{p}_{t}",
                        "server_id": sid,
                        "path_id": f"s{sid}p{p}",
                        "timestamp_ms": 1000 + t,
                        "avg_latency_ms": 10.0 + p,
                        "isds": [16, 17 + (p % 2)],
                    }
                )
                t += 1
        coll.insert_many(batch)
    return coll


class TestPlanSelection:
    def test_idhack_for_scalar_id(self):
        coll = campaign_collection()
        plan = coll.explain({"_id": "s1p0_0"})
        assert plan["winningPlan"]["inputStage"]["stage"] == STAGE_IDHACK
        assert plan["executionStats"]["docsExamined"] == 1
        assert plan["executionStats"]["nReturned"] == 1

    def test_compound_index_wins_equality_plus_range(self):
        coll = campaign_collection()
        plan = coll.explain({"server_id": 2, "timestamp_ms": {"$gte": 1096}})
        stage = plan["winningPlan"]["inputStage"]
        assert stage["stage"] == STAGE_IXSCAN
        assert stage["indexName"] == "server_id_1_timestamp_ms_1"
        # Only server 2's final-round slice is materialised.
        assert plan["executionStats"]["docsExamined"] < len(coll) / 3
        rejected = {
            p["inputStage"]["stage"] for p in plan["rejectedPlans"]
        }
        assert STAGE_COLLSCAN in rejected

    def test_collscan_when_nothing_sargable(self):
        coll = campaign_collection()
        plan = coll.explain({"path_id": {"$regex": "p0$"}})
        assert plan["winningPlan"]["inputStage"]["stage"] == STAGE_COLLSCAN
        assert plan["executionStats"]["docsExamined"] == len(coll)

    def test_array_valued_equality_not_sargable(self):
        # {"isds": [16, 17]} must match whole-array equality, which the
        # element-keyed index cannot answer — planner must not use it.
        coll = Collection("t")
        coll.create_index("isds")
        coll.insert_many(
            [
                {"_id": 1, "isds": [16, 17]},
                {"_id": 2, "isds": [16]},
                {"_id": 3, "isds": [17, 16]},
            ]
        )
        got = {d["_id"] for d in coll.find({"isds": [16, 17]})}
        assert got == {1}
        plan = coll.explain({"isds": [16, 17]})
        assert plan["winningPlan"]["inputStage"]["stage"] == STAGE_COLLSCAN

    def test_mixed_type_bounds_not_sargable(self):
        coll = Collection("t")
        coll.create_index("v")
        coll.insert_many([{"_id": i, "v": v} for i, v in
                          enumerate([1, 2, "x", 3])])
        # A string bound over a numeric field must not crash the planner.
        plan = coll.explain({"v": {"$gte": "x"}})
        assert plan["winningPlan"]["inputStage"]["stage"] in (
            STAGE_COLLSCAN, STAGE_IXSCAN,
        )
        assert {d["_id"] for d in coll.find({"v": {"$gte": "x"}})} == {2}

    def test_residual_filter_reapplied(self):
        coll = campaign_collection()
        flt = {"server_id": 1, "avg_latency_ms": {"$lte": 11.0}}
        got = coll.find(flt)
        assert got and all(
            d["server_id"] == 1 and d["avg_latency_ms"] <= 11.0 for d in got
        )

    def test_over_cap_array_document_found_by_every_lookup(self):
        # Doc 1's tags fan out past the index cap, so it lands in the
        # overflow set; indexed lookups must still return it for the
        # residual filter, exactly as a scan does.
        coll = Collection("t")
        coll.create_index([("a", 1), ("tags", 1)])
        coll.insert_many(
            [
                {"_id": 1, "a": 1, "tags": list(range(100))},
                {"_id": 2, "a": 1, "tags": [5]},
            ]
        )
        for flt in ({"a": 1}, {"a": 1, "tags": 5}):
            plan = coll.explain(flt)
            assert plan["winningPlan"]["inputStage"]["stage"] == STAGE_IXSCAN
            assert sorted(d["_id"] for d in coll.find(flt)) == [1, 2], flt
        assert [d["_id"] for d in coll.find({"a": 1, "tags": 6})] == [1]

    def test_format_plan_mentions_winner(self):
        coll = campaign_collection()
        text = format_plan(coll.explain({"server_id": 1}))
        assert "IXSCAN" in text
        assert "server_id" in text

    def test_extract_predicates_skips_logical(self):
        preds = extract_predicates(
            {"a": 1, "$or": [{"b": 2}], "c": {"$regex": "x"}}
        )
        assert "a" in preds and preds["a"].has_eq
        assert "b" not in preds and "c" not in preds


#: Runs indexed queries over string ids and prints each result's id order.
_ORDER_SCRIPT = """
import json
from repro.docdb.collection import Collection

coll = Collection("paths_stats")
coll.create_index("server_id")
coll.create_index("timestamp_ms")
coll.insert_many([
    {"_id": f"2_{i % 7}_{1700000000 + i}", "server_id": i % 3, "timestamp_ms": i}
    for i in range(60)
])
queries = [
    {"server_id": 1},
    {"server_id": {"$in": [2, 0]}},
    {"timestamp_ms": {"$gte": 10, "$lt": 50}},
]
out = []
for q in queries:
    assert coll.explain(q)["winningPlan"]["inputStage"]["stage"] == "IXSCAN"
    out.append([d["_id"] for d in coll.find(q)])
print(json.dumps(out))
"""


class TestResultOrder:
    def test_index_served_find_order_does_not_depend_on_hash_seed(self):
        """Equality, ``$in`` and range finds served by an index return
        string ids in the same order in every process."""
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        orders = []
        for hash_seed in ("0", "777"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-c", _ORDER_SCRIPT],
                env=env, capture_output=True, text=True, check=True,
            )
            orders.append(json.loads(proc.stdout))
        assert orders[0] == orders[1]
        assert [len(ids) for ids in orders[0]] == [20, 40, 40]


class TestExplainReconciliation:
    def test_docs_examined_matches_counter_delta(self):
        coll = campaign_collection()
        flt = {"server_id": 3, "timestamp_ms": {"$gte": 1050}}
        before = coll.stats["docs_examined"]
        plan = coll.explain(flt)
        # explain() executes: the counter advanced by exactly what it reports.
        assert coll.stats["docs_examined"] - before == (
            plan["executionStats"]["docsExamined"]
        )
        # ...and a plain find() of the same filter examines the same number.
        coll.cache.clear()
        before = coll.stats["docs_examined"]
        results = coll.find(flt)
        assert coll.stats["docs_examined"] - before == (
            plan["executionStats"]["docsExamined"]
        )
        assert len(results) == plan["executionStats"]["nReturned"]

    def test_scans_counts_only_collscans(self):
        coll = campaign_collection()
        scans0 = coll.stats["scans"]
        hits0 = coll.stats["index_hits"]
        coll.find({"server_id": 1})
        assert coll.stats["scans"] == scans0           # index answered it
        assert coll.stats["index_hits"] == hits0 + 1
        coll.find({"avg_latency_ms": {"$gte": 0}})     # not indexed
        assert coll.stats["scans"] == scans0 + 1

    def test_aggregate_leading_match_uses_index(self):
        coll = campaign_collection()
        scans0 = coll.stats["scans"]
        out = coll.aggregate(
            [
                {"$match": {"server_id": 2}},
                {"$group": {"_id": "$path_id", "lat": {"$avg": "$avg_latency_ms"}}},
            ]
        )
        assert len(out) == 6
        assert coll.stats["scans"] == scans0  # pushed-down $match hit the index


class TestEpochAndCache:
    def test_insert_many_is_one_epoch_bump(self):
        coll = Collection("t")
        e0 = coll.epoch
        coll.insert_many([{"_id": i} for i in range(50)])
        assert coll.epoch == e0 + 1
        coll.insert_one({"_id": 99})
        assert coll.epoch == e0 + 2

    def test_noop_write_does_not_invalidate(self):
        coll = Collection("t")
        coll.insert_many([{"_id": 1, "v": 1}])
        e = coll.epoch
        coll.replace_one({"_id": 1}, {"v": 1})  # no change
        assert coll.epoch == e
        assert coll.delete_many({"v": 999}).deleted_count == 0
        assert coll.epoch == e

    def test_repeat_find_is_cache_hit(self):
        coll = campaign_collection()
        flt = {"server_id": 1, "timestamp_ms": {"$gte": 1000}}
        first = coll.find(flt)
        hits0 = coll.cache.hits
        again = coll.find(flt)
        assert coll.cache.hits == hits0 + 1
        assert again == first

    def test_cached_results_are_isolated_copies(self):
        coll = Collection("t")
        coll.insert_one({"_id": 1, "xs": [1, 2]})
        a = coll.find({"_id": 1})
        a[0]["xs"].append(99)
        b = coll.find({"_id": 1})   # cache hit must be unpolluted
        assert b[0]["xs"] == [1, 2]

    def test_write_invalidates(self):
        coll = Collection("t")
        coll.insert_many([{"_id": 1, "v": 1}])
        assert [d["v"] for d in coll.find({"v": {"$gte": 0}})] == [1]
        coll.insert_many([{"_id": 2, "v": 5}])
        assert sorted(
            d["v"] for d in coll.find({"v": {"$gte": 0}})
        ) == [1, 5]

    def test_lru_eviction(self):
        cache = QueryCache(capacity=2)
        cache.put("a", 1, 1)
        cache.put("b", 1, 2)
        assert cache.get("a", 1) == 1   # refresh a
        cache.put("c", 1, 3)            # evicts b
        assert cache.get("b", 1) is None
        assert cache.get("a", 1) == 1

    def test_freeze_unhashable_returns_none(self):
        assert freeze({"a": [1, {"b": 2}]}) is not None
        assert freeze({"from": Collection("x")}) is None


class TestDocsStayInSync:
    def _section(self, text: str, start: str, end: str) -> str:
        i = text.index(start)
        return text[i:text.index(end, i)]

    def test_operator_table_matches_dispatch(self):
        with open(os.path.join(DOCS_DIR, "DATABASE.md"), encoding="utf-8") as fh:
            doc = fh.read()
        section = self._section(doc, "## Query language", "## Aggregation pipeline")
        documented = set(re.findall(r"^\| `(\$\w+)`", section, flags=re.M))
        assert documented == set(supported_operators())

    def test_stage_table_matches_executor(self):
        with open(os.path.join(DOCS_DIR, "DATABASE.md"), encoding="utf-8") as fh:
            doc = fh.read()
        section = self._section(doc, "## Aggregation pipeline", "## Index creation")
        documented = set(re.findall(r"^\| `(\$\w+)`", section, flags=re.M))
        assert documented == set(SUPPORTED_STAGES)


class TestIndexManagement:
    def test_compound_roundtrips_through_persistence(self, tmp_path):
        from repro.docdb.client import DocDBClient

        with DocDBClient.open(str(tmp_path)) as client:
            coll = client["upin"]["paths_stats"]
            coll.create_index([("server_id", 1), ("timestamp_ms", 1)])
            coll.insert_many(
                [{"_id": i, "server_id": i % 2, "timestamp_ms": i} for i in range(8)]
            )
            client.checkpoint()
        with DocDBClient.open(str(tmp_path)) as client:
            # Read from the checkpoint generation, not from WAL replay.
            assert client.recovery_report.records_replayed == 0
            reloaded = client["upin"]["paths_stats"]
        assert "server_id_1_timestamp_ms_1" in reloaded.index_information()
        assert reloaded.index_information()["server_id_1_timestamp_ms_1"][
            "fields"
        ] == [("server_id", 1), ("timestamp_ms", 1)]
        plan = reloaded.explain({"server_id": 1, "timestamp_ms": {"$gte": 5}})
        assert plan["winningPlan"]["inputStage"]["stage"] == STAGE_IXSCAN

    def test_drop_index_by_spec(self):
        coll = campaign_collection()
        coll.drop_index([("server_id", 1), ("timestamp_ms", 1)])
        assert "server_id_1_timestamp_ms_1" not in coll.index_information()
        plan = coll.explain({"server_id": 1, "timestamp_ms": {"$gte": 0}})
        assert plan["winningPlan"]["inputStage"]["stage"] == STAGE_COLLSCAN

    def test_index_information_shape(self):
        coll = campaign_collection()
        info = coll.index_information()
        assert info["server_id_1_timestamp_ms_1"]["fields"] == [
            ("server_id", 1), ("timestamp_ms", 1),
        ]

    def test_unknown_explain_filter_still_correct(self):
        coll = campaign_collection()
        plan = coll.explain({"missing_field": 7})
        assert plan["executionStats"]["nReturned"] == 0


class TestSelectionMemoInvalidation:
    """A flushed measurement batch must invalidate stale best-path
    answers (the controller memo keys on the stats collection's write
    epoch, which `StatsRepository.flush` bumps exactly once)."""

    def test_batch_flush_invalidates_best_path(self):
        from repro.experiments.world import run_campaign
        from repro.selection.engine import PathSelector
        from repro.selection.request import UserRequest
        from repro.suite.config import STATS_COLLECTION
        from repro.suite.storage import StatsRepository, stats_document_id
        from repro.upin.controller import PathController

        world = run_campaign([1], iterations=2, seed=424242)
        selector = PathSelector(world.db, world.host.topology)
        controller = PathController(world.host, selector)
        request = UserRequest.make(1, "latency")

        first = controller.cached_select(request)
        assert controller.cached_select(request) is first  # memo hit
        assert controller.selection_cache_info() == {
            "size": 1, "hits": 1, "misses": 1,
        }
        best_before = first.best.aggregate.path_id

        # A new measurement batch makes a different path clearly best.
        stats_coll = world.db[STATS_COLLECTION]
        rival = stats_coll.find_one(
            {"server_id": 1, "path_id": {"$ne": best_before}}
        )
        repo = StatsRepository(stats_coll)
        epoch_before = repo.epoch
        for k in range(50):
            doc = dict(rival)
            ts = doc["timestamp_ms"] + 10_000 + k
            doc["_id"] = stats_document_id(doc["path_id"], ts)
            doc["timestamp_ms"] = ts
            doc["avg_latency_ms"] = 0.001
            doc["loss_pct"] = 0.0
            repo.add(doc)
        assert repo.flush() == 50
        assert repo.epoch == epoch_before + 1  # whole batch: ONE bump

        updated = controller.cached_select(request)
        assert updated is not first            # stale answer invalidated
        assert controller.selection_cache_info()["misses"] == 2
        assert updated.best.aggregate.path_id == rival["path_id"]
        assert (
            updated.best.aggregate.avg_latency_ms
            < first.best.aggregate.avg_latency_ms
        )

"""Tests for the aggregation pipeline subset (repro.docdb.aggregate)."""

import pytest

from repro.docdb.aggregate import evaluate, run_pipeline
from repro.docdb.collection import Collection
from repro.errors import QueryError

DOCS = [
    {"_id": "1_0", "server_id": 1, "lat": 40.0, "isds": [16, 17]},
    {"_id": "1_1", "server_id": 1, "lat": 50.0, "isds": [16, 17]},
    {"_id": "2_0", "server_id": 2, "lat": 100.0, "isds": [16, 18]},
    {"_id": "2_1", "server_id": 2, "lat": None, "isds": [16, 18]},
]


@pytest.fixture()
def coll():
    c = Collection("stats")
    c.insert_many(DOCS)
    return c


class TestEvaluate:
    def test_field_reference(self):
        assert evaluate(DOCS[0], "$lat") == 40.0

    def test_missing_field_none(self):
        assert evaluate(DOCS[0], "$zzz") is None

    def test_dotted_reference(self):
        assert evaluate({"a": {"b": 3}}, "$a.b") == 3

    def test_constant(self):
        assert evaluate(DOCS[0], 7) == 7

    def test_composite_dict(self):
        assert evaluate(DOCS[0], {"s": "$server_id"}) == {"s": 1}


class TestStages:
    def test_match(self, coll):
        out = coll.aggregate([{"$match": {"server_id": 2}}])
        assert len(out) == 2

    def test_group_sum_avg(self, coll):
        out = coll.aggregate(
            [
                {
                    "$group": {
                        "_id": "$server_id",
                        "n": {"$sum": 1},
                        "avg": {"$avg": "$lat"},
                    }
                },
                {"$sort": {"_id": 1}},
            ]
        )
        assert out == [
            {"_id": 1, "n": 2, "avg": 45.0},
            {"_id": 2, "n": 2, "avg": 100.0},  # None excluded from avg
        ]

    def test_group_min_max(self, coll):
        out = coll.aggregate(
            [{"$group": {"_id": None, "lo": {"$min": "$lat"}, "hi": {"$max": "$lat"}}}]
        )
        assert out[0]["lo"] == 40.0 and out[0]["hi"] == 100.0

    def test_group_push_addtoset_first_last(self, coll):
        out = coll.aggregate(
            [
                {
                    "$group": {
                        "_id": "$server_id",
                        "ids": {"$push": "$_id"},
                        "sets": {"$addToSet": "$server_id"},
                        "first": {"$first": "$_id"},
                        "last": {"$last": "$_id"},
                    }
                },
                {"$sort": {"_id": 1}},
            ]
        )
        assert out[0]["ids"] == ["1_0", "1_1"]
        assert out[0]["sets"] == [1]
        assert out[0]["first"] == "1_0" and out[0]["last"] == "1_1"

    def test_group_by_composite_key(self, coll):
        out = coll.aggregate(
            [{"$group": {"_id": {"s": "$server_id"}, "n": {"$sum": 1}}}]
        )
        assert sorted(g["n"] for g in out) == [2, 2]

    def test_group_requires_id(self, coll):
        with pytest.raises(QueryError):
            coll.aggregate([{"$group": {"n": {"$sum": 1}}}])

    def test_sort_limit_skip(self, coll):
        out = coll.aggregate(
            [{"$sort": {"lat": -1}}, {"$skip": 1}, {"$limit": 2}]
        )
        assert [d["_id"] for d in out] == ["1_1", "1_0"]

    def test_count(self, coll):
        assert coll.aggregate([{"$count": "total"}]) == [{"total": 4}]

    def test_unknown_stage_rejected(self, coll):
        with pytest.raises(QueryError):
            coll.aggregate([{"$teleport": {}}])

    def test_stage_shape_validated(self):
        with pytest.raises(QueryError):
            run_pipeline([], [{"$match": {}, "$sort": {}}])

    def test_fig6_style_pipeline(self, coll):
        """The aggregation the selection engine runs: group by path prefix."""
        out = coll.aggregate(
            [
                {"$match": {"lat": {"$ne": None}}},
                {
                    "$group": {
                        "_id": "$server_id",
                        "latencies": {"$push": "$lat"},
                    }
                },
                {"$sort": {"_id": 1}},
            ]
        )
        assert out[0]["latencies"] == [40.0, 50.0]

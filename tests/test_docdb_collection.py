"""Tests for collections, indexes and the query planner."""

import pytest

from repro.docdb.collection import Collection
from repro.docdb.database import Database
from repro.docdb.client import DocDBClient
from repro.errors import DocDBError, DuplicateKeyError, QueryError


@pytest.fixture()
def coll():
    c = Collection("paths_stats")
    c.insert_many(
        [
            {"_id": f"1_{i}", "server_id": 1, "lat": 40 + i, "isds": [16, 17]}
            for i in range(5)
        ]
        + [
            {"_id": f"2_{i}", "server_id": 2, "lat": 100 + i, "isds": [16, 18]}
            for i in range(5)
        ]
    )
    return c


class TestInserts:
    def test_insert_one_returns_id(self):
        c = Collection("t")
        result = c.insert_one({"_id": "x", "v": 1})
        assert result.inserted_id == "x"
        assert len(c) == 1

    def test_insert_generates_id(self):
        c = Collection("t")
        result = c.insert_one({"v": 1})
        assert result.inserted_id

    def test_duplicate_id_rejected(self):
        c = Collection("t")
        c.insert_one({"_id": 1})
        with pytest.raises(DuplicateKeyError):
            c.insert_one({"_id": 1})

    def test_insert_many_atomic_on_duplicate(self):
        c = Collection("t")
        c.insert_one({"_id": 2})
        with pytest.raises(DuplicateKeyError):
            c.insert_many([{"_id": 1}, {"_id": 2}, {"_id": 3}])
        # Nothing from the failed batch must have landed.
        assert len(c) == 1

    def test_insert_many_intra_batch_duplicate(self):
        c = Collection("t")
        with pytest.raises(DuplicateKeyError):
            c.insert_many([{"_id": 1}, {"_id": 1}])

    def test_insert_returns_copy_semantics(self):
        c = Collection("t")
        doc = {"_id": 1, "arr": [1]}
        c.insert_one(doc)
        doc["arr"].append(2)
        assert c.find_one({"_id": 1})["arr"] == [1]


class TestFind:
    def test_find_all(self, coll):
        assert len(coll.find()) == 10

    def test_find_filtered(self, coll):
        assert len(coll.find({"server_id": 1})) == 5

    def test_find_returns_copies(self, coll):
        doc = coll.find_one({"_id": "1_0"})
        doc["lat"] = 999
        assert coll.find_one({"_id": "1_0"})["lat"] == 40

    def test_sort_ascending_descending(self, coll):
        up = coll.find({"server_id": 1}, sort=[("lat", 1)])
        down = coll.find({"server_id": 1}, sort=[("lat", -1)])
        assert [d["lat"] for d in up] == [40, 41, 42, 43, 44]
        assert [d["lat"] for d in down] == [44, 43, 42, 41, 40]

    def test_multi_key_sort(self, coll):
        docs = coll.find(sort=[("server_id", -1), ("lat", 1)])
        assert docs[0]["server_id"] == 2 and docs[0]["lat"] == 100

    def test_bad_sort_direction(self, coll):
        with pytest.raises(QueryError):
            coll.find(sort=[("lat", 2)])

    def test_limit_skip(self, coll):
        docs = coll.find(sort=[("lat", 1)], skip=2, limit=3)
        assert [d["lat"] for d in docs] == [42, 43, 44]

    def test_find_one_missing_none(self, coll):
        assert coll.find_one({"_id": "zzz"}) is None

    def test_count_documents(self, coll):
        assert coll.count_documents() == 10
        assert coll.count_documents({"lat": {"$gte": 100}}) == 5

    def test_distinct(self, coll):
        assert coll.distinct("server_id") == [1, 2]

    def test_distinct_array_field(self, coll):
        assert set(coll.distinct("isds")) == {16, 17, 18}


class TestIndexesAndPlanner:
    def test_index_used_for_equality(self, coll):
        coll.create_index("server_id")
        before = coll.stats["index_hits"]
        coll.find({"server_id": 1})
        assert coll.stats["index_hits"] == before + 1

    def test_id_lookup_never_scans(self, coll):
        before = coll.stats["scans"]
        coll.find({"_id": "1_3"})
        assert coll.stats["scans"] == before

    def test_full_scan_counted_without_index(self, coll):
        before = coll.stats["scans"]
        coll.find({"lat": {"$gt": 100}})
        assert coll.stats["scans"] == before + 1

    def test_index_range_query(self, coll):
        coll.create_index("lat")
        docs = coll.find({"lat": {"$gte": 102, "$lt": 104}})
        assert sorted(d["lat"] for d in docs) == [102, 103]

    def test_index_in_query(self, coll):
        coll.create_index("server_id")
        assert len(coll.find({"server_id": {"$in": [1, 99]}})) == 5

    def test_index_consistency_after_update(self, coll):
        coll.create_index("lat")
        doc = coll.find_one({"_id": "1_0"})
        coll.replace_one({"_id": "1_0"}, dict(doc, lat=500))
        assert coll.find({"lat": 500})[0]["_id"] == "1_0"
        assert coll.find({"lat": 40}) == []

    def test_index_consistency_after_delete(self, coll):
        coll.create_index("server_id")
        coll.delete_many({"server_id": 1})
        assert coll.find({"server_id": 1}) == []
        assert coll.count_documents() == 5

    def test_index_on_array_field(self, coll):
        coll.create_index("isds")
        docs = coll.find({"isds": 18})
        assert len(docs) == 5

    def test_results_identical_with_and_without_index(self, coll):
        flt = {"lat": {"$gt": 41, "$lte": 103}}
        without = sorted(d["_id"] for d in coll.find(flt))
        coll.create_index("lat")
        with_index = sorted(d["_id"] for d in coll.find(flt))
        assert without == with_index

    def test_list_and_drop_index(self, coll):
        coll.create_index("lat")
        assert sorted(coll.index_information()) == ["lat"]
        coll.drop_index("lat")
        assert sorted(coll.index_information()) == []


class TestUpdates:
    def test_update_one(self, coll):
        # Five documents match; only the first is replaced.
        result = coll.replace_one({"server_id": 1}, {"server_id": 1, "flag": True})
        assert result.matched_count == 1 and result.modified_count == 1
        assert coll.count_documents({"flag": True}) == 1

    def test_noop_update_not_counted_as_modified(self, coll):
        doc = coll.find_one({"_id": "1_0"})
        result = coll.replace_one({"_id": "1_0"}, doc)
        assert result.matched_count == 1 and result.modified_count == 0

    def test_upsert_inserts(self, coll):
        result = coll.replace_one(
            {"_id": "9_9", "server_id": 9}, {"lat": 1}, upsert=True
        )
        assert result.upserted_id == "9_9"
        assert coll.find_one({"_id": "9_9"}) == {"_id": "9_9", "server_id": 9, "lat": 1}

    def test_replace_one(self, coll):
        coll.replace_one({"_id": "1_0"}, {"fresh": True})
        doc = coll.find_one({"_id": "1_0"})
        assert doc == {"_id": "1_0", "fresh": True}

    def test_replace_rejects_operators(self, coll):
        with pytest.raises(QueryError):
            coll.replace_one({"_id": "1_0"}, {"$set": {"x": 1}})

    def test_validator_blocks_bad_update(self, coll):
        def validator(doc):
            if doc.get("lat", 0) > 1000:
                raise DocDBError("lat too big")

        coll.validator = validator
        with pytest.raises(DocDBError):
            coll.replace_one({"_id": "1_0"}, {"lat": 5000})
        assert coll.find_one({"_id": "1_0"})["lat"] == 40


class TestDeletes:
    def test_delete_one(self, coll):
        assert coll.delete_one({"server_id": 1}).deleted_count == 1
        assert coll.count_documents({"server_id": 1}) == 4

    def test_delete_many(self, coll):
        assert coll.delete_many({"server_id": 2}).deleted_count == 5

    def test_delete_everything(self, coll):
        assert coll.delete_many().deleted_count == 10
        assert len(coll) == 0


class TestDatabaseAndClient:
    def test_lazy_collection_creation(self):
        db = Database("upin")
        db["a"].insert_one({"_id": 1})
        assert db.list_collection_names() == ["a"]

    def test_contains_reflects_created_collections(self):
        db = Database("upin")
        assert "a" not in db
        db.collection("a")
        assert "a" in db
        db.drop_collection("a")
        assert "a" not in db

    def test_invalid_collection_name(self):
        db = Database("upin")
        with pytest.raises(DocDBError):
            db.collection("$bad")

    def test_drop_collection(self):
        db = Database("upin")
        db["a"].insert_one({"_id": 1})
        db.drop_collection("a")
        assert "a" not in db

    def test_client_database_reuse(self):
        client = DocDBClient()
        assert client["x"] is client["x"]
        assert client.list_database_names() == ["x"]

    def test_client_drop_database(self):
        client = DocDBClient()
        client["x"]["c"].insert_one({"_id": 1})
        client.drop_database("x")
        assert client.list_database_names() == []

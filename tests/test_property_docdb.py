"""Property-based tests for the document store.

Strategy: generate random-but-valid documents and filters, then check
invariants the query engine must satisfy regardless of input shape —
complement laws, index/scan result equivalence, replacement copying.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.docdb.collection import Collection
from repro.docdb.index import MAX_KEY_FANOUT
from repro.docdb.query import matches

# -- strategies ------------------------------------------------------------

scalars = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=8),
    st.booleans(),
    st.none(),
)

field_names = st.sampled_from(["a", "b", "c", "lat", "loss", "tag"])

flat_documents = st.dictionaries(field_names, scalars, max_size=5)

documents = st.dictionaries(
    field_names,
    st.one_of(
        scalars,
        st.lists(scalars, max_size=4),
        st.dictionaries(st.sampled_from(["x", "y"]), scalars, max_size=3),
    ),
    max_size=5,
)

numbers = st.integers(min_value=-100, max_value=100)


class TestQueryLaws:
    @given(documents)
    def test_empty_filter_matches_everything(self, doc):
        assert matches(doc, {})

    @given(documents, field_names, numbers)
    def test_eq_and_ne_complementary(self, doc, field, value):
        eq = matches(doc, {field: {"$eq": value}})
        ne = matches(doc, {field: {"$ne": value}})
        assert eq != ne

    @given(documents, field_names)
    def test_exists_complementary(self, doc, field):
        there = matches(doc, {field: {"$exists": True}})
        gone = matches(doc, {field: {"$exists": False}})
        assert there != gone

    @given(documents, field_names, numbers)
    def test_not_negates(self, doc, field, value):
        plain = matches(doc, {field: {"$gt": value}})
        negated = matches(doc, {field: {"$not": {"$gt": value}}})
        assert plain != negated

    @given(documents, field_names, numbers, numbers)
    def test_and_is_conjunction(self, doc, field, v1, v2):
        both = matches(doc, {"$and": [{field: {"$gte": v1}}, {field: {"$lte": v2}}]})
        separate = matches(doc, {field: {"$gte": v1}}) and matches(
            doc, {field: {"$lte": v2}}
        )
        assert both == separate

    @given(documents, field_names, numbers)
    def test_or_with_self_idempotent(self, doc, field, value):
        single = matches(doc, {field: value})
        doubled = matches(doc, {"$or": [{field: value}, {field: value}]})
        assert single == doubled

    @given(documents, field_names, st.lists(numbers, min_size=1, max_size=5))
    def test_in_equals_or_of_eqs(self, doc, field, values):
        via_in = matches(doc, {field: {"$in": values}})
        via_or = matches(doc, {"$or": [{field: {"$eq": v}} for v in values]})
        assert via_in == via_or


class TestCollectionLaws:
    @given(st.lists(flat_documents, max_size=20))
    @settings(max_examples=50)
    def test_insert_count_and_roundtrip(self, docs):
        coll = Collection("t")
        ids = []
        for doc in docs:
            ids.append(coll.insert_one(doc).inserted_id)
        assert len(coll) == len(docs)
        for doc, doc_id in zip(docs, ids):
            stored = coll.find_one({"_id": doc_id})
            for key, value in doc.items():
                assert stored[key] == value or (
                    value != value and stored[key] != stored[key]
                )

    @given(st.lists(flat_documents, max_size=25), numbers)
    @settings(max_examples=50)
    def test_index_and_scan_agree(self, docs, threshold):
        plain = Collection("scan")
        indexed = Collection("indexed")
        indexed.create_index("lat")
        for i, doc in enumerate(docs):
            doc = dict(doc, _id=i)
            plain.insert_one(doc)
            indexed.insert_one(doc)
        flt = {"lat": {"$gte": threshold}}
        assert sorted(d["_id"] for d in plain.find(flt)) == sorted(
            d["_id"] for d in indexed.find(flt)
        )

    @given(st.lists(flat_documents, max_size=15))
    @settings(max_examples=50)
    def test_find_partitioned_by_filter(self, docs):
        coll = Collection("t")
        for i, doc in enumerate(docs):
            coll.insert_one(dict(doc, _id=i))
        flt = {"a": {"$exists": True}}
        inside = {d["_id"] for d in coll.find(flt)}
        outside = {d["_id"] for d in coll.find({"a": {"$exists": False}})}
        assert inside | outside == set(range(len(docs)))
        assert inside & outside == set()

    @given(st.lists(flat_documents, min_size=1, max_size=15))
    @settings(max_examples=50)
    def test_delete_complement(self, docs):
        coll = Collection("t")
        for i, doc in enumerate(docs):
            coll.insert_one(dict(doc, _id=i))
        flt = {"b": {"$exists": True}}
        expected_deleted = coll.count_documents(flt)
        assert coll.delete_many(flt).deleted_count == expected_deleted
        assert len(coll) == len(docs) - expected_deleted
        assert coll.count_documents(flt) == 0

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=30))
    @settings(max_examples=50)
    def test_sort_is_correct(self, values):
        coll = Collection("t")
        for i, v in enumerate(values):
            coll.insert_one({"_id": i, "v": v})
        got = [d["v"] for d in coll.find(sort=[("v", 1)])]
        assert got == sorted(values)

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=30))
    @settings(max_examples=50)
    def test_group_sum_matches_python(self, values):
        coll = Collection("t")
        for i, v in enumerate(values):
            coll.insert_one({"_id": i, "v": v})
        out = coll.aggregate(
            [{"$group": {"_id": None, "total": {"$sum": "$v"}, "n": {"$sum": 1}}}]
        )
        assert out[0]["total"] == sum(values)
        assert out[0]["n"] == len(values)


class TestUpdateLaws:
    @given(flat_documents)
    def test_update_never_mutates_input(self, doc):
        coll = Collection("t")
        coll.insert_one({"_id": 1, "zz": 1})
        snapshot = copy.deepcopy(doc)
        coll.replace_one({"_id": 1}, doc)
        assert doc == snapshot
        assert coll.find_one({"_id": 1}) == dict(doc, _id=1)


#: Per-document ``tags`` array lengths, up to twice the index's key
#: fan-out cap, so some documents land in the overflow set.
tag_counts = st.lists(st.integers(min_value=0, max_value=2 * MAX_KEY_FANOUT))


class TestPlannerCacheLaws:
    """The planner/cache stack must be invisible: any access path —
    linear scan, single-field index, compound index, warm cache —
    returns exactly the brute-force `matches()` result set."""

    @given(
        st.lists(flat_documents, max_size=25),
        numbers,
        numbers,
        tag_counts,
        st.integers(min_value=0, max_value=2 * MAX_KEY_FANOUT),
    )
    @settings(max_examples=50)
    def test_all_access_paths_agree_with_brute_force(
        self, docs, eq_value, threshold, counts, tag
    ):
        stored = [dict(doc, _id=i) for i, doc in enumerate(docs)]
        for doc, n in zip(stored, counts):
            doc["tags"] = list(range(n))
        plain = Collection("scan")
        single = Collection("single")
        single.create_index("a")
        single.create_index("lat")
        single.create_index("tags")
        compound = Collection("compound")
        compound.create_index([("a", 1), ("lat", 1)])
        compound.create_index([("tags", 1), ("lat", 1)])
        for coll in (plain, single, compound):
            if stored:
                coll.insert_many(copy.deepcopy(stored))
        filters = [
            {"a": eq_value},
            {"a": eq_value, "lat": {"$gte": threshold}},
            {"lat": {"$gte": threshold, "$lte": threshold + 50}},
            {"a": {"$in": [eq_value, eq_value + 1]}},
            {"tags": tag},
            {"tags": {"$in": [tag, eq_value]}},
            {"tags": tag, "lat": {"$gte": threshold}},
        ]
        for flt in filters:
            brute = sorted(
                (d["_id"] for d in stored if matches(d, flt)), key=str
            )
            for coll in (plain, single, compound):
                first = sorted((d["_id"] for d in coll.find(flt)), key=str)
                cached = sorted((d["_id"] for d in coll.find(flt)), key=str)
                assert first == brute, (coll.name, flt)
                assert cached == brute, (coll.name, flt)

    @given(
        st.lists(
            st.lists(flat_documents, min_size=1, max_size=5), max_size=5
        ),
        numbers,
    )
    @settings(max_examples=50)
    def test_cache_never_stale_across_batches(self, batches, threshold):
        coll = Collection("t")
        coll.create_index("lat")
        flt = {"lat": {"$gte": threshold}}
        all_docs = []
        next_id = 0
        for batch in batches:
            prepared = [
                dict(d, _id=next_id + i) for i, d in enumerate(batch)
            ]
            next_id += len(prepared)
            coll.insert_many(copy.deepcopy(prepared))
            all_docs.extend(prepared)
            expected = sorted(
                d["_id"] for d in all_docs if matches(d, flt)
            )
            # Fresh answer after the batch's single epoch bump...
            assert sorted(d["_id"] for d in coll.find(flt)) == expected
            # ...and the immediately-cached repeat is identical.
            assert sorted(d["_id"] for d in coll.find(flt)) == expected

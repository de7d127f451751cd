"""Tests for the aggregation pipeline subset (repro.docdb.aggregate)."""

from numbers import Number

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.docdb.aggregate import _group_stage, evaluate, run_pipeline, split_leading_match
from repro.docdb.collection import Collection
from repro.docdb.query import matches
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


# -- the one-pass $group against the per-accumulator code it replaced ---------

# The accumulators the reference implements.
_ACCUMULATORS = frozenset(
    {"$sum", "$avg", "$min", "$max", "$push", "$addToSet", "$first", "$last"}
)


def _reference_group_stage(docs, spec):
    if "_id" not in spec:
        raise QueryError("$group requires an _id expression")
    key_expr = spec["_id"]
    groups = {}
    for doc in docs:
        key_value = evaluate(doc, key_expr)
        bucket = groups.setdefault(repr(key_value), (key_value, []))
        bucket[1].append(doc)

    out = []
    for key_value, members in groups.values():
        result = {"_id": key_value}
        for field_name, acc_spec in spec.items():
            if field_name == "_id":
                continue
            if not isinstance(acc_spec, dict) or len(acc_spec) != 1:
                raise QueryError(f"bad accumulator for {field_name!r}: {acc_spec}")
            acc, expr = next(iter(acc_spec.items()))
            if acc not in _ACCUMULATORS:
                raise QueryError(f"unsupported accumulator: {acc}")
            result[field_name] = _reference_accumulate(acc, expr, members)
        out.append(result)
    return out


def _reference_accumulate(acc, expr, members):
    values = [evaluate(d, expr) for d in members]
    if acc == "$push":
        return values
    if acc == "$addToSet":
        out = []
        for v in values:
            if v not in out:
                out.append(v)
        return out
    if acc == "$first":
        return values[0] if values else None
    if acc == "$last":
        return values[-1] if values else None
    numeric = [v for v in values if isinstance(v, Number) and not isinstance(v, bool)]
    if acc == "$sum":
        return sum(numeric) if numeric else 0
    if acc == "$avg":
        return sum(numeric) / len(numeric) if numeric else None
    if acc == "$min":
        return min(numeric) if numeric else None
    if acc == "$max":
        return max(numeric) if numeric else None
    raise QueryError(f"unhandled accumulator: {acc}")  # pragma: no cover


def _outcome(fn, *args):
    try:
        return ("ok", repr(fn(*args)))
    except QueryError as exc:
        return ("error", str(exc))


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.integers(-(10**6), 10**6),
    st.floats(allow_nan=True, allow_infinity=False, width=32),
)
_group_keys = st.one_of(
    st.sampled_from([0, 1, 1.0, True, False, 0.0, float("nan"), None, "1", "None", "nan"]),
    st.integers(-2, 2),
)
_values = st.one_of(
    _scalars,
    st.lists(_scalars, max_size=3),
    st.lists(st.dictionaries(st.sampled_from(["b", "c"]), _scalars, max_size=2), max_size=2),
    st.dictionaries(st.sampled_from(["b", "c"]), _scalars, max_size=2),
)
_documents = st.lists(
    st.fixed_dictionaries(
        {},
        optional={"g": _group_keys, "x": _values, "y": _values, "a": _values, "arr": _values},
    ),
    max_size=12,
)
_expressions = st.sampled_from(
    ["$g", "$x", "$y", "$a.b", "$arr", "$arr.b", "$arr.0", "$arr.0.b", "$missing",
     "$", 1, 2.5, None, "literal", {"p": "$x", "q": 3}, ["$g", "$a.b"]]
)
_accumulator_specs = st.builds(
    lambda acc, expr: {acc: expr}, st.sampled_from(sorted(_ACCUMULATORS)), _expressions
)
_group_specs = st.builds(
    lambda key, accs: {"_id": key, **accs},
    st.one_of(_expressions, st.sampled_from(["$g", {"k": "$g"}])),
    st.dictionaries(st.sampled_from(["n", "m", "s", "t"]), _accumulator_specs, max_size=4),
)
#: Specs both implementations must reject with the same error.
_malformed = st.sampled_from([{"$median": "$x"}, {}, {"$sum": 1, "$avg": "$x"}, "$x", 3])


class TestOnePassGroup:
    @given(_documents, _group_specs)
    @settings(max_examples=400)
    def test_matches_per_accumulator_reference(self, docs, spec):
        want = _outcome(_reference_group_stage, docs, spec)
        assert want[0] == "ok"
        assert _outcome(_group_stage, docs, spec) == want

    @given(
        st.lists(st.fixed_dictionaries({"g": _group_keys}), min_size=1, max_size=3),
        _group_specs,
        st.integers(0, 4),
        _malformed,
        st.booleans(),
    )
    def test_same_errors_as_reference(self, docs, spec, at, bad, drop_id):
        items = list(spec.items())
        items.insert(min(at, len(items)), ("bad", bad))
        spec = {k: v for k, v in items if not (drop_id and k == "_id")}
        want = _outcome(_reference_group_stage, docs, spec)
        assert want[0] == "error"
        assert _outcome(_group_stage, docs, spec) == want

    @pytest.mark.parametrize(
        "keys, groups",
        [
            ([1, 1.0, True, 1], [(1, 2), (1.0, 1), (True, 1)]),
            ([float("nan"), None, float("nan")], [(float("nan"), 2), (None, 1)]),
            ([0, False, 0.0, None, 0], [(0, 2), (False, 1), (0.0, 1), (None, 1)]),
        ],
    )
    def test_group_identity_is_repr_in_first_appearance_order(self, keys, groups):
        docs = [{"g": k} for k in keys]
        out = _group_stage(docs, {"_id": "$g", "n": {"$sum": 1}})
        assert repr([(g["_id"], g["n"]) for g in out]) == repr(groups)

    def test_bad_accumulator_rejected_before_any_document(self):
        with pytest.raises(QueryError, match="unsupported accumulator"):
            _group_stage([], {"_id": "$g", "n": {"$median": "$x"}})


class TestStdDevPop:
    def _std(self, values):
        docs = [{"g": 1, "x": v} for v in values]
        return _group_stage(docs, {"_id": "$g", "s": {"$stdDevPop": "$x"}})[0]["s"]

    def test_non_numeric_values_ignored(self):
        assert self._std([1.0, "7", True, None, [3.0], 2.0, 4.0]) == float(np.std([1.0, 2.0, 4.0]))

    def test_missing_fields_ignored(self):
        docs = [{"g": 1, "x": 2.0}, {"g": 1}, {"g": 1, "x": 5.0}]
        out = _group_stage(docs, {"_id": "$g", "s": {"$stdDevPop": "$x"}})
        assert out[0]["s"] == 1.5

    def test_none_without_numeric_values(self):
        assert self._std([None, "a", False]) is None

    def test_zero_for_one_value(self):
        value = self._std([42.5])
        assert value == 0.0 and isinstance(value, float)

    @given(
        st.lists(
            st.one_of(
                st.floats(-1e6, 1e6, allow_nan=False),
                st.integers(-(10**6), 10**6),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_equals_numpy_std_bit_for_bit(self, values):
        assert repr(self._std(values)) == repr(float(np.std(values)))

    def test_pipeline_through_collection(self, coll):
        out = coll.aggregate(
            [{"$group": {"_id": "$server_id", "s": {"$stdDevPop": "$lat"}}}, {"$sort": {"_id": 1}}]
        )
        assert out == [{"_id": 1, "s": 5.0}, {"_id": 2, "s": 0.0}]


# -- the incremental $group in Collection.aggregate -----------------------------

_FOLDED_GROUP = {
    "_id": "$path_id",
    "n": {"$sum": 1},
    "sum": {"$sum": "$v"},
    "avg": {"$avg": "$v"},
    "min": {"$min": "$v"},
    "max": {"$max": "$v"},
    "sd": {"$stdDevPop": "$v"},
    "push": {"$push": "$v"},
    "set": {"$addToSet": "$v"},
    "first": {"$first": "$v"},
    "last": {"$last": "$v"},
}
_FOLDED_PIPELINES = [
    [{"$match": {"server_id": 1}}, {"$group": _FOLDED_GROUP}],
    [{"$match": {"server_id": 2, "timestamp_ms": {"$gte": 20}}}, {"$group": _FOLDED_GROUP}],
    [{"$group": _FOLDED_GROUP}],
    [{"$match": {"server_id": 1}}, {"$group": _FOLDED_GROUP}, {"$sort": {"n": -1}}],
]
_STATS_INDEX = [("server_id", 1), ("timestamp_ms", 1)]
_folded_values = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=2),
    st.integers(-1000, 1000),
    st.floats(-1e6, 1e6),
    st.sampled_from([0.1, 0.2, 0.3, 1e16, 1.0, float("nan")]),
)
_stats_docs = st.fixed_dictionaries(
    {"server_id": st.integers(1, 2), "timestamp_ms": st.integers(0, 40)},
    optional={"path_id": st.sampled_from(["p0", "p1", None, 3]), "v": _folded_values},
)
_collection_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert_one"), _stats_docs),
        st.tuples(st.just("insert_many"), st.lists(_stats_docs, max_size=4)),
        st.tuples(st.just("replace_one"), st.integers(0, 99), _stats_docs),
        st.tuples(st.just("delete_many"), st.integers(0, 40)),
        st.tuples(st.just("create_index"), st.sampled_from([_STATS_INDEX, "path_id"])),
        st.tuples(st.just("drop_index"), st.sampled_from([_STATS_INDEX, "path_id"])),
        st.tuples(st.just("aggregate"), st.integers(0, len(_FOLDED_PIPELINES) - 1)),
    ),
    max_size=40,
)


def _fresh_answer(coll, pipeline):
    """The pipeline run from scratch over the matched documents in
    storage order."""
    match, rest = split_leading_match(pipeline)
    return run_pipeline([d for d in coll.all_documents() if matches(d, match)], rest)


class TestIncrementalGroup:
    @given(_collection_ops)
    @settings(max_examples=300, deadline=None)
    def test_equals_a_fresh_pipeline_over_storage_order(self, ops):
        coll = Collection("stats")
        next_id = 0
        for op, *args in ops:
            if op == "insert_one":
                coll.insert_one(dict(args[0], _id=next_id))
                next_id += 1
            elif op == "insert_many":
                coll.insert_many(
                    [dict(d, _id=next_id + i) for i, d in enumerate(args[0])]
                )
                next_id += len(args[0])
            elif op == "replace_one":
                coll.replace_one({"_id": args[0] % max(next_id, 1)}, args[1])
            elif op == "delete_many":
                coll.delete_many({"timestamp_ms": {"$lt": args[0] // 4}})
            elif op == "create_index":
                coll.create_index(args[0])
            elif op == "drop_index":
                coll.drop_index(args[0])
            else:
                pipeline = _FOLDED_PIPELINES[args[0]]
                assert repr(coll.aggregate(pipeline)) == repr(_fresh_answer(coll, pipeline))

    @given(st.lists(_stats_docs, min_size=2, max_size=12), st.sampled_from(_FOLDED_PIPELINES))
    @settings(max_examples=200, deadline=None)
    def test_an_index_never_changes_the_result(self, docs, pipeline):
        coll = Collection("stats")
        coll.insert_many([dict(d, _id=i) for i, d in enumerate(docs)])
        without = repr(coll.aggregate(pipeline))
        coll.create_index(_STATS_INDEX)
        assert repr(coll.aggregate(pipeline)) == without
        coll.drop_index(_STATS_INDEX)
        assert repr(coll.aggregate(pipeline)) == without

    def test_a_fold_examines_only_the_inserted_documents(self):
        coll = Collection("stats")
        coll.create_index(_STATS_INDEX)
        coll.insert_many([{"_id": i, "server_id": i % 2, "timestamp_ms": -i} for i in range(40)])
        pipeline = [{"$match": {"server_id": 1}}, {"$group": {"_id": None, "n": {"$sum": 1}}}]
        assert coll.aggregate(pipeline) == [{"_id": None, "n": 20}]
        coll.insert_many([{"_id": 40 + i, "server_id": 1, "timestamp_ms": i} for i in range(3)])
        examined, index_hits = coll.stats["docs_examined"], coll.stats["index_hits"]
        misses = coll.cache.misses
        assert coll.aggregate(pipeline) == [{"_id": None, "n": 23}]
        assert coll.stats["docs_examined"] == examined + 3
        assert coll.stats["index_hits"] == index_hits  # no planner call
        assert coll.cache.misses == misses + 1  # a fold is a miss
        coll.replace_one({"_id": 41}, {"server_id": 0, "timestamp_ms": 1})
        assert coll.aggregate(pipeline) == [{"_id": None, "n": 22}]
        assert coll.stats["index_hits"] == index_hits + 2  # replace + rebuild

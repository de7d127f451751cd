"""The document store's copy contract and its fast paths.

A document crosses the collection boundary as one copy each way: the
validating copy ``normalize_document`` builds in a single walk on the
way in, and one copy of every public read result on the way out, while
queries and the query cache pass stored documents by reference.  These
tests pin the single walk and the fast index keys against the generic
reference implementations they replaced, and check that no read result
aliases stored state.
"""

import enum
from decimal import Decimal
from numbers import Number

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.docdb.collection import Collection
from repro.docdb.document import iter_path_values, normalize_document
from repro.docdb.index import _field_keys, _index_key
from repro.errors import ValidationError

# -- references: validate in one walk, then copy in a second ----------------

_REFERENCE_SCALARS = (str, int, float, bool, type(None))


def _reference_check(value, depth):
    if depth > 64:
        raise ValidationError("document nesting too deep")
    if isinstance(value, dict):
        for key, sub in value.items():
            if not isinstance(key, str):
                raise ValidationError(f"document keys must be strings: {key!r}")
            _reference_check(sub, depth + 1)
    elif isinstance(value, (list, tuple)):
        for sub in value:
            _reference_check(sub, depth + 1)
    elif not isinstance(value, _REFERENCE_SCALARS):
        raise ValidationError(
            f"unsupported value type in document: {type(value).__name__}"
        )


def _reference_copy(value):
    if isinstance(value, dict):
        return {k: _reference_copy(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_reference_copy(v) for v in value]
    if isinstance(value, tuple):
        return tuple(_reference_copy(v) for v in value)
    return value


def _reference_normalize(doc, *, deep_copy=True):
    if not isinstance(doc, dict):
        raise ValidationError(f"document must be a dict, got {type(doc).__name__}")
    _reference_check(doc, depth=0)
    return _reference_copy(doc) if deep_copy else doc


def _reference_index_key(value):
    if isinstance(value, bool):
        return ("b", value)
    if isinstance(value, Number):
        return ("n", float(value))
    if isinstance(value, str):
        return ("s", value)
    if value is None:
        return ("z",)
    return ("o", repr(value))


def _reference_field_keys(doc, field):
    keys = []
    for v in iter_path_values(doc, field):
        if isinstance(v, list):
            keys.extend(_reference_index_key(e) for e in v)
        else:
            keys.append(_reference_index_key(v))
    return keys or [("z",)]


def _outcome(fn, *args, **kwargs):
    try:
        return ("ok", fn(*args, **kwargs))
    except ValidationError as exc:
        return ("error", str(exc))


def _containers(value):
    """Ids of the mutable containers in ``value``, ``value`` included."""
    if isinstance(value, dict):
        return {id(value)}.union(*map(_containers, value.values()))
    if isinstance(value, list):
        return {id(value)}.union(*map(_containers, value))
    if isinstance(value, tuple):
        return set().union(*map(_containers, value))
    return set()


# -- strategies --------------------------------------------------------------


class Level(enum.IntEnum):
    LOW = 1


scalars = st.one_of(
    st.integers(min_value=-(10**20), max_value=10**20),
    st.floats(allow_nan=False),
    st.text(max_size=6),
    st.booleans(),
    st.none(),
    # Scalar subclasses take the isinstance path, not the type() path.
    st.just(Level.LOW),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
)

#: Leaves and keys the store must reject.
invalid_leaves = st.one_of(
    st.builds(object),
    st.just({1, 2}),
    st.just(b"raw"),
    st.just(1j),
    st.just(np.int64(3)),
)

keys = st.one_of(st.text(max_size=4), st.sampled_from(["", "_id", "a.b"]))
bad_keys = st.one_of(st.integers(), st.none(), st.just(("k",)))


def values(leaves):
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=4).map(tuple),
            st.dictionaries(keys, inner, max_size=4),
        ),
        max_leaves=20,
    )


valid_documents = st.dictionaries(keys, values(scalars), max_size=6)
mixed_documents = st.dictionaries(
    st.one_of(keys, bad_keys),
    values(st.one_of(scalars, invalid_leaves)),
    max_size=6,
)


@st.composite
def deep_documents(draw):
    """Chains of containers around the 64-level limit, any leaf."""
    depth = draw(st.integers(min_value=60, max_value=68))
    value = draw(st.one_of(scalars, invalid_leaves, st.just({}), st.just([])))
    for kind in draw(st.lists(st.sampled_from("dlt"), min_size=depth, max_size=depth)):
        if kind == "d":
            value = {draw(st.one_of(keys, bad_keys)): value}
        elif kind == "l":
            value = [value]
        else:
            value = (value,)
    return {"root": value}


# -- one walk ----------------------------------------------------------------


class TestOneWalkNormalize:
    @given(st.one_of(valid_documents, mixed_documents, deep_documents()))
    @settings(max_examples=300)
    def test_matches_two_walk_reference(self, doc):
        got = _outcome(normalize_document, doc, ensure_id=False)
        want = _outcome(_reference_normalize, doc)
        assert got == want
        if got[0] == "ok":
            # Same container types at every level (a list never equals
            # a tuple), and a full copy: no container shared with input.
            assert repr(got[1]) == repr(want[1])
            assert not _containers(got[1]) & _containers(doc)

    @given(st.one_of(valid_documents, mixed_documents, deep_documents()))
    @settings(max_examples=200)
    def test_validate_only_path_matches_reference(self, doc):
        got = _outcome(normalize_document, doc, ensure_id=False, deep_copy=False)
        want = _outcome(_reference_normalize, doc, deep_copy=False)
        assert got == want
        if got[0] == "ok":
            assert got[1] is doc

    @pytest.mark.parametrize("doc", [[1, 2], "doc", None, ({"a": 1},)])
    def test_non_dict_message_unchanged(self, doc):
        assert _outcome(normalize_document, doc) == _outcome(_reference_normalize, doc)

    @pytest.mark.parametrize("depth, ok", [(63, True), (64, True), (65, False)])
    def test_depth_limit_boundary(self, depth, ok):
        doc = value = {}
        for _ in range(depth - 1):
            value["d"] = {}
            value = value["d"]
        value["leaf"] = 1  # the leaf sits at level ``depth``
        got = _outcome(normalize_document, doc, ensure_id=False)
        assert got == _outcome(_reference_normalize, doc)
        assert (got[0] == "ok") is ok


# -- direct index keys --------------------------------------------------------


class TestFieldKeys:
    @pytest.mark.parametrize(
        "doc, field",
        [
            ({}, "a"),
            ({"a": None}, "a"),
            ({"a": True}, "a"),
            ({"a": False}, "a"),
            ({"a": 1}, "a"),
            ({"a": 1.0}, "a"),
            ({"a": 10**30}, "a"),
            ({"a": Level.LOW}, "a"),
            ({"a": np.float64(2.5)}, "a"),
            ({"a": []}, "a"),
            ({"a": [1, 1.0, True, None, "x"]}, "a"),
            ({"a": [[1, 2], [], [[3]]]}, "a"),
            ({"a": {"b": 1}}, "a"),
            ({"a": (1, 2)}, "a"),
            ({"": 5}, ""),
            ({"a": {"b": [1, {"c": 2}]}}, "a.b"),
            ({"a": [{"b": 1}, {"b": [2, 3]}]}, "a.b"),
            ({"a": [5, 6]}, "a.1"),
        ],
    )
    def test_equals_generic_walk(self, doc, field):
        assert _field_keys(doc, field) == _reference_field_keys(doc, field)

    def test_int_and_float_share_a_key(self):
        assert _field_keys({"a": 1}, "a") == _field_keys({"a": 1.0}, "a")
        assert _field_keys({"a": True}, "a") != _field_keys({"a": 1}, "a")

    @given(
        st.dictionaries(st.sampled_from(["a", "b", ""]), values(scalars), max_size=3),
        st.sampled_from(["a", "b", "", "a.b", "a.0"]),
    )
    @settings(max_examples=200)
    def test_equals_generic_walk_on_random_documents(self, doc, field):
        assert _field_keys(doc, field) == _reference_field_keys(doc, field)

    @given(st.one_of(scalars, values(scalars)))
    def test_index_key_equals_reference(self, value):
        assert _index_key(value) == _reference_index_key(value)


# -- no read result aliases stored state ---------------------------------------

STORED = {"_id": 1, "server_id": 3, "xs": [1, 2], "d": {"k": [5]}}


@pytest.fixture
def coll():
    c = Collection("t")
    c.create_index("server_id")
    c.insert_many([STORED])  # stores a copy
    return c


def _scribble(value):
    """Mutate every container inside a read result."""
    if isinstance(value, dict):
        for sub in list(value.values()):
            _scribble(sub)
        value["scribbled"] = True
    elif isinstance(value, list):
        for sub in list(value):
            _scribble(sub)
        value.append(99)


def _reads(coll):
    """Fresh answers for every read shape, by uncached filters."""
    return (
        coll.find({"server_id": {"$in": [3]}}),
        coll.aggregate([{"$match": {"server_id": {"$gte": 3}}}]),
        coll.distinct("d"),
    )


PIPELINES = {
    "match-only": [{"$match": {"server_id": 3}}],
    "push": [
        {"$match": {"server_id": 3}},
        {"$group": {"_id": "$server_id", "all": {"$push": "$xs"}, "d": {"$first": "$d"}}},
    ],
}


class TestReadResultsNeverAlias:
    @pytest.mark.parametrize("name", sorted(PIPELINES))
    def test_aggregate(self, coll, name):
        pipeline = PIPELINES[name]
        first = coll.aggregate(pipeline)  # miss
        expected = coll.aggregate(pipeline)  # hit
        assert first == expected
        _scribble(first)
        assert coll.aggregate(pipeline) == expected  # hit after a mutated miss
        again = coll.aggregate(pipeline)
        _scribble(again)
        assert coll.aggregate(pipeline) == expected  # hit after a mutated hit
        assert coll.find({"_id": 1}) == [STORED]
        assert _reads(coll) == ([STORED], [STORED], [STORED["d"]])

    def test_find_after_a_miss_and_after_a_hit(self, coll):
        flt = {"server_id": 3}
        miss = coll.find(flt)
        _scribble(miss)
        hit = coll.find(flt)
        assert hit == [STORED]
        _scribble(hit)
        assert coll.find(flt) == [STORED]
        assert coll.find_one(flt) == STORED
        assert _reads(coll) == ([STORED], [STORED], [STORED["d"]])

    def test_find_with_an_uncacheable_filter(self, coll):
        # ``freeze`` cannot key a Decimal, so this read skips the query
        # cache; its result must still be a copy.
        flt = {"server_id": Decimal(3)}
        lookups = coll.cache.hits + coll.cache.misses
        first = coll.find(flt)
        assert first == [STORED]
        _scribble(first)
        assert coll.find(flt) == [STORED]
        assert coll.cache.hits + coll.cache.misses == lookups

    def test_distinct(self, coll):
        out = coll.distinct("d")
        out[0]["k"].append(99)
        assert coll.distinct("d") == [STORED["d"]]
        assert coll.find({"_id": 1}) == [STORED]

    def test_find_one_and_all_documents(self, coll):
        one = coll.find_one({"_id": 1})
        _scribble([one])
        every = coll.all_documents()
        assert every == [STORED]
        _scribble(every)
        assert coll.find_one({"_id": 1}) == STORED

"""Tests for document primitives (repro.docdb.document)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.docdb.document import (
    _walk,
    get_path,
    iter_path_values,
    new_object_id,
    normalize_document,
)
from repro.errors import ValidationError


class TestNormalize:
    def test_assigns_id(self):
        doc = normalize_document({"a": 1})
        assert "_id" in doc and len(doc["_id"]) == 24

    def test_keeps_explicit_id(self):
        assert normalize_document({"_id": "2_15"})["_id"] == "2_15"

    def test_deep_copies(self):
        inner = {"x": [1, 2]}
        doc = normalize_document({"_id": 1, "inner": inner})
        inner["x"].append(3)
        assert doc["inner"]["x"] == [1, 2]

    def test_rejects_non_dict(self):
        with pytest.raises(ValidationError):
            normalize_document([1, 2])

    def test_rejects_non_string_keys(self):
        with pytest.raises(ValidationError):
            normalize_document({1: "x"})

    def test_rejects_exotic_values(self):
        with pytest.raises(ValidationError):
            normalize_document({"x": object()})

    def test_rejects_deep_nesting(self):
        doc = {}
        cursor = doc
        for _ in range(70):
            cursor["d"] = {}
            cursor = cursor["d"]
        with pytest.raises(ValidationError):
            normalize_document(doc)

    def test_object_ids_unique(self):
        assert new_object_id() != new_object_id()


class TestPathResolution:
    DOC = {
        "a": {"b": {"c": 7}},
        "arr": [{"x": 1}, {"x": 2}, {"y": 3}],
        "plain": 5,
    }

    def test_top_level(self):
        assert get_path(self.DOC, "plain") == (True, 5)

    def test_nested(self):
        assert get_path(self.DOC, "a.b.c") == (True, 7)

    def test_missing(self):
        found, value = get_path(self.DOC, "a.b.zzz")
        assert not found and value is None

    def test_numeric_index_into_array(self):
        assert get_path(self.DOC, "arr.1.x") == (True, 2)

    def test_index_out_of_range(self):
        assert get_path(self.DOC, "arr.9.x")[0] is False

    def test_array_fanout(self):
        assert list(iter_path_values(self.DOC, "arr.x")) == [1, 2]

    def test_empty_path_returns_doc(self):
        assert get_path(self.DOC, "") == (True, self.DOC)


_leaves = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=2))
_keys = st.sampled_from(["a", "b", "0", "1", ""])
_trees = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(_keys, inner, max_size=3)
    ),
    max_leaves=8,
)
_paths = st.lists(_keys, max_size=3).map(".".join)


def _walk_values(doc, path):
    return list(_walk(doc, path.split(".") if path else []))


class TestFastPathAgreesWithWalk:
    """The one-lookup read of an undotted field on a dict gives what the
    generic walk gives, for every path and container shape."""

    @given(_trees, _paths)
    @settings(max_examples=400)
    def test_iter_path_values(self, doc, path):
        assert list(iter_path_values(doc, path)) == _walk_values(doc, path)

    @given(_trees, _paths)
    @settings(max_examples=400)
    def test_get_path(self, doc, path):
        values = _walk_values(doc, path)
        want = (True, values[0]) if values else (False, None)
        got = get_path(doc, path)
        assert got == want and got[1] is want[1]

    @pytest.mark.parametrize("doc", [{"a": 1}, [1, 2], 5, None, "s"])
    def test_empty_path_returns_the_value_itself(self, doc):
        assert get_path(doc, "")[1] is doc
        assert [v is doc for v in iter_path_values(doc, "")] == [True]

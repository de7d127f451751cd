"""Tests for document primitives (repro.docdb.document)."""

import pytest

from repro.docdb.document import (
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

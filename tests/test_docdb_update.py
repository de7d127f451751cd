"""Tests for whole-document replacement (``Collection.replace_one``)."""

import pytest

from repro.docdb.collection import Collection, is_update_document
from repro.errors import ValidationError

BASE = {"_id": 1, "a": 1, "nested": {"x": 10}, "arr": [1, 2], "tags": ["red"]}


def _coll() -> Collection:
    coll = Collection("t")
    coll.insert_one(BASE)
    return coll


class TestReplacement:
    def test_detects_update_documents(self):
        assert is_update_document({"$set": {"a": 1}})
        assert not is_update_document({"a": 1})

    def test_replacement_keeps_id(self):
        coll = _coll()
        coll.replace_one({"_id": 1}, {"b": 5})
        assert coll.find_one({"_id": 1}) == {"_id": 1, "b": 5}

    def test_original_untouched(self):
        coll = _coll()
        replacement = {"a": 99}
        coll.replace_one({"_id": 1}, replacement)
        replacement["a"] = 100
        assert BASE["a"] == 1
        assert replacement == {"a": 100}
        assert coll.find_one({"_id": 1}) == {"_id": 1, "a": 99}

    def test_invalid_replacement_rejected_before_any_write(self, tmp_path):
        from repro.docdb.client import DocDBClient

        client = DocDBClient.open(str(tmp_path), fsync="never")
        coll = client["db"]["t"]
        coll.insert_one(BASE)
        epoch = coll.epoch
        for bad in ({"a": {1, 2}}, {"a": object()}, {1: "k"}):
            with pytest.raises(ValidationError):
                coll.replace_one({"_id": 1}, bad)
        assert coll.find_one({"_id": 1}) == BASE
        assert coll.epoch == epoch
        client.close()
        reopened = DocDBClient.open(str(tmp_path), fsync="never")
        assert reopened["db"]["t"].find_one({"_id": 1}) == BASE
        reopened.close()

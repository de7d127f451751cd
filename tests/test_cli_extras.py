"""Tests for the JSON showpaths output and the signed-campaign CLI flag."""

import json

import pytest

from repro.apps.cli import main as scion_main
from repro.docdb.auth import SIGNATURE_FIELD
from repro.docdb.client import DocDBClient
from repro.suite.cli import main as suite_main


class TestShowpathsJson:
    def test_json_output_parses(self, capsys):
        assert (
            scion_main(
                ["showpaths", "19-ffaa:0:1303", "-m", "3", "--extended",
                 "--format", "json"]
            )
            == 0
        )
        data = json.loads(capsys.readouterr().out)
        assert data["destination"] == "19-ffaa:0:1303"
        assert len(data["paths"]) == 3
        first = data["paths"][0]
        assert first["hop_count"] == 5
        assert first["mtu"] == 1472
        assert first["sequence"].count("#") == 5
        assert first["isds"] == [17, 19]

    def test_json_and_text_agree_on_paths(self, capsys):
        scion_main(["showpaths", "19-ffaa:0:1303", "-m", "4", "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        scion_main(["showpaths", "19-ffaa:0:1303", "-m", "4"])
        text = capsys.readouterr().out
        for entry in data["paths"]:
            assert entry["hops"] in text


class TestSignedCampaignCli:
    def test_sign_flag_stores_signed_documents(self, capsys, tmp_path):
        db_dir = str(tmp_path / "db")
        assert suite_main(["1", "--some_only", "--sign", "--db-dir", db_dir]) == 0
        out = capsys.readouterr().out
        assert "signing stats as 17-ffaa:1:e01" in out
        assert "PKC verified" in out
        with DocDBClient.open(db_dir) as restored:
            docs = restored["upin"]["paths_stats"].find()
        assert docs
        assert all(SIGNATURE_FIELD in d for d in docs)

    def test_unsigned_campaign_has_no_signatures(self, capsys):
        assert suite_main(["1", "--some_only"]) == 0
        # (fresh in-memory db each invocation; nothing to assert beyond rc)


class TestDurableCampaignCli:
    def test_durability_requires_db_dir(self, capsys):
        assert suite_main(["1", "--some_only", "--durability", "batch"]) == 2
        assert "--durability requires --db-dir" in capsys.readouterr().err

    def test_durable_campaign_checkpoints_and_recovers(self, capsys, tmp_path):
        db_dir = str(tmp_path / "db")
        assert (
            suite_main(
                ["1", "--some_only", "--db-dir", db_dir,
                 "--durability", "batch", "--metrics"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "durable database: wal fsync=batch" in out
        assert "wal:" in out  # the --metrics WAL block
        assert "database checkpointed under" in out
        # The campaign's documents survive a fresh recovery.
        recovered = DocDBClient.open(db_dir)
        assert recovered.recovery_report.records_replayed == 0  # checkpointed
        assert len(recovered["upin"]["paths_stats"]) > 0
        assert len(recovered["upin"]["paths"]) > 0
        recovered.close()

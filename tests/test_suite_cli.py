"""Tests for the test-suite CLI."""

import pytest

from repro.docdb.client import DocDBClient
from repro.suite.cli import build_parser, main, seed_servers
from repro.suite.config import STATS_COLLECTION, SERVERS_COLLECTION


class TestSuiteCli:
    def test_parser_mirrors_test_suite_sh(self):
        args = build_parser().parse_args(["100", "--skip"])
        assert args.iterations == 100 and args.skip and not args.some_only

    def test_some_only_flag(self):
        args = build_parser().parse_args(["10", "--some_only"])
        assert args.some_only

    def test_seed_servers_idempotent(self):
        db = DocDBClient()["upin"]
        assert seed_servers(db) == 21
        assert seed_servers(db) == 21
        assert db[SERVERS_COLLECTION].count_documents() == 21

    def test_main_some_only(self, capsys):
        assert main(["1", "--some_only"]) == 0
        out = capsys.readouterr().out
        assert "collected 22 paths" in out
        assert "stats stored" in out

    def test_main_skip_without_paths_stores_nothing(self, capsys):
        assert main(["1", "--skip", "--some_only"]) == 0
        out = capsys.readouterr().out
        assert "campaign: 0 stats stored" in out

    def test_main_persists_db(self, tmp_path, capsys):
        db_dir = str(tmp_path / "db")
        assert main(["1", "--some_only", "--db-dir", db_dir]) == 0
        assert "durable database: wal fsync=never" in capsys.readouterr().out
        with DocDBClient.open(db_dir) as restored:
            assert restored["upin"][STATS_COLLECTION].count_documents() == 22

    @pytest.mark.parametrize(
        "durability", [pytest.param(None, id="default"), "batch"]
    )
    def test_rerun_on_persisted_db_adds_a_full_campaign(self, tmp_path, capsys, durability):
        # The simulated clock restarts at 0 in each run, so the second
        # run's stats ids must not collide with the first run's.
        db_dir = str(tmp_path / "db")
        flags = ["--db-dir", db_dir]
        if durability is not None:
            flags += ["--durability", durability]

        def stored() -> int:
            with DocDBClient.open(db_dir) as client:
                return client["upin"][STATS_COLLECTION].count_documents()

        assert main(["1", "--some_only"] + flags) == 0
        first = stored()
        assert first == 22
        assert main(["1", "--some_only", "--skip"] + flags) == 0
        assert stored() == 2 * first

    def test_snapshot_durability_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["1", "--durability", "snapshot"])
        assert exc.value.code == 2

    def test_old_snapshot_layout_is_refused(self, tmp_path, capsys):
        # A directory that the removed snapshot mode wrote: top-level
        # <db>.<coll>.jsonl files and no CHECKPOINT.
        (tmp_path / "upin.paths_stats.jsonl").write_text('{"__meta__": {}}\n')
        assert main(["1", "--some_only", "--db-dir", str(tmp_path)]) == 1
        assert "upin.paths_stats.jsonl" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "upin.paths_stats.jsonl"
        ]

    def test_main_metrics_flag(self, capsys):
        assert main(["1", "--some_only", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "metrics:" in out
        assert "batches:" in out

    def test_main_negative_iterations_is_a_usage_error(self, capsys):
        assert main(["-1"]) == 2
        err = capsys.readouterr().err
        assert "error: iterations must be >= 0" in err

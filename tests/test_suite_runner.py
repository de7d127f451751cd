"""Tests for the measurement runner, storage batching and fault plans."""

from collections import Counter

import pytest

from repro.crypto.rsa import keypair_from_seed
from repro.docdb.auth import SIGNATURE_FIELD, SignedDocumentVerifier
from repro.docdb.client import DocDBClient
from repro.errors import DataLossError, MeasurementError
from repro.netsim.network import ServerHealth
from repro.scion.snet import ScionHost
from repro.scionlab.defaults import study_destination_ids
from repro.suite.cli import seed_servers
from repro.suite.collect import PathsCollector
from repro.suite.config import PATHS_COLLECTION, STATS_COLLECTION, SuiteConfig
from repro.suite.faults import DataLossFault, FaultPlan, ServerOutage
from repro.suite.runner import TestRunner
from repro.suite.storage import StatsRepository, stats_document_id


@pytest.fixture()
def env():
    client = DocDBClient()
    db = client["upin"]
    seed_servers(db)
    host = ScionHost.scionlab(seed=2)
    config = SuiteConfig(iterations=1, destination_ids=[3])
    PathsCollector(host, db, config).collect()
    return host, db, config


class TestStatsRepository:
    def test_batch_flush(self):
        client = DocDBClient()
        repo = StatsRepository(client["d"]["s"])
        for i in range(5):
            repo.add({"_id": f"3_{i}_1", "v": i})
        assert len(repo) == 5
        assert repo.flush() == 5
        assert len(repo) == 0
        assert client["d"]["s"].count_documents() == 5

    def test_flush_empty_is_zero(self):
        repo = StatsRepository(DocDBClient()["d"]["s"])
        assert repo.flush() == 0

    def test_data_loss_drops_whole_buffer(self):
        client = DocDBClient()

        def crash(batch):
            raise DataLossError("boom")

        repo = StatsRepository(client["d"]["s"], flush_hook=crash)
        repo.add({"_id": "x"})
        with pytest.raises(DataLossError):
            repo.flush()
        assert repo.lost_documents == 1
        assert client["d"]["s"].count_documents() == 0
        # Buffer was consumed; a retry flush stores nothing stale.
        assert repo.flush() == 0

    def test_lost_last_flush_tracks_per_batch_delta(self):
        client = DocDBClient()

        def crash(batch):
            raise DataLossError("boom")

        repo = StatsRepository(client["d"]["s"], flush_hook=crash)
        repo.add({"_id": "a"})
        with pytest.raises(DataLossError):
            repo.flush()
        repo.add({"_id": "b"})
        repo.add({"_id": "c"})
        with pytest.raises(DataLossError):
            repo.flush()
        assert repo.lost_last_flush == 2  # the delta, not the cumulative 3
        assert repo.lost_documents == 3
        # A clean (empty) flush resets the delta.
        assert repo.flush() == 0
        assert repo.lost_last_flush == 0

    def test_discard(self):
        repo = StatsRepository(DocDBClient()["d"]["s"])
        repo.add({"_id": "x"})
        assert repo.discard() == 1
        assert repo.flush() == 0

    def test_signing(self):
        kp = keypair_from_seed(3, bits=256)
        client = DocDBClient()
        coll = client["d"]["s"]
        verifier = SignedDocumentVerifier()
        verifier.register_writer("17-ffaa:1:e01", kp.public)
        coll.validator = verifier
        repo = StatsRepository(coll, signer=kp, signer_subject="17-ffaa:1:e01")
        repo.add({"_id": "3_0_1", "lat": 20.0})
        assert repo.flush() == 1
        stored = coll.find_one({"_id": "3_0_1"})
        assert SIGNATURE_FIELD in stored

    def test_document_id_scheme(self):
        assert stats_document_id("2_15", 123456) == "2_15_123456"


class TestRunnerHappyPath:
    def test_one_iteration_stores_one_doc_per_path(self, env):
        host, db, config = env
        report = TestRunner(host, db, config).run()
        n_paths = db[PATHS_COLLECTION].count_documents()
        assert report.paths_tested == n_paths
        assert report.stats_stored == n_paths
        assert report.measurement_errors == 0
        assert db[STATS_COLLECTION].count_documents() == n_paths

    def test_document_schema_matches_fig3(self, env):
        host, db, config = env
        TestRunner(host, db, config).run()
        doc = db[STATS_COLLECTION].find_one({"server_id": 3})
        assert doc["_id"].startswith(doc["path_id"] + "_")
        for field in (
            "avg_latency_ms", "min_latency_ms", "max_latency_ms",
            "mdev_latency_ms", "loss_pct", "bw_up_small_mbps",
            "bw_down_small_mbps", "bw_up_mtu_mbps", "bw_down_mtu_mbps",
            "isds", "hop_count", "timestamp_ms", "target_mbps",
        ):
            assert field in doc, field
        assert doc["target_mbps"] == pytest.approx(12.0)

    def test_multiple_iterations_multiply_samples(self, env):
        host, db, config = env
        from dataclasses import replace

        runner = TestRunner(host, db, replace(config, iterations=3))
        report = runner.run()
        n_paths = db[PATHS_COLLECTION].count_documents()
        assert report.stats_stored == 3 * n_paths
        assert report.iterations == 3

    def test_sim_time_advances_15s_per_path(self, env):
        host, db, config = env
        report = TestRunner(host, db, config).run()
        n_paths = db[PATHS_COLLECTION].count_documents()
        assert report.sim_seconds == pytest.approx(15.0 * n_paths)

    def test_timestamps_unique_and_increasing(self, env):
        host, db, config = env
        from dataclasses import replace

        TestRunner(host, db, replace(config, iterations=2)).run()
        stamps = [d["timestamp_ms"] for d in db[STATS_COLLECTION].find(sort=[("timestamp_ms", 1)])]
        assert len(set(stamps)) == len(stamps)


class TestRunnerFaultTolerance:
    def test_server_outage_skips_but_does_not_crash(self, env):
        host, db, config = env
        from dataclasses import replace

        plan = FaultPlan(outages=[ServerOutage(3, 0, 1, ServerHealth.DOWN)])
        runner = TestRunner(host, db, replace(config, iterations=2, max_retries=0),
                            faults=plan)
        report = runner.run()
        n_paths = db[PATHS_COLLECTION].count_documents()
        # Iteration 0 fails on the bwtest (server down); iteration 1 works.
        assert report.measurement_errors == n_paths
        assert report.stats_stored == n_paths
        assert plan.injected_outages >= 1

    def test_error_response_also_tolerated(self, env):
        host, db, config = env
        from dataclasses import replace

        plan = FaultPlan(outages=[ServerOutage(3, 0, 1, ServerHealth.ERROR)])
        report = TestRunner(
            host, db, replace(config, iterations=1, max_retries=0), faults=plan
        ).run()
        assert report.stats_stored == 0
        assert report.measurement_errors == db[PATHS_COLLECTION].count_documents()

    def test_data_loss_bounded_to_one_destination(self, env):
        host, db, config = env
        from dataclasses import replace

        plan = FaultPlan(data_loss=DataLossFault(probability=1.0))
        report = TestRunner(host, db, replace(config, iterations=2), faults=plan).run()
        assert report.stats_stored == 0
        assert report.stats_lost > 0
        assert plan.injected_losses == 2  # one per (iteration, destination)

    def test_two_flush_crashes_do_not_double_count_losses(self, env):
        """Regression: ``stats_lost`` once re-added the repository's
        *cumulative* loss counter on every crash, so a second lost batch
        inflated the total by the first batch again."""
        host, db, config = env
        from dataclasses import replace

        plan = FaultPlan(data_loss=DataLossFault(probability=1.0))
        runner = TestRunner(host, db, replace(config, iterations=2), faults=plan)
        report = runner.run()
        n_paths = db[PATHS_COLLECTION].count_documents()
        assert plan.injected_losses == 2  # two crashed flushes...
        assert report.stats_lost == 2 * n_paths  # ...each counted once
        # The cumulative repository counter agrees with the report.
        assert runner.stats.lost_documents == report.stats_lost

    @pytest.mark.parametrize("sequence", ["1-ffaa:0:1#0,0", "not-a-sequence"])
    def test_unresolvable_stored_path_is_skipped(self, env, sequence):
        host, db, config = env
        paths = db[PATHS_COLLECTION]
        doc = paths.find_one({"path_index": 0})
        paths.replace_one({"_id": doc["_id"]}, dict(doc, sequence=sequence))
        report = TestRunner(host, db, config).run()
        assert report.measurement_errors == 1
        assert report.error_log[0].startswith(f"{doc['_id']}: ")
        assert report.paths_tested == len(paths) - 1

    def test_outage_window_definition(self):
        outage = ServerOutage(1, 2, 4)
        assert not outage.active(1)
        assert outage.active(2) and outage.active(3)
        assert not outage.active(4)

    def test_outage_validation(self):
        from repro.errors import ValidationError

        with pytest.raises(ValidationError):
            ServerOutage(1, 3, 3)
        with pytest.raises(ValidationError):
            DataLossFault(probability=1.5)

    def test_campaign_survives_mixed_faults(self, env):
        """§4.1.2: continuous measurements require continuous functioning."""
        host, db, config = env
        from dataclasses import replace

        plan = FaultPlan(
            outages=[ServerOutage(3, 1, 2, ServerHealth.DOWN)],
            data_loss=DataLossFault(probability=0.3, seed=7),
        )
        report = TestRunner(
            host, db, replace(config, iterations=4, max_retries=0), faults=plan
        ).run()
        # Campaign always completes all iterations.
        assert report.iterations == 4
        assert report.stats_stored > 0


def study_env(**config_kwargs):
    """The five study destinations at seed 3, paths collected."""
    client = DocDBClient()
    db = client["upin"]
    seed_servers(db)
    host = ScionHost.scionlab(seed=3)
    config = SuiteConfig(
        iterations=1, destination_ids=study_destination_ids(), **config_kwargs
    )
    PathsCollector(host, db, config).collect()
    return host, db, config


class TestRunnerDestinationIsolation:
    """§4.1.2: one bad destination must never cost the others their data."""

    DOWN = ServerOutage(1, 0, 1, ServerHealth.DOWN)

    def test_down_destination_is_isolated(self):
        host, db, config = study_env(max_retries=0)
        assert config.continue_on_error  # the default
        plan = FaultPlan(outages=[self.DOWN])
        report = TestRunner(host, db, config, faults=plan).run()

        counts = Counter(doc["server_id"] for doc in db[PATHS_COLLECTION].find())
        assert set(counts) == set(study_destination_ids())
        healthy = sum(n for sid, n in counts.items() if sid != 1)
        assert healthy == 58
        assert counts[1] == 22
        # Every healthy path is stored; every path of the down one errors.
        assert report.stats_stored == healthy
        assert report.measurement_errors == counts[1]
        assert plan.injected_outages == 1
        stored = db[STATS_COLLECTION].find()
        assert len(stored) == healthy
        assert {doc["server_id"] for doc in stored} == set(counts) - {1}

    def test_continue_on_error_false_aborts_the_campaign(self):
        host, db, config = study_env(max_retries=0, continue_on_error=False)
        plan = FaultPlan(outages=[self.DOWN])
        with pytest.raises(MeasurementError):
            TestRunner(host, db, config, faults=plan).run()


class TestRunnerSigning:
    def test_signed_campaign_end_to_end(self, env):
        host, db, config = env
        kp = keypair_from_seed(9, bits=256)
        verifier = SignedDocumentVerifier()
        verifier.register_writer("17-ffaa:1:e01", kp.public)
        db[STATS_COLLECTION].validator = verifier
        runner = TestRunner(
            host, db, config, signer=kp, signer_subject="17-ffaa:1:e01"
        )
        report = runner.run()
        assert report.stats_stored > 0
        doc = db[STATS_COLLECTION].find_one()
        verifier(doc)  # signature survives storage

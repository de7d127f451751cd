"""Tests for the retry/backoff engine and the campaign metrics layer."""

import pytest

from repro.docdb.client import DocDBClient
from repro.errors import (
    MeasurementError,
    NoPathError,
    ServerUnreachableError,
    ValidationError,
)
from repro.netsim.clock import SimClock
from repro.netsim.network import ServerHealth
from repro.scion.snet import ScionHost
from repro.suite import metrics as m
from repro.suite.cli import seed_servers
from repro.suite.collect import PathsCollector
from repro.suite.config import PATHS_COLLECTION, SuiteConfig
from repro.suite.faults import FaultPlan, ServerOutage
from repro.suite.retry import RetryExecutor, RetryPolicy
from repro.suite.runner import CampaignReport, TestRunner


class TestRetryPolicy:
    def test_exponential_growth_and_cap(self):
        policy = RetryPolicy(
            base_backoff_s=1.0, backoff_factor=2.0, max_backoff_s=5.0, jitter=0.0
        )
        assert policy.backoff_s(0) == 1.0
        assert policy.backoff_s(1) == 2.0
        assert policy.backoff_s(2) == 4.0
        assert policy.backoff_s(3) == 5.0  # capped
        assert policy.backoff_s(10) == 5.0

    def test_jitter_bounds(self):
        policy = RetryPolicy(base_backoff_s=1.0, jitter=0.2)
        lo = policy.backoff_s(0, u=0.0)
        hi = policy.backoff_s(0, u=0.999999)
        assert lo == pytest.approx(0.8)
        assert hi == pytest.approx(1.2, abs=1e-5)

    def test_validation(self):
        with pytest.raises(ValidationError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValidationError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValidationError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValidationError):
            RetryPolicy(base_backoff_s=-1.0)

    def test_from_config(self):
        config = SuiteConfig(max_retries=3, retry_backoff_s=0.25, retry_jitter=0.0)
        policy = RetryPolicy.from_config(config)
        assert policy.max_retries == 3
        assert policy.base_backoff_s == 0.25
        assert policy.jitter == 0.0

    def test_config_validates_retry_knobs(self):
        with pytest.raises(ValidationError):
            SuiteConfig(retry_backoff_factor=0.0)
        with pytest.raises(ValidationError):
            SuiteConfig(retry_jitter=1.0)
        with pytest.raises(ValidationError):
            SuiteConfig(max_retries=-1)


class TestRetryExecutor:
    def _flaky(self, failures):
        calls = {"n": 0}

        def action():
            calls["n"] += 1
            if calls["n"] <= failures:
                raise ServerUnreachableError(f"attempt {calls['n']}")
            return "ok"

        return action, calls

    def test_success_after_transient_failures(self):
        clock = SimClock()
        registry = m.MetricsRegistry()
        ex = RetryExecutor(
            RetryPolicy(max_retries=3, base_backoff_s=1.0, jitter=0.0),
            clock,
            metrics=registry,
        )
        action, calls = self._flaky(failures=2)
        assert ex.call(action) == "ok"
        assert calls["n"] == 3
        assert registry.counter(m.RETRIES) == 2
        # Backoff 1.0 + 2.0 advanced the simulated clock only.
        assert clock.now_s == pytest.approx(3.0)

    def test_exhaustion_raises_last_error(self):
        ex = RetryExecutor(
            RetryPolicy(max_retries=1, base_backoff_s=0.5, jitter=0.0), SimClock()
        )
        action, calls = self._flaky(failures=10)
        with pytest.raises(MeasurementError, match="attempt 2"):
            ex.call(action)
        assert calls["n"] == 2

    def test_no_path_error_is_permanent(self):
        clock = SimClock()
        ex = RetryExecutor(RetryPolicy(max_retries=5, base_backoff_s=1.0), clock)
        calls = {"n": 0}

        def action():
            calls["n"] += 1
            raise NoPathError("gone")

        with pytest.raises(NoPathError):
            ex.call(action)
        assert calls["n"] == 1  # never retried
        assert clock.now_s == 0.0  # and no backoff was charged

    def test_jitter_deterministic_for_fixed_seed(self):
        def total_backoff(seed):
            clock = SimClock()
            ex = RetryExecutor(
                RetryPolicy(max_retries=4, base_backoff_s=1.0, jitter=0.5),
                clock,
                seed=seed,
            )
            action, _ = self._flaky(failures=10)
            with pytest.raises(MeasurementError):
                ex.call(action)
            return clock.now_s

        assert total_backoff(7) == total_backoff(7)
        assert total_backoff(7) != total_backoff(8)

    def test_zero_retries_never_backs_off(self):
        clock = SimClock()
        ex = RetryExecutor(RetryPolicy(max_retries=0, base_backoff_s=9.0), clock)
        action, _ = self._flaky(failures=1)
        with pytest.raises(MeasurementError):
            ex.call(action)
        assert clock.now_s == 0.0


class TestMetricsRegistry:
    def test_counters_and_histograms(self):
        reg = m.MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 2)
        reg.observe("h", 1.0)
        reg.observe("h", 3.0)
        snap = reg.snapshot()
        assert snap["counters"]["a"] == 3
        hist = snap["histograms"]["h"]
        assert hist["count"] == 2
        assert hist["total"] == 4.0
        assert hist["min"] == 1.0 and hist["max"] == 3.0

    def test_accessors_tolerate_missing(self):
        assert m.counter_value({}, "nope") == 0.0
        assert m.counter_value(None, "nope") == 0.0
        assert m.histogram_stats({"counters": {}, "histograms": {}}, "nope") is None

    def test_format_metrics_renders_key_lines(self):
        reg = m.MetricsRegistry()
        reg.inc(m.RETRIES, 2)
        reg.observe(m.BACKOFF_S, 0.5)
        reg.observe(m.BACKOFF_S, 1.0)
        reg.inc(m.FLUSHES)
        reg.observe(m.BATCH_SIZE, 6)
        text = m.format_metrics(reg.snapshot())
        assert "retries: 2" in text
        assert "backoff: 1.50 sim s" in text
        assert "batches: 1 flushed" in text
        assert m.format_metrics({}) == ""


def _backoff_s(report: CampaignReport) -> float:
    """Simulated seconds the campaign spent in retry backoff."""
    hist = m.histogram_stats(report.metrics, m.BACKOFF_S)
    return float(hist["total"]) if hist else 0.0


@pytest.fixture()
def env():
    client = DocDBClient()
    db = client["upin"]
    seed_servers(db)
    host = ScionHost.scionlab(seed=2)
    config = SuiteConfig(iterations=1, destination_ids=[3])
    PathsCollector(host, db, config).collect()
    return host, db, config


class TestRunnerRetryIntegration:
    def _outage_run(self, *, backoff_s, jitter=0.0, max_retries=2, seed=2):
        client = DocDBClient()
        db = client["upin"]
        seed_servers(db)
        host = ScionHost.scionlab(seed=seed)
        config = SuiteConfig(
            iterations=1,
            destination_ids=[3],
            max_retries=max_retries,
            retry_backoff_s=backoff_s,
            retry_jitter=jitter,
        )
        PathsCollector(host, db, config).collect()
        plan = FaultPlan(outages=[ServerOutage(3, 0, 1, ServerHealth.DOWN)])
        report = TestRunner(host, db, config, faults=plan).run()
        return report

    def test_backoff_advances_only_simulated_clock(self):
        # 100-second backoffs: a wall-clock sleeper would take minutes.
        with_backoff = self._outage_run(backoff_s=100.0)
        without = self._outage_run(backoff_s=0.0)
        assert with_backoff.retries > 0
        assert with_backoff.retries == without.retries
        extra_sim = with_backoff.sim_seconds - without.sim_seconds
        assert extra_sim == pytest.approx(_backoff_s(with_backoff))
        assert _backoff_s(with_backoff) >= 100.0

    def test_retry_schedule_deterministic_for_fixed_seed(self):
        a = self._outage_run(backoff_s=1.0, jitter=0.5)
        b = self._outage_run(backoff_s=1.0, jitter=0.5)
        assert a.sim_seconds == b.sim_seconds
        assert _backoff_s(a) == _backoff_s(b)
        # A different world seed draws a different jitter schedule.
        c = self._outage_run(backoff_s=1.0, jitter=0.5, seed=5)
        assert _backoff_s(c) != _backoff_s(a)

    def test_retry_metrics_counted_per_failing_measurement(self):
        report = self._outage_run(backoff_s=0.25, max_retries=2)
        # Every path fails its bandwidth test; each failure retries twice.
        assert report.retries == report.measurement_errors * 2
        assert m.counter_value(report.metrics, m.RETRY_EXHAUSTED) == (
            report.measurement_errors
        )


class TestCampaignReportAccounting:
    def test_destinations_tested_from_requested_iterations(self, env):
        host, db, config = env
        report = TestRunner(host, db, config).run(iterations=0)
        assert report.iterations == 0
        assert report.destinations_tested == 0
        assert report.stats_stored == 0

    def test_destinations_tested_multiplies_iterations(self, env):
        host, db, config = env
        report = TestRunner(host, db, config).run(iterations=3)
        assert report.iterations == 3
        assert report.destinations_tested == 3  # 1 destination x 3 iterations

    def test_report_carries_metrics_snapshot(self, env):
        host, db, config = env
        report = TestRunner(host, db, config).run()
        batches = m.histogram_stats(report.metrics, m.BATCH_SIZE)
        assert batches is not None
        assert batches["total"] == report.stats_stored
        assert report.wall_seconds > 0.0

    def test_format_text_includes_metrics_and_failure(self):
        report = CampaignReport(stats_stored=3)
        report.record_error("destination 3: ServerUnreachableError: boom")
        report.metrics = {
            "version": 1,
            "counters": {m.RETRIES: 1.0},
            "histograms": {m.BACKOFF_S: {"count": 1, "total": 0.5, "min": 0.5, "max": 0.5}},
        }
        text = report.format_text()
        assert "- destination 3: ServerUnreachableError: boom" in text
        assert "retries: 1" in text
        assert report.measurement_errors == 1

"""Tests for the monitoring scheduler."""

import pytest

from repro.docdb.client import DocDBClient
from repro.errors import ValidationError
from repro.scion.snet import ScionHost
from repro.suite.cli import seed_servers
from repro.suite.config import STATS_COLLECTION, SuiteConfig
from repro.suite.scheduler import MonitoringScheduler


def _overruns(report) -> int:
    """Rounds that started late because the previous one overran."""
    return sum(1 for r in report.rounds if r.lag_s > 1e-9)


@pytest.fixture()
def env():
    client = DocDBClient()
    db = client["upin"]
    seed_servers(db)
    host = ScionHost.scionlab(seed=4)
    config = SuiteConfig(iterations=1, destination_ids=[3])
    return host, db, config


class TestMonitoringScheduler:
    def test_rounds_accumulate_samples(self, env):
        host, db, config = env
        scheduler = MonitoringScheduler(host, db, config, period_s=600.0)
        report = scheduler.run(rounds=3)
        assert len(report.rounds) == 3
        assert report.stats_stored == 3 * 6  # 6 Magdeburg paths per round
        assert db[STATS_COLLECTION].count_documents() == 18

    def test_rounds_start_on_period_boundaries(self, env):
        host, db, config = env
        scheduler = MonitoringScheduler(host, db, config, period_s=600.0)
        report = scheduler.run(rounds=3)
        starts = [r.started_at_s for r in report.rounds]
        # Collection happens inside round 0, so boundaries are exact.
        assert starts[1] - starts[0] == pytest.approx(600.0)
        assert starts[2] - starts[1] == pytest.approx(600.0)
        assert _overruns(report) == 0

    def test_overrun_rounds_run_back_to_back(self, env):
        host, db, config = env
        # A 6-path round needs 90 simulated seconds; the period is 10.
        scheduler = MonitoringScheduler(host, db, config, period_s=10.0)
        report = scheduler.run(rounds=3)
        assert _overruns(report) == 2
        for prev, nxt in zip(report.rounds, report.rounds[1:]):
            assert nxt.started_at_s == pytest.approx(prev.finished_at_s)

    def test_recollection_cadence(self, env):
        host, db, config = env
        scheduler = MonitoringScheduler(
            host, db, config, period_s=600.0, recollect_every=2
        )
        report = scheduler.run(rounds=4)
        assert [r.recollected for r in report.rounds] == [True, False, True, False]

    def test_timestamps_partition_by_round(self, env):
        host, db, config = env
        scheduler = MonitoringScheduler(host, db, config, period_s=600.0)
        report = scheduler.run(rounds=2)
        r0, r1 = report.rounds
        docs = db[STATS_COLLECTION].find()
        in_r0 = [d for d in docs if d["timestamp_ms"] < r1.started_at_s * 1000]
        assert len(in_r0) == r0.stats_stored

    def test_validation(self, env):
        host, db, config = env
        with pytest.raises(ValidationError):
            MonitoringScheduler(host, db, config, period_s=0.0)
        with pytest.raises(ValidationError):
            MonitoringScheduler(host, db, config, period_s=1.0, recollect_every=0)
        scheduler = MonitoringScheduler(host, db, config, period_s=1.0)
        with pytest.raises(ValidationError):
            scheduler.run(rounds=0)


class _ScriptedRunner:
    """Stand-in runner whose round durations are scripted exactly."""

    def __init__(self, clock, durations):
        self.clock = clock
        self.durations = list(durations)
        self.calls = 0

    def run(self, iterations=1):
        dt = self.durations[min(self.calls, len(self.durations) - 1)]
        self.calls += 1
        self.clock.advance(dt)

        class _Report:
            stats_stored = 0
            measurement_errors = 0

        return _Report()


class _NoopCollector:
    def collect(self):
        return None


class TestSchedulerOverrunSemantics:
    """Regression pins for the fixed-grid overrun behaviour.

    The scheduler's contract: round ``i`` is *scheduled* for the fixed
    boundary ``origin + i * period`` and *starts* at
    ``max(boundary, now)``.  Overrunning rounds therefore run
    back-to-back (no skipped rounds, no growing backlog), and once the
    rounds get fast again the start times re-align to the original
    grid — the grid never drifts.
    """

    def _scripted_scheduler(self, env, durations, period_s):
        host, db, config = env
        scheduler = MonitoringScheduler(host, db, config, period_s=period_s)
        scheduler.runner = _ScriptedRunner(host.clock, durations)
        scheduler.collector = _NoopCollector()
        return host, scheduler

    def test_scheduled_at_stays_on_fixed_grid(self, env):
        host, scheduler = self._scripted_scheduler(env, [25.0], period_s=10.0)
        origin = host.clock.now_s
        report = scheduler.run(rounds=4)
        assert [r.scheduled_at_s for r in report.rounds] == [
            pytest.approx(origin + i * 10.0) for i in range(4)
        ]

    def test_overrun_round_starts_immediately_after_previous(self, env):
        host, scheduler = self._scripted_scheduler(env, [25.0], period_s=10.0)
        report = scheduler.run(rounds=4)
        for prev, nxt in zip(report.rounds, report.rounds[1:]):
            assert nxt.started_at_s == pytest.approx(prev.finished_at_s)
            assert nxt.lag_s > 0
        assert _overruns(report) == 3

    def test_grid_realigns_after_recovery(self, env):
        # One slow round (25 s), then fast 2 s rounds on a 10 s period:
        # boundaries 0/10/20/30/40; starts 0/25/27/30/40 — rounds 3 and
        # 4 are back ON the original grid, not on a drifted one.
        host, scheduler = self._scripted_scheduler(
            env, [25.0, 2.0, 2.0, 2.0, 2.0], period_s=10.0
        )
        origin = host.clock.now_s
        report = scheduler.run(rounds=5)
        starts = [r.started_at_s - origin for r in report.rounds]
        assert starts == [
            pytest.approx(0.0),
            pytest.approx(25.0),
            pytest.approx(27.0),
            pytest.approx(30.0),
            pytest.approx(40.0),
        ]
        assert report.rounds[3].lag_s == pytest.approx(0.0)
        assert report.rounds[4].lag_s == pytest.approx(0.0)
        assert _overruns(report) == 2

    def test_no_round_is_skipped_under_sustained_overrun(self, env):
        host, scheduler = self._scripted_scheduler(env, [35.0], period_s=10.0)
        report = scheduler.run(rounds=6)
        assert [r.index for r in report.rounds] == list(range(6))

    def test_round_hooks_fire_in_order_with_each_record(self, env):
        host, scheduler = self._scripted_scheduler(env, [5.0], period_s=10.0)
        seen = []
        scheduler.add_round_hook(lambda rec: seen.append(("a", rec.index)))
        scheduler.add_round_hook(lambda rec: seen.append(("b", rec.index)))
        report = scheduler.run(rounds=3)
        assert seen == [
            ("a", 0), ("b", 0), ("a", 1), ("b", 1), ("a", 2), ("b", 2)
        ]
        assert len(report.rounds) == 3

    def test_hook_runs_on_sim_clock_at_round_end(self, env):
        host, scheduler = self._scripted_scheduler(env, [5.0], period_s=10.0)
        at = []
        scheduler.add_round_hook(lambda rec: at.append(host.clock.now_s))
        report = scheduler.run(rounds=2)
        assert at == [
            pytest.approx(r.finished_at_s) for r in report.rounds
        ]

"""Tests for time-series loss analysis (repro.analysis.timeseries)."""

import pytest

from repro.analysis.timeseries import (
    LossSample,
    LossWindow,
    heavy_loss_windows,
    loss_timeline,
    temporal_concentration,
)
from repro.experiments import fig9


def _sample(path, t, loss):
    return LossSample(path_id=path, timestamp_ms=t, loss_pct=loss)


class TestWindowDetection:
    def test_no_heavy_samples_no_windows(self):
        timeline = [_sample("a", t, 0.0) for t in range(0, 10_000, 1000)]
        assert heavy_loss_windows(timeline) == []

    def test_single_burst_one_window(self):
        timeline = (
            [_sample("a", t, 0.0) for t in (0, 1000)]
            + [_sample("a", t, 100.0) for t in (2000, 3000, 4000)]
            + [_sample("a", 5000, 0.0)]
        )
        windows = heavy_loss_windows(timeline, merge_gap_ms=1500)
        assert len(windows) == 1
        w = windows[0]
        assert (w.start_ms, w.end_ms, w.samples) == (2000, 4000, 3)
        assert w.affected_paths == ("a",)

    def test_distant_bursts_split(self):
        timeline = [
            _sample("a", 1000, 100.0),
            _sample("a", 500_000, 100.0),
        ]
        windows = heavy_loss_windows(timeline, merge_gap_ms=60_000)
        assert len(windows) == 2

    def test_threshold_respected(self):
        timeline = [_sample("a", 0, 49.0), _sample("a", 100, 51.0)]
        windows = heavy_loss_windows(timeline, threshold_pct=50.0)
        assert len(windows) == 1 and windows[0].samples == 1

    def test_multiple_paths_in_window(self):
        timeline = [
            _sample("a", 0, 100.0),
            _sample("b", 100, 100.0),
        ]
        windows = heavy_loss_windows(timeline)
        assert windows[0].affected_paths == ("a", "b")


class TestConcentration:
    def test_all_inside(self):
        timeline = [_sample("a", t, 100.0) for t in (0, 100, 200)]
        windows = heavy_loss_windows(timeline)
        assert temporal_concentration(timeline, windows) == 1.0

    def test_none_heavy(self):
        timeline = [_sample("a", 0, 0.0)]
        assert temporal_concentration(timeline, []) == 1.0

    def test_partial(self):
        timeline = [
            _sample("a", 0, 100.0),
            _sample("a", 10**9, 100.0),
        ]
        window = LossWindow(start_ms=0, end_ms=0, samples=1, affected_paths=("a",))
        assert temporal_concentration(timeline, [window]) == 0.5


class TestOnFig9Campaign:
    """The payoff: verify the paper's temporal-congestion hypothesis."""

    @pytest.fixture(scope="class")
    def world(self):
        from repro.experiments.world import run_campaign

        return run_campaign(
            [fig9.N_VIRGINIA_SERVER_ID],
            iterations=2,
            seed=20231112,
            prepare=fig9._schedule_episodes,
        )

    def test_failures_are_temporally_concentrated(self, world):
        timeline = loss_timeline(world.db, fig9.N_VIRGINIA_SERVER_ID)
        windows = heavy_loss_windows(timeline, threshold_pct=90.0)
        assert windows, "the scheduled episodes must show up"
        assert temporal_concentration(timeline, windows, threshold_pct=90.0) == 1.0

    def test_one_window_per_iteration(self, world):
        timeline = loss_timeline(world.db, fig9.N_VIRGINIA_SERVER_ID)
        windows = heavy_loss_windows(
            timeline, threshold_pct=90.0, merge_gap_ms=120_000
        )
        assert len(windows) == 2  # one episode per campaign iteration

    def test_windows_hit_the_paper_cluster(self, world):
        timeline = loss_timeline(world.db, fig9.N_VIRGINIA_SERVER_ID)
        windows = heavy_loss_windows(timeline, threshold_pct=90.0)
        for w in windows:
            assert set(w.affected_paths) == set(fig9.PAPER_FAILING_PATHS)

"""Tests for the analysis layer (repro.analysis)."""

import pytest

from repro.analysis.bandwidth import bandwidth_by_path, summarize
from repro.analysis.latency import (
    latency_by_isd_group,
    latency_by_path,
    latency_layers,
)
from repro.analysis.loss import loss_by_path, shared_ases, total_loss_cluster
from repro.analysis.report import format_table
from repro.analysis.stats import cluster_means, whisker_stats
from repro.errors import ValidationError


class TestWhiskerStats:
    def test_basic_quartiles(self):
        w = whisker_stats([1, 2, 3, 4, 5])
        assert w.n == 5
        assert w.median == 3
        assert w.q1 == 2 and w.q3 == 4
        assert w.mean == 3
        assert w.minimum == 1 and w.maximum == 5

    def test_single_sample(self):
        w = whisker_stats([7.0])
        assert w.median == 7.0 and w.spread == 0.0

    def test_none_filtered(self):
        assert whisker_stats([1.0, None, 3.0]).n == 2

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            whisker_stats([])

    def test_outliers_detected(self):
        values = [10.0] * 20 + [100.0]
        w = whisker_stats(values)
        assert w.outliers == (100.0,)
        assert w.whisker_high == 10.0
        assert w.maximum == 100.0

    def test_whiskers_within_fences(self):
        w = whisker_stats(list(range(100)) + [1000])
        assert w.whisker_high <= w.q3 + 1.5 * w.iqr + 1e-9
        assert w.whisker_low >= w.q1 - 1.5 * w.iqr - 1e-9


class TestClusterMeans:
    def test_three_layers(self):
        values = [43, 44, 45, 212, 214, 340, 342]
        clusters = cluster_means(values)
        assert len(clusters) == 3
        assert clusters[0] == [43, 44, 45]

    def test_single_cluster_for_tight_values(self):
        assert len(cluster_means([40.0, 40.5, 41.0, 41.5])) == 1

    def test_empty_and_singleton(self):
        assert cluster_means([]) == []
        assert cluster_means([5.0]) == [[5.0]]


class TestFormatTable:
    def test_alignment_and_header(self):
        text = format_table(["a", "bbb"], [[1, 2.5], ["xx", None]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bbb" in lines[1]
        assert "-" in lines[2]
        assert "2.50" in lines[3]
        assert "-" in lines[4]  # None cell

    def test_empty_rows(self):
        text = format_table(["x"], [])
        assert len(text.splitlines()) == 2


class TestAnalysesOnCampaign:
    def test_latency_by_path_counts(self, measured_world):
        series = latency_by_path(measured_world.db, 1)
        assert len(series) == 22
        assert all(s.stats.n == 2 for s in series)

    def test_latency_layers_found(self, measured_world):
        series = latency_by_path(measured_world.db, 1)
        layers = latency_layers(series)
        assert len(layers) == 3

    def test_isd_grouping(self, measured_world):
        groups = latency_by_isd_group(measured_world.db, 1)
        keys = {(g.isds, g.hop_count) for g in groups}
        assert ((16, 17, 19), 6) in keys
        assert ((16, 17, 19), 7) in keys
        assert ((16, 17, 19, 24), 7) in keys

    def test_isd_grouping_exclusion_shrinks_spread(self, measured_world):
        all_groups = latency_by_isd_group(measured_world.db, 1)
        filtered = latency_by_isd_group(
            measured_world.db, 1,
            exclude_transit_ases=["16-ffaa:0:1004", "16-ffaa:0:1007"],
        )

        def spread7(groups):
            return max(
                (g.stats.spread for g in groups if g.hop_count == 7), default=0
            )

        assert spread7(filtered) < spread7(all_groups)

    def test_bandwidth_by_path(self, measured_world):
        series = bandwidth_by_path(measured_world.db, 3, target_mbps=12.0)
        assert len(series) == 6
        summary = summarize(series)
        assert summary.mtu_beats_small
        assert summary.downstream_beats_upstream

    def test_bandwidth_target_filter(self, measured_world):
        assert bandwidth_by_path(measured_world.db, 3, target_mbps=150.0) == []

    def test_loss_by_path(self, measured_world):
        series = loss_by_path(measured_world.db, 1)
        assert len(series) == 22
        total = total_loss_cluster(series)
        assert total == []  # no congestion episodes in this campaign
        assert all(s.mean_loss_pct < 15 for s in series)

    def test_shared_ases_in_path_order(self, measured_world):
        common = shared_ases(measured_world.db, ["1_0", "1_1"])
        assert common[0] == "17-ffaa:1:e01"
        assert "16-ffaa:0:1002" in common

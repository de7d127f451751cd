"""Tests for the path-selection engine (repro.selection)."""

import math

import pytest

from repro.docdb.client import DocDBClient
from repro.docdb.collection import Collection
from repro.errors import NoPathError, UnknownASError, ValidationError
from repro.experiments.fig5 import IRELAND_SERVER_ID
from repro.scion.snet import ScionHost
from repro.selection.engine import PathSelector
from repro.selection.policies import (
    BandwidthPolicy,
    CompositePolicy,
    JitterPolicy,
    LatencyPolicy,
    LossPolicy,
    PathAggregate,
    policy_for,
)
from repro.selection.request import Metric, UserRequest
from repro.suite.cli import seed_servers
from repro.suite.collect import PathsCollector
from repro.suite.config import PATHS_COLLECTION, STATS_COLLECTION, SuiteConfig
from repro.suite.runner import TestRunner


def _agg(path_id="1_0", **kw):
    defaults = dict(
        path_id=path_id,
        server_id=1,
        hop_count=6,
        isds=[16, 17, 19],
        ases=["17-ffaa:1:e01", "16-ffaa:0:1002"],
        samples=10,
        avg_latency_ms=40.0,
        latency_stddev_ms=1.0,
        avg_loss_pct=0.0,
        avg_bw_down_mbps=11.0,
        avg_bw_up_mbps=9.0,
    )
    defaults.update(kw)
    return PathAggregate(**defaults)


class TestUserRequest:
    def test_defaults(self):
        req = UserRequest.make(1)
        assert req.metric is Metric.LATENCY
        assert not req.exclude_countries

    def test_make_normalises_countries(self):
        req = UserRequest.make(1, exclude_countries=["us", "Sg"])
        assert req.exclude_countries == frozenset({"US", "SG"})

    def test_metric_from_string(self):
        assert UserRequest.make(1, "jitter").metric is Metric.JITTER

    def test_composite_requires_weights(self):
        with pytest.raises(ValidationError):
            UserRequest.make(1, Metric.COMPOSITE)

    def test_bad_server_id(self):
        with pytest.raises(ValidationError):
            UserRequest.make(0)

    def test_bad_excluded_as(self):
        with pytest.raises(ValidationError):
            UserRequest.make(1, exclude_ases=["garbage"])


class TestPolicies:
    def test_latency_lower_is_better(self):
        policy = LatencyPolicy()
        assert policy.score(_agg(avg_latency_ms=40)) < policy.score(
            _agg(avg_latency_ms=50)
        )

    def test_latency_missing_is_inf(self):
        assert LatencyPolicy().score(_agg(avg_latency_ms=None)) == math.inf

    def test_jitter_prefers_stability_over_speed(self):
        """§6.1: streaming wants consistency more than low latency."""
        policy = JitterPolicy()
        stable_slow = _agg(avg_latency_ms=200, latency_stddev_ms=0.5)
        fast_jittery = _agg(avg_latency_ms=40, latency_stddev_ms=6.0)
        assert policy.score(stable_slow) < policy.score(fast_jittery)

    def test_jitter_latency_tiebreak(self):
        policy = JitterPolicy()
        a = _agg(avg_latency_ms=40, latency_stddev_ms=1.0)
        b = _agg(avg_latency_ms=50, latency_stddev_ms=1.0)
        assert policy.score(a) < policy.score(b)

    def test_bandwidth_higher_is_better(self):
        policy = BandwidthPolicy(downstream=True)
        assert policy.score(_agg(avg_bw_down_mbps=11)) < policy.score(
            _agg(avg_bw_down_mbps=5)
        )

    def test_bandwidth_up_variant(self):
        policy = BandwidthPolicy(downstream=False)
        assert policy.score(_agg(avg_bw_up_mbps=9)) == -9

    def test_loss_policy(self):
        policy = LossPolicy()
        assert policy.score(_agg(avg_loss_pct=0.0)) < policy.score(
            _agg(avg_loss_pct=50.0)
        )

    def test_composite_weights_blend(self):
        candidates = [
            _agg("a", avg_latency_ms=40, avg_bw_down_mbps=5),
            _agg("b", avg_latency_ms=200, avg_bw_down_mbps=12),
        ]
        lat_heavy = CompositePolicy({"latency": 1.0, "bandwidth_down": 0.1}).fit(
            candidates
        )
        bw_heavy = CompositePolicy({"latency": 0.1, "bandwidth_down": 1.0}).fit(
            candidates
        )
        assert lat_heavy.score(candidates[0]) < lat_heavy.score(candidates[1])
        assert bw_heavy.score(candidates[1]) < bw_heavy.score(candidates[0])

    def test_composite_unknown_metric_rejected(self):
        with pytest.raises(ValidationError):
            CompositePolicy({"vibes": 1.0})

    def test_composite_empty_rejected(self):
        with pytest.raises(ValidationError):
            CompositePolicy({})

    def test_policy_factory(self):
        assert isinstance(policy_for(Metric.LATENCY), LatencyPolicy)
        assert isinstance(policy_for(Metric.JITTER), JitterPolicy)
        assert isinstance(policy_for(Metric.LOSS), LossPolicy)
        assert isinstance(
            policy_for(Metric.COMPOSITE, {"latency": 1.0}), CompositePolicy
        )

    def test_describe_strings(self):
        assert "latency" in LatencyPolicy().describe(_agg())
        assert "spread" in JitterPolicy().describe(_agg())


class TestSelectorOnCampaign:
    @pytest.fixture(scope="class")
    def selector(self, measured_world):
        return PathSelector(measured_world.db, measured_world.host.topology)

    def test_aggregates_cover_all_paths(self, selector, measured_world):
        aggs = selector.aggregates(1)
        assert len(aggs) == 22
        assert all(a.samples == 2 for a in aggs)

    def test_latency_selection_avoids_detours(self, selector):
        result = selector.select(UserRequest.make(1, Metric.LATENCY))
        assert result.best is not None
        best = result.best.aggregate
        assert "16-ffaa:0:1004" not in best.ases  # not via Ohio
        assert "16-ffaa:0:1007" not in best.ases  # not via Singapore
        assert best.avg_latency_ms < 60

    def test_ranking_is_sorted(self, selector):
        result = selector.select(UserRequest.make(1, Metric.LATENCY), top_k=5)
        scores = [r.score for r in result.ranked]
        assert scores == sorted(scores)

    def test_select_reads_paths_once(self, selector, measured_world, monkeypatch):
        reads = []
        for name in ("find", "find_one"):
            def counted(coll, *args, _read=getattr(Collection, name), _name=name, **kw):
                if coll.name == PATHS_COLLECTION:
                    reads.append(_name)
                return _read(coll, *args, **kw)

            monkeypatch.setattr(Collection, name, counted)
        result = selector.select(UserRequest.make(1, Metric.LATENCY), top_k=5)
        assert len(result.ranked) == 5
        assert reads == ["find"]
        monkeypatch.undo()
        for ranked in result.ranked:
            doc = measured_world.db[PATHS_COLLECTION].find_one({"_id": ranked.aggregate.path_id})
            assert (ranked.sequence, ranked.hops_display) == (doc["sequence"], doc["hops_display"])

    def test_country_exclusion(self, selector):
        result = selector.select(
            UserRequest.make(1, exclude_countries=["US", "SG"])
        )
        assert result.best is not None
        assert len(result.excluded) == 8  # 4 Ohio + 4 Singapore detours
        for reasons in result.excluded.values():
            assert any("country" in r for r in reasons)

    def test_operator_exclusion_blocks_amazon_destination(self, selector):
        """Every path to Ireland ends at an Amazon AS, so excluding the
        operator Amazon must make the request unsatisfiable."""
        result = selector.select(
            UserRequest.make(1, exclude_operators=["Amazon"])
        )
        assert result.best is None
        assert len(result.excluded) == 22

    def test_as_exclusion(self, selector):
        result = selector.select(
            UserRequest.make(1, exclude_ases=["16-ffaa:0:1004"])
        )
        assert result.best is not None
        assert all(
            "16-ffaa:0:1004" not in r.aggregate.ases for r in result.ranked
        )

    def test_isd_exclusion_unsatisfiable(self, selector):
        result = selector.select(UserRequest.make(1, exclude_isds=[16]))
        assert result.best is None

    def test_max_latency_constraint(self, selector):
        result = selector.select(
            UserRequest.make(1, max_latency_ms=100.0)
        )
        assert result.best is not None
        assert all(
            "latency" not in "".join(rs) or True for rs in result.excluded.values()
        )
        assert all(r.aggregate.avg_latency_ms <= 100 for r in result.ranked)

    def test_min_bandwidth_constraint(self, selector):
        result = selector.select(
            UserRequest.make(3, Metric.BANDWIDTH_DOWN, min_bandwidth_down_mbps=5.0)
        )
        assert result.best is not None
        assert result.best.aggregate.avg_bw_down_mbps >= 5.0

    def test_unknown_destination_raises(self, selector):
        with pytest.raises(NoPathError):
            selector.select(UserRequest.make(7))

    def test_recommendation_menu(self, selector):
        menu = selector.recommend(1, top_k=2)
        assert set(menu) == {"latency", "jitter", "bandwidth_down", "loss"}
        assert all(1 <= len(paths) <= 2 for paths in menu.values())

    def test_format_text_renders(self, selector):
        result = selector.select(
            UserRequest.make(1, exclude_countries=["US"])
        )
        text = result.format_text()
        assert "selected path" in text
        assert "avoid countries" in text

    def test_no_admissible_render(self, selector):
        result = selector.select(UserRequest.make(1, exclude_isds=[17]))
        assert "NO ADMISSIBLE PATH" in result.format_text()


def _one_path_db(ases):
    db = DocDBClient()["upin"]
    db[PATHS_COLLECTION].insert_one(
        {"_id": "1_0", "server_id": 1, "path_index": 0, "hop_count": 3,
         "isds": [16, 17], "ases": ases}
    )
    db[STATS_COLLECTION].insert_one(
        {"_id": "1_0_1", "server_id": 1, "path_id": "1_0", "timestamp_ms": 1,
         "avg_latency_ms": 80.0, "loss_pct": 0.0, "bw_down_mtu_mbps": 10.0,
         "bw_up_mtu_mbps": 10.0}
    )
    return db


class TestViolations:
    ASES = ["17-ffaa:1:e01", "16-ffaa:0:1004", "16-ffaa:0:1002", "16-ffaa:0:1004"]

    def test_reasons_in_path_order(self, world_host):
        selector = PathSelector(_one_path_db(self.ASES), world_host.topology)
        request = UserRequest.make(
            1, exclude_countries=["US", "NL"], exclude_operators=["Amazon"],
            exclude_ases=["16-ffaa:0:1004"], exclude_isds=[16], max_latency_ms=50.0,
        )
        assert selector.select(request).excluded == {"1_0": [
            "traverses country NL (17-ffaa:1:e01)",
            "traverses country US (16-ffaa:0:1004)",
            "traverses operator Amazon (16-ffaa:0:1004)",
            "traverses excluded AS 16-ffaa:0:1004",
            "traverses operator Amazon (16-ffaa:0:1002)",
            "traverses country US (16-ffaa:0:1004)",
            "traverses operator Amazon (16-ffaa:0:1004)",
            "traverses excluded AS 16-ffaa:0:1004",
            "traverses excluded ISD 16",
            "latency 80.0 ms exceeds 50.0 ms",
        ]}

    def test_unknown_as_raises(self, world_host):
        selector = PathSelector(_one_path_db(self.ASES + ["19-ffaa:9:999"]), world_host.topology)
        with pytest.raises(UnknownASError):
            selector.select(UserRequest.make(1))


class TestSelectionWorkAfterABatch:
    """The first ``aggregates()`` after a batch examines that batch's
    documents, not the destination's whole history."""

    @pytest.mark.parametrize("iterations", [10, 160])
    def test_examines_one_batch(self, iterations):
        db = DocDBClient()["upin"]
        seed_servers(db)
        host = ScionHost.scionlab(seed=20231112)
        config = SuiteConfig(destination_ids=[IRELAND_SERVER_ID])
        PathsCollector(host, db, config).collect()
        runner = TestRunner(host, db, config)
        selector = PathSelector(db, host.topology)
        stats = db[STATS_COLLECTION]
        runner.run(iterations=iterations)
        before = selector.aggregates(IRELAND_SERVER_ID)
        runner.run(iterations=1)
        examined = stats.stats["docs_examined"]
        after = selector.aggregates(IRELAND_SERVER_ID)
        assert len(after) == len(before) == 22
        assert stats.stats["docs_examined"] - examined == 22
        assert all(a.samples == iterations + 1 for a in after)

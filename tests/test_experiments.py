"""Integration tests: every figure reproduces the paper's *shape*.

These run the actual experiment drivers (with few iterations for speed)
and assert the qualitative claims of the evaluation section.
"""

import pytest

from repro.experiments import fig4, fig5, fig6, fig7, fig8, fig9
from repro.experiments.world import run_campaign, seconds_per_path
from repro.suite.config import SuiteConfig

SEED = 20231112
#: Further seeds every figure's shape must hold at.  Each figure class
#: below runs at its ``seed`` attribute; a subclass per extra seed is
#: generated at the end of the module.
EXTRA_SEEDS = (7, 42)


@pytest.fixture(scope="module")
def ireland_world():
    """Seed -> the Ireland campaign world, built once per seed."""
    worlds = {}

    def world(seed):
        if seed not in worlds:
            worlds[seed] = run_campaign([1], iterations=4, seed=seed)
        return worlds[seed]

    return world


class TestFig4:
    seed = SEED

    @pytest.fixture(scope="class")
    def result(self, request):
        return fig4.run(seed=request.cls.seed)

    def test_21_destinations_reachable(self, result):
        assert result.reachability.reachable == 21

    def test_mean_close_to_566(self, result):
        assert result.reachability.mean_path_length == pytest.approx(5.66, abs=0.25)

    def test_roughly_70pct_within_6(self, result):
        assert 0.6 <= result.reachability.fraction_within(6) <= 0.85

    def test_histogram_spans_3_to_8(self, result):
        hops = dict(result.rows())
        assert min(hops) == 3 and max(hops) == 8

    def test_format_text(self, result):
        text = result.format_text()
        assert "Fig 4" in text and "paper: 5.66" in text


class TestFig5:
    seed = SEED

    @pytest.fixture(scope="class")
    def result(self, request, ireland_world):
        return fig5.run(world=ireland_world(request.cls.seed))

    def test_paths_split_into_6_and_7_hops(self, result):
        hop_counts = {s.hop_count for s in result.series}
        assert hop_counts == {6, 7}

    def test_three_latency_layers(self, result):
        assert len(result.layers()) == 3

    def test_layer_ordering_europe_ohio_singapore(self, result):
        means = result.layer_means()
        assert means[0] < 100  # Europe
        assert 150 < means[1] < 300  # via Ohio
        assert means[2] > 300  # via Singapore

    def test_detour_paths_identified(self, result):
        ohio = [s for s in result.series if result.detour_of(s) == "via Ohio"]
        sg = [s for s in result.series if result.detour_of(s) == "via Singapore"]
        assert len(ohio) == 4 and len(sg) == 4
        assert all(s.hop_count == 7 for s in ohio + sg)

    def test_detours_dominate_hop_count(self, result):
        """The paper's core claim: geography beats hop count."""
        six_hop = [s.stats.mean for s in result.series if s.hop_count == 6]
        europe_seven = [
            s.stats.mean
            for s in result.series
            if s.hop_count == 7 and result.detour_of(s) == "Europe"
        ]
        detour_seven = [
            s.stats.mean
            for s in result.series
            if result.detour_of(s) != "Europe"
        ]
        # Same-geography 7-hop paths are close to 6-hop paths...
        assert max(europe_seven) < 1.5 * max(six_hop)
        # ...while detours are far slower despite equal hop count.
        assert min(detour_seven) > 3 * max(europe_seven)

    def test_format_text(self, result):
        assert "Fig 5" in result.format_text()


class TestFig6:
    seed = SEED

    @pytest.fixture(scope="class")
    def result(self, request, ireland_world):
        return fig6.run(world=ireland_world(request.cls.seed))

    def test_multiple_isd_sets(self, result):
        sets = {g.isds for g in result.all_groups}
        assert len(sets) >= 2

    def test_hop_count_alone_insufficient(self, result):
        """Same ISD set, +1 hop -> much bigger latency gap (left panel)."""
        six = next(
            g for g in result.all_groups
            if g.isds == (16, 17, 19) and g.hop_count == 6
        )
        seven = next(
            g for g in result.all_groups
            if g.isds == (16, 17, 19) and g.hop_count == 7
        )
        assert seven.stats.spread > 10 * six.stats.spread

    def test_exclusion_compacts_the_box(self, result):
        assert result.spread_shrinks

    def test_filtered_means_comparable_across_hops(self, result):
        """Right panel: without long-distance paths, 6- and 7-hop groups
        have comparable latency."""
        groups = {
            (g.isds, g.hop_count): g.stats.mean for g in result.filtered_groups
        }
        six = groups[((16, 17, 19), 6)]
        seven = groups[((16, 17, 19), 7)]
        assert seven < 1.5 * six

    def test_format_text(self, result):
        text = result.format_text()
        assert "Fig 6 (left)" in text and "Fig 6 (right)" in text


class TestFig7And8:
    seed = SEED

    @pytest.fixture(scope="class")
    def r7(self, request):
        return fig7.run(iterations=4, seed=request.cls.seed)

    @pytest.fixture(scope="class")
    def r8(self, request):
        return fig8.run(iterations=4, seed=request.cls.seed)

    def test_fig7_mtu_beats_small(self, r7):
        assert r7.summary.mtu_beats_small

    def test_fig7_downstream_beats_upstream(self, r7):
        assert r7.summary.downstream_beats_upstream

    def test_fig7_mtu_near_target(self, r7):
        assert r7.summary.mean_down_mtu == pytest.approx(12.0, abs=1.5)

    def test_fig8_reversal(self, r8):
        """The headline crossover: 64B beats MTU at 150 Mbps."""
        assert not r8.summary.mtu_beats_small
        assert r8.summary.mean_down_small > r8.summary.mean_down_mtu
        assert r8.summary.mean_up_small > r8.summary.mean_up_mtu

    def test_fig8_everything_far_below_target(self, r8):
        s = r8.summary
        assert max(
            s.mean_up_small, s.mean_up_mtu, s.mean_down_small, s.mean_down_mtu
        ) < 30.0

    def test_64b_similar_across_targets(self, r7, r8):
        """The 64B rate is pps-limited, so the target barely matters."""
        assert r8.summary.mean_down_small == pytest.approx(
            r7.summary.mean_down_small, rel=0.3
        )

    def test_format_text(self, r7):
        assert "target 12" in r7.format_text()


class TestFig9:
    seed = SEED

    @pytest.fixture(scope="class")
    def result(self, request):
        return fig9.run(iterations=3, seed=request.cls.seed)

    def test_exact_failing_cluster(self, result):
        assert result.total_loss_paths == fig9.PAPER_FAILING_PATHS

    def test_survivors_inside_window(self, result):
        """Paths 2_20 and 2_21 sit inside the congestion window but do
        not traverse the congested node."""
        by_id = {s.path_id: s for s in result.series}
        assert by_id["2_20"].mean_loss_pct < 20
        assert by_id["2_21"].mean_loss_pct < 20

    def test_majority_of_paths_near_zero_loss(self, result):
        healthy = [s for s in result.series if not s.always_total_loss]
        near_zero = [s for s in healthy if s.mean_loss_pct < 5.0]
        assert len(near_zero) >= 0.8 * len(healthy)

    def test_failing_cluster_shares_first_half_node(self, result):
        assert fig9.CONGESTED_AS in result.shared_nodes
        # The shared nodes are concentrated in the first half of the path.
        idx = result.shared_nodes.index(fig9.CONGESTED_AS)
        assert idx < 4

    def test_format_text(self, result):
        text = result.format_text()
        assert "Fig 9" in text and "2_16" in text


class TestWorldHelpers:
    def test_seconds_per_path(self):
        config = SuiteConfig()
        assert seconds_per_path(config) == pytest.approx(15.0)

    def test_campaign_determinism(self):
        a = run_campaign([3], iterations=1, seed=5)
        b = run_campaign([3], iterations=1, seed=5)
        docs_a = a.db["paths_stats"].find(sort=[("_id", 1)])
        docs_b = b.db["paths_stats"].find(sort=[("_id", 1)])
        assert docs_a == docs_b

    def test_different_seed_different_samples(self):
        a = run_campaign([3], iterations=1, seed=5)
        b = run_campaign([3], iterations=1, seed=6)
        lat_a = [d["avg_latency_ms"] for d in a.db["paths_stats"].find()]
        lat_b = [d["avg_latency_ms"] for d in b.db["paths_stats"].find()]
        assert lat_a != lat_b


for _seed in EXTRA_SEEDS:
    for _figure in (TestFig4, TestFig5, TestFig6, TestFig7And8, TestFig9):
        _name = f"{_figure.__name__}Seed{_seed}"
        globals()[_name] = type(_name, (_figure,), {"seed": _seed})

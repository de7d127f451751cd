"""Edge-case coverage: jitter config, path status, index internals,
big-number primes, retention, the all-figures runner."""

import numpy as np
import pytest

from repro.analysis.stats import whisker_stats
from repro.crypto.primes import is_probable_prime
from repro.docdb.client import DocDBClient
from repro.docdb.index import Index
from repro.netsim.congestion import CongestionEpisode
from repro.netsim.network import ServerHealth
from repro.scion.snet import ScionHost
from repro.suite.storage import prune_stats
from repro.apps.showpaths import ShowpathsApp


class TestJitteryAses:
    """§6.1: 16-ffaa:0:1007 / 16-ffaa:0:1004 'introduce a wide jitter'."""

    def test_detour_paths_have_wider_spread(self, fresh_world_host):
        host = fresh_world_host
        paths = host.paths("16-ffaa:0:1002", max_paths=None)
        kept = [p for p in paths if p.hop_count <= paths[0].hop_count + 1]
        europe = next(
            p for p in kept
            if not p.transits("16-ffaa:0:1004") and not p.transits("16-ffaa:0:1007")
        )
        detour = next(p for p in kept if p.transits("16-ffaa:0:1007"))

        def spread(path):
            stats = host.scmp.echo_series(
                path, "172.31.43.7", count=20, interval_s=0.05
            )
            return whisker_stats(list(stats.rtts_ms)).spread

        assert spread(detour) > 2.0 * spread(europe)


class TestShowpathsStatusUnderFailure:
    def test_probe_times_out_during_blackout(self, fresh_world_host):
        host = fresh_world_host
        host.network.add_episode(
            CongestionEpisode.on_ases(["16-ffaa:0:1001"], 0.0, 10_000.0, loss=1.0)
        )
        result = ShowpathsApp(host).run("16-ffaa:0:1002", max_paths=4, probe=True)
        assert all(e.status == "timeout" for e in result.entries)

    def test_mixed_status(self, fresh_world_host):
        host = fresh_world_host
        # Kill only the Ohio AS: direct paths stay alive.
        host.network.add_episode(
            CongestionEpisode.on_ases(["16-ffaa:0:1004"], 0.0, 10_000.0, loss=1.0)
        )
        result = ShowpathsApp(host).run("16-ffaa:0:1002", max_paths=40, probe=True)
        statuses = {e.status for e in result.entries}
        assert statuses == {"alive", "timeout"}
        for e in result.entries:
            expected = "timeout" if e.path.transits("16-ffaa:0:1004") else "alive"
            assert e.status == expected


class TestFieldIndexInternals:
    """A single-field index is a one-field :class:`Index`."""

    def test_add_remove_cycle(self):
        index = Index(["v"])
        doc = {"_id": 1, "v": 5}
        index.add(doc)
        assert index.ids([5]) == {1}
        index.remove(doc)
        assert index.ids([5]) == set()
        assert len(index) == 0

    def test_missing_field_bucketed(self):
        index = Index(["v"])
        index.add({"_id": 1})
        assert index.ids([None]) == {1}

    def test_bool_and_number_keys_distinct(self):
        index = Index(["v"])
        index.add({"_id": 1, "v": True})
        index.add({"_id": 2, "v": 1})
        assert index.ids([True]) == {1}
        assert index.ids([1]) == {2}

    def test_string_range(self):
        index = Index(["name"])
        for i, name in enumerate(["alpha", "beta", "gamma"]):
            index.add({"_id": i, "name": name})
        assert index.ids([], gte="b", lt="g") == {1}

    def test_unbounded_range_returns_everything(self):
        index = Index(["v"])
        index.add({"_id": 1, "v": 1})
        index.add({"_id": 2, "v": "text"})
        assert index.ids([]) == {1, 2}

    def test_array_values_indexed_per_element(self):
        index = Index(["tags"])
        index.add({"_id": 1, "tags": ["a", "b"]})
        assert index.ids(["a"]) == {1}
        assert index.ids(["b"]) == {1}


class TestBigNumberPrimes:
    def test_mersenne_prime_m89(self):
        # 2^89 - 1 is prime and exceeds the deterministic-witness bound.
        assert is_probable_prime(2**89 - 1, rng=np.random.default_rng(0))

    def test_large_composite(self):
        n = (2**89 - 1) * (2**61 - 1)
        assert not is_probable_prime(n, rng=np.random.default_rng(0))


class TestRetention:
    def test_prune_stats(self):
        coll = DocDBClient()["upin"]["paths_stats"]
        coll.create_index("timestamp_ms")
        coll.insert_many(
            [{"_id": f"1_0_{t}", "timestamp_ms": t} for t in range(10)]
        )
        removed = prune_stats(coll, before_ms=6)
        assert removed == 6
        remaining = sorted(d["timestamp_ms"] for d in coll.find())
        assert remaining == [6, 7, 8, 9]

    def test_prune_nothing(self):
        coll = DocDBClient()["upin"]["paths_stats"]
        coll.insert_one({"_id": "x", "timestamp_ms": 100})
        assert prune_stats(coll, before_ms=50) == 0


class TestRunAllSmoke:
    def test_runner_produces_all_sections(self):
        from repro.experiments.runner import run_all

        report = run_all(iterations=1, seed=77)
        for section in ("Figure 4", "Figure 5", "Figure 6", "Figure 7",
                        "Figure 8", "Figure 9"):
            assert section in report
        # The report is a pure function of seed and iterations.
        assert "wall time" not in report
        assert report.endswith("iterations=1, seed=77")

    def test_runner_cli_writes_file(self, tmp_path, capsys):
        from repro.experiments.runner import main

        out = tmp_path / "report.txt"
        assert main(["--iterations", "1", "--seed", "77", "--output", str(out)]) == 0
        assert "Figure 9" in out.read_text()
        assert "total wall time" in capsys.readouterr().out

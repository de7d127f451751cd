"""Unit and integration tests for the flow-health monitor subsystem."""

import hashlib
import json

import pytest

from repro.docdb.client import DocDBClient
from repro.docdb.collection import Collection
from repro.errors import TopologyError, ValidationError
from repro.experiments.world import run_campaign
from repro.monitor.failover import FailoverEngine
from repro.monitor.health import (
    FlowHealth,
    FlowHealthTracker,
    HealthSample,
    replay_events,
)
from repro.monitor.journal import (
    EVENT_FAILOVER,
    EVENT_FAILOVER_FAILED,
    EVENT_FAILOVER_SUPPRESSED,
    EVENT_TYPES,
    FLOW_EVENTS_COLLECTION,
    FlowEventJournal,
)
from repro.monitor.loop import FlowMonitor
from repro.monitor.revocation import (
    Revocation,
    RevocationStore,
    sequence_interfaces,
)
from repro.monitor.scenario import run_outage_scenario
from repro.monitor.slo import FlowSLO
from repro.selection.engine import PathSelector
from repro.selection.request import UserRequest
from repro.suite import metrics as m
from repro.topology.isd_as import ISDAS
from repro.upin.controller import PathController


@pytest.fixture(scope="module")
def monitor_world():
    """A small campaign world this module may mutate freely."""
    return run_campaign([3], iterations=1, seed=77001)


def fresh_journal():
    return FlowEventJournal(DocDBClient()["j"]["flow_events"])


# -- SLO ----------------------------------------------------------------------


class TestFlowSLO:
    def test_defaults(self):
        slo = FlowSLO()
        assert slo.max_loss_pct == 50.0
        assert (slo.breach_k, slo.window_n) == (2, 3)
        assert slo.cooldown_s == 120.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            FlowSLO(max_loss_pct=0.0)
        with pytest.raises(ValidationError):
            FlowSLO(breach_k=4, window_n=3)
        with pytest.raises(ValidationError):
            FlowSLO(max_latency_ms=-1.0)
        with pytest.raises(ValidationError):
            FlowSLO(cooldown_s=-1.0)

    def test_from_request_adopts_hard_limits_with_headroom(self):
        request = UserRequest.make(
            3, max_latency_ms=100.0, max_loss_pct=5.0,
            min_bandwidth_down_mbps=8.0,
        )
        slo = FlowSLO.from_request(request)
        assert slo.max_latency_ms == pytest.approx(150.0)  # 1.5x headroom
        assert slo.max_loss_pct == 5.0
        assert slo.min_bandwidth_down_mbps == 8.0

    def test_from_request_falls_back_to_domain_defaults(self):
        slo = FlowSLO.from_request(UserRequest.make(3))
        assert slo.max_latency_ms is None
        assert slo.max_loss_pct == 50.0

    def test_document_roundtrip(self):
        slo = FlowSLO(max_latency_ms=80.0, breach_k=3, window_n=5)
        assert FlowSLO.from_document(slo.to_document()) == slo

    def test_describe(self):
        text = FlowSLO(max_latency_ms=80.0).describe()
        assert "latency<=80ms" in text and "2-of-3" in text


# -- tracker ------------------------------------------------------------------


class TestFlowHealthTracker:
    KEY = ("alice", 3)

    def make(self, **slo_kwargs):
        tracker = FlowHealthTracker()
        tracker.register(self.KEY, FlowSLO(**slo_kwargs), "p1", 0.0)
        return tracker

    def test_ewma_fold_values(self):
        tracker = self.make()
        tracker.observe(self.KEY, HealthSample(1.0, 0.0, latency_ms=100.0))
        tracker.observe(self.KEY, HealthSample(2.0, 0.0, latency_ms=50.0))
        snap = tracker.snapshot()["alice/3"]
        assert snap["ewma_latency_ms"] == pytest.approx(0.4 * 50 + 0.6 * 100)

    def test_none_latency_keeps_previous_ewma(self):
        tracker = self.make()
        tracker.observe(self.KEY, HealthSample(1.0, 0.0, latency_ms=40.0))
        tracker.observe(self.KEY, HealthSample(2.0, 100.0, latency_ms=None))
        snap = tracker.snapshot()["alice/3"]
        assert snap["ewma_latency_ms"] == pytest.approx(40.0)

    def test_ok_degraded_violated_and_recovery(self):
        tracker = self.make(max_loss_pct=50.0, breach_k=2, window_n=3)
        bad = lambda t: HealthSample(t, 100.0)
        good = lambda t: HealthSample(t, 0.0)
        assert tracker.observe(self.KEY, bad(1.0)).transition.to_state \
            is FlowHealth.DEGRADED
        assert tracker.observe(self.KEY, bad(2.0)).transition.to_state \
            is FlowHealth.VIOLATED
        # One good sample is not a recovery (hysteresis)...
        # EWMA after two 100s then one 0: 0.4*0+0.6*100 = 60 > 50 - still
        # a breach; feed enough clean samples to drain the window.
        t, state = 3.0, tracker.state_of(self.KEY)
        while tracker.state_of(self.KEY) is not FlowHealth.OK:
            obs = tracker.observe(self.KEY, good(t))
            t += 1.0
            assert t < 20.0, "never recovered"
        assert tracker.state_of(self.KEY) is FlowHealth.OK
        assert tracker.first_breach_of(self.KEY) is None

    def test_first_breach_time_survives_the_streak(self):
        tracker = self.make()
        tracker.observe(self.KEY, HealthSample(5.0, 100.0))
        tracker.observe(self.KEY, HealthSample(6.0, 100.0))
        assert tracker.first_breach_of(self.KEY) == 5.0

    def test_register_resets_state_after_failover(self):
        tracker = self.make()
        tracker.observe(self.KEY, HealthSample(1.0, 100.0))
        tracker.observe(self.KEY, HealthSample(2.0, 100.0))
        assert tracker.state_of(self.KEY) is FlowHealth.VIOLATED
        tracker.register(self.KEY, FlowSLO(), "p2", 3.0)
        assert tracker.state_of(self.KEY) is FlowHealth.OK
        assert tracker.snapshot()["alice/3"]["path_id"] == "p2"
        assert tracker.snapshot()["alice/3"]["samples"] == 0

    def test_staleness_breach(self):
        tracker = self.make(max_staleness_s=60.0, breach_k=1, window_n=1)
        tracker.observe(self.KEY, HealthSample(0.0, 0.0))
        assert tracker.observe_staleness(self.KEY, 30.0) is None
        transition = tracker.observe_staleness(self.KEY, 120.0)
        assert transition is not None
        assert transition.to_state is FlowHealth.VIOLATED
        assert transition.cause == "staleness"

    def test_breach_reasons_text(self):
        tracker = self.make(max_loss_pct=10.0)
        tracker.observe(self.KEY, HealthSample(1.0, 90.0))
        reasons = tracker.breach_reasons(self.KEY)
        assert reasons and "loss" in reasons[0]

    def test_untracked_flow_raises(self):
        tracker = FlowHealthTracker()
        with pytest.raises(ValidationError):
            tracker.state_of(("nobody", 1))

    def test_counts_by_state(self):
        tracker = self.make()
        tracker.register(("bob", 1), FlowSLO(), "p", 0.0)
        tracker.mark_dead(("bob", 1), "revoked", 1.0)
        counts = tracker.counts_by_state()
        assert counts["ok"] == 1 and counts["dead"] == 1


# -- revocations --------------------------------------------------------------


class TestRevocation:
    def test_sequence_interfaces_parses_and_skips_zero(self):
        seq = "17-ffaa:1:1#0,2 17-ffaa:0:1107#1,3 19-ffaa:0:1301#4,0"
        assert sequence_interfaces(seq) == {
            ("17-ffaa:1:1", 2),
            ("17-ffaa:0:1107", 1),
            ("17-ffaa:0:1107", 3),
            ("19-ffaa:0:1301", 4),
        }

    def test_malformed_predicate_raises(self):
        with pytest.raises(ValidationError):
            sequence_interfaces("17-ffaa:1:1")

    def test_revocation_validation(self):
        ia = ISDAS.parse("17-ffaa:0:1107")
        with pytest.raises(ValidationError):
            Revocation(ia, 0, 0.0, 10.0)
        with pytest.raises(ValidationError):
            Revocation(ia, 1, 10.0, 10.0)

    def test_inject_validates_interface_exists(self, world_host):
        store = RevocationStore(world_host.topology)
        with pytest.raises(TopologyError):
            store.inject(
                Revocation(ISDAS.parse("17-ffaa:0:1107"), 999, 0.0, 10.0)
            )

    def test_affecting_path_matches_pinned_interface(self, world_host):
        path = world_host.paths("19-ffaa:0:1303", max_paths=1)[0]
        hop = path.hops[1]
        store = RevocationStore(world_host.topology)
        revocation = Revocation(hop.isd_as, hop.ingress, 0.0, 100.0)
        store.inject(revocation)
        assert store.affecting_path(path, 50.0) is revocation
        assert store.affecting_path(path, 150.0) is None  # expired

    def test_affected_path_ids_and_expiry(self, world_host):
        path = world_host.paths("19-ffaa:0:1303", max_paths=1)[0]
        hop = path.hops[1]
        store = RevocationStore(world_host.topology)
        store.inject(Revocation(hop.isd_as, hop.ingress, 0.0, 100.0))
        docs = [
            {"_id": "a", "sequence": path.sequence()},
            {"_id": "b", "sequence": f"{path.src}#0,0"},
        ]
        assert store.affected_path_ids(docs, 10.0) == {"a"}
        assert store.affected_path_ids(docs, 200.0) == set()

    def test_blackhole_adds_netsim_episode(self, fresh_world_host):
        host = fresh_world_host
        path = host.paths("19-ffaa:0:1303", max_paths=1)[0]
        hop = path.hops[1]
        store = RevocationStore(host.topology)
        before = len(host.network.episodes)
        store.inject(
            Revocation(hop.isd_as, hop.ingress, 0.0, 100.0),
            network=host.network,
        )
        assert len(host.network.episodes) == before + 1


# -- journal ------------------------------------------------------------------


class TestJournal:
    def test_append_assigns_monotonic_seq(self):
        journal = fresh_journal()
        a = journal.append("revocation", 1.0, isd_as="x", interface=1)
        b = journal.append("failover_failed", 2.0, user="u", server_id=1)
        assert (a["seq"], b["seq"]) == (0, 1)
        assert a["_id"] == "flowevt_00000000"
        assert len(journal) == 2

    def test_unknown_event_type_rejected(self):
        with pytest.raises(ValueError):
            fresh_journal().append("nonsense", 0.0)

    def test_seq_resumes_on_existing_collection(self):
        coll = DocDBClient()["j"]["flow_events"]
        FlowEventJournal(coll).append("revocation", 1.0, isd_as="x", interface=1)
        resumed = FlowEventJournal(coll)
        doc = resumed.append("revocation", 2.0, isd_as="y", interface=2)
        assert doc["seq"] == 1

    def test_filtered_events(self):
        journal = fresh_journal()
        journal.append("flow_registered", 0.0, user="a", server_id=1, path_id="p")
        journal.append("flow_registered", 0.0, user="b", server_id=2, path_id="q")
        assert [d["user"] for d in journal.events(user="a")] == ["a"]
        assert len(journal.events(event_type="flow_registered")) == 2

    def test_failover_report_empty(self):
        assert "(no failovers recorded)" in fresh_journal().failover_report()

    def test_batch_is_one_insert_many_in_seq_order(self, monkeypatch):
        journal = fresh_journal()
        journal.append("revocation", 0.5, isd_as="w", interface=9)
        writes = []
        real = journal.collection.insert_many
        monkeypatch.setattr(
            journal.collection, "insert_many",
            lambda docs: writes.append(list(docs)) or real(docs),
        )
        epoch = journal.collection.epoch
        with journal.batch():
            a = journal.append("revocation", 1.0, isd_as="x", interface=1)
            with journal.batch():  # a nested batch joins the outer one
                b = journal.append("failover_failed", 2.0, user="u", server_id=1)
            assert len(journal) == 1  # nothing written before the batch ends
        assert [[d["seq"] for d in w] for w in writes] == [[1, 2]]
        assert journal.collection.epoch == epoch + 1
        assert [d["_id"] for d in journal.events()] == [
            "flowevt_00000000", a["_id"], b["_id"],
        ]

    def test_batch_is_written_when_its_body_raises(self):
        journal = fresh_journal()
        with pytest.raises(RuntimeError):
            with journal.batch():
                journal.append("revocation", 1.0, isd_as="x", interface=1)
                raise RuntimeError("mid-round failure")
        assert [d["seq"] for d in journal.events()] == [0]

    def test_batched_and_unbatched_events_store_alike(self):
        plain, batched = fresh_journal(), fresh_journal()
        events = [
            ("revocation", 1.0, dict(isd_as="x", interface=1)),
            ("failover_failed", 2.0, dict(user="u", server_id=1, cause="c")),
        ]
        for etype, t_s, payload in events:
            plain.append(etype, t_s, **payload)
        with batched.batch():
            for etype, t_s, payload in events:
                batched.append(etype, t_s, **payload)
        assert batched.events() == plain.events()

    def test_format_events_empty_and_nonempty(self):
        journal = fresh_journal()
        assert "journal empty" in journal.format_events()
        journal.append(
            "failover", 5.0, user="a", server_id=1,
            old_path_id="p", new_path_id="q", cause="test",
        )
        text = journal.format_events()
        assert "p -> q" in text and "failover" in text


# -- failover engine ----------------------------------------------------------


class TestFailoverEngine:
    def _engine(self, world, user, *, exclude_others=False):
        selector = PathSelector(world.db, world.host.topology)
        controller = PathController(world.host, selector)
        if exclude_others:
            # Leave exactly one admissible path so reselection starves.
            path_ids = {
                str(d["_id"])
                for d in world.db["paths"].find({"server_id": 3})
            }
            keep = sorted(path_ids)[0]
            request = UserRequest.make(
                3, exclude_paths=path_ids - {keep}
            )
        else:
            request = UserRequest.make(3)
        rule = controller.apply_intent(user, request)
        journal = fresh_journal()
        engine = FailoverEngine(
            controller, RevocationStore(world.host.topology), journal
        )
        return engine, controller, rule, journal

    def test_swap_keeps_original_request(self, monitor_world):
        engine, controller, rule, journal = self._engine(
            monitor_world, "swapper"
        )
        outcome = engine.try_failover(rule, FlowSLO(), "test", 100.0)
        assert outcome.swapped
        new_rule = controller.active_flow("swapper", 3)
        assert new_rule.request == rule.request  # intent verbatim
        assert new_rule.path_id != rule.path_id
        assert journal.events(event_type=EVENT_FAILOVER)

    def test_cooldown_suppression_is_journaled(self, monitor_world):
        engine, controller, rule, journal = self._engine(
            monitor_world, "flapper"
        )
        slo = FlowSLO(cooldown_s=300.0)
        first = engine.try_failover(rule, slo, "breach", 100.0)
        assert first.swapped
        second = engine.try_failover(
            controller.active_flow("flapper", 3), slo, "breach", 150.0
        )
        assert second.suppressed and not second.swapped
        docs = journal.events(event_type=EVENT_FAILOVER_SUPPRESSED)
        assert docs and docs[0]["cooldown_remaining_s"] == pytest.approx(250.0)

    def test_force_bypasses_cooldown(self, monitor_world):
        engine, controller, rule, journal = self._engine(
            monitor_world, "forced"
        )
        slo = FlowSLO(cooldown_s=300.0)
        assert engine.try_failover(rule, slo, "breach", 100.0).swapped
        outcome = engine.try_failover(
            controller.active_flow("forced", 3), slo, "revoked", 150.0,
            force=True,
        )
        assert outcome.swapped and not outcome.suppressed

    def test_no_replacement_is_journaled_as_failed(self, monitor_world):
        engine, controller, rule, journal = self._engine(
            monitor_world, "stuck", exclude_others=True
        )
        outcome = engine.try_failover(rule, FlowSLO(), "breach", 100.0)
        assert not outcome.swapped and outcome.error is not None
        docs = journal.events(event_type=EVENT_FAILOVER_FAILED)
        assert docs and "breach" in docs[0]["cause"]
        # The flow rule is untouched.
        assert controller.active_flow("stuck", 3).path_id == rule.path_id

    def test_detection_to_recovery_latency(self, monitor_world):
        engine, controller, rule, journal = self._engine(
            monitor_world, "latency"
        )
        outcome = engine.try_failover(
            rule, FlowSLO(), "breach", 130.0, detected_at_s=100.0
        )
        assert outcome.detection_to_recovery_s == pytest.approx(30.0)
        doc = journal.failovers()[0]
        assert doc["detection_to_recovery_s"] == pytest.approx(30.0)


# -- monitor loop -------------------------------------------------------------


class TestFlowMonitorUnit:
    def test_watch_and_unwatch_journal_events(self, monitor_world):
        world = monitor_world
        selector = PathSelector(world.db, world.host.topology)
        controller = PathController(world.host, selector)
        monitor = FlowMonitor(world.host, DocDBClient()["m"], controller)
        rule = controller.apply_intent("watcher", UserRequest.make(3))
        slo = monitor.watch(rule)
        assert slo.max_loss_pct == 50.0
        assert monitor.tracker.is_tracked(rule.key)
        types = [d["type"] for d in monitor.journal.events()]
        assert types == ["flow_registered"]

    def test_probe_feeds_tracker(self, monitor_world):
        world = monitor_world
        selector = PathSelector(world.db, world.host.topology)
        controller = PathController(world.host, selector)
        monitor = FlowMonitor(world.host, DocDBClient()["m"], controller)
        rule = controller.apply_intent("prober", UserRequest.make(3))
        monitor.watch(rule)
        monitor.after_round()
        snap = monitor.tracker.snapshot()["prober/3"]
        assert snap["samples"] >= 1
        assert monitor.metrics.counter(m.MON_PROBES) == 3

    def _shared_path_monitor(self, world, prefix, flows):
        selector = PathSelector(world.db, world.host.topology)
        controller = PathController(world.host, selector)
        monitor = FlowMonitor(world.host, DocDBClient()["m"], controller)
        for i in range(flows):
            monitor.watch(
                controller.apply_intent(f"{prefix}-{i}", UserRequest.make(3))
            )
        assert len({r.path_id for r in controller.flows()}) == 1
        return monitor

    def test_one_probe_series_per_distinct_path(self, monitor_world):
        monitor = self._shared_path_monitor(monitor_world, "shared", 5)
        monitor.after_round()
        assert monitor.metrics.counter(m.MON_PROBES) == 3
        samples = monitor.journal.events(event_type="sample")
        assert len(samples) == 5
        assert len({(d["t_s"], d["latency_ms"]) for d in samples}) == 1

    @pytest.mark.parametrize("flows", [1, 20])
    def test_one_journal_write_per_round(self, monitor_world, monkeypatch, flows):
        monitor = self._shared_path_monitor(monitor_world, f"batch{flows}", flows)
        coll = monitor.journal.collection
        calls = []
        for name in ("insert_one", "insert_many"):
            real = getattr(coll, name)
            monkeypatch.setattr(
                coll, name,
                lambda arg, _n=name, _f=real: calls.append(_n) or _f(arg),
            )
        epoch = coll.epoch
        monitor.after_round()
        assert calls == ["insert_many"]
        assert coll.epoch == epoch + 1
        assert len(monitor.journal.events(event_type="sample")) == flows


    def test_revocation_round_reads_the_paths_once(
        self, monitor_world, monkeypatch
    ):
        monitor = self._shared_path_monitor(monitor_world, "revoked", 50)
        # The destination-side ingress: other paths avoid it.
        hop = next(iter(monitor.controller.flows())).path.hops[-2]
        paths = monitor_world.db["paths"]
        every_path = paths.find({"server_id": 3})
        reads = []
        real_find = paths.find
        monkeypatch.setattr(
            paths, "find",
            lambda flt=None, **kw: reads.append((flt, kw)) or real_find(flt, **kw),
        )
        now = monitor.clock.now_s
        revocation = Revocation(hop.isd_as, hop.ingress, now, now + 600.0)
        monitor.revoke(revocation, blackhole=False)
        # One exclusion read for the 50 flows (the reselection's own
        # reads are sorted or by ``_id``).
        assert reads.count(({"server_id": 3}, {})) == 1
        failovers = monitor.journal.failovers()
        assert len(failovers) == 50
        # The memo returns what a fresh read returns, for every flow.
        revoked = monitor.revocations.affected_path_ids(every_path, now)
        for doc in failovers:
            assert doc["excluded_paths"] == sorted(revoked | {doc["old_path_id"]})


# -- the scripted outage scenario (end-to-end) --------------------------------


@pytest.fixture(scope="module")
def scenario():
    return run_outage_scenario(rounds=8)


class TestOutageScenario:
    def test_flow_goes_violated_then_recovers(self, scenario):
        transitions = [
            (d["from"], d["to"])
            for d in scenario.journal.transitions(user="alice")
        ]
        assert ("ok", "violated") in transitions or \
            ("degraded", "violated") in transitions
        assert scenario.monitor.tracker.state_of(("alice", 3)) \
            is FlowHealth.OK

    def test_both_failure_modes_fire(self, scenario):
        causes = [d["cause"] for d in scenario.journal.failovers()]
        assert len(causes) == 2
        assert any("loss" in c for c in causes)
        assert any("revocation" in c for c in causes)

    def test_detection_to_recovery_recorded(self, scenario):
        for doc in scenario.journal.failovers():
            assert doc["detection_to_recovery_s"] >= 0.0
            assert doc["recovered_at_s"] >= doc["detected_at_s"]

    def test_path_journey_recorded(self, scenario):
        assert len(scenario.path_history) >= 3  # out and back counts

    def test_metrics_match_journal(self, scenario):
        snap = scenario.monitor.metrics_snapshot()
        assert snap["counters"][m.MON_FAILOVERS] == \
            len(scenario.journal.failovers())
        assert snap["counters"][m.MON_REVOCATIONS] == 1

    def test_failover_report_text(self, scenario):
        text = scenario.journal.failover_report()
        assert "2 failover(s)" in text
        assert "mean time-to-repair" in text

    def test_journal_replay_matches_live_tracker(self, scenario):
        replayed = replay_events(scenario.journal.events())
        assert replayed.snapshot() == scenario.monitor.tracker.snapshot()

    def test_byte_identical_across_repeated_runs(self, scenario):
        again = run_outage_scenario(rounds=8)
        a = json.dumps(scenario.journal.events(), sort_keys=True, default=str)
        b = json.dumps(again.journal.events(), sort_keys=True, default=str)
        assert a == b

    def test_event_types_all_known(self, scenario):
        assert {d["type"] for d in scenario.journal.events()} <= EVENT_TYPES


@pytest.fixture(scope="module")
def crowded_scenario():
    """The scripted episode with 49 more flows on alice's destination."""
    return run_outage_scenario(rounds=8, extra_flows=49)


class TestScenarioRegistrations:
    def test_fifty_registrations_are_one_insert_many(self, monkeypatch):
        """The scenario writes its flows' registrations as one
        ``insert_many``, with the seq, ``_id`` and order that one write
        per flow gave."""
        writes = []
        real = Collection.insert_many

        def spy(coll, docs):
            docs = list(docs)
            if coll.name == FLOW_EVENTS_COLLECTION:
                writes.append(
                    [(d["type"], d["seq"], d["_id"], d["user"]) for d in docs]
                )
            return real(coll, docs)

        monkeypatch.setattr(Collection, "insert_many", spy)
        scenario = run_outage_scenario(rounds=1, extra_flows=49)
        users = [scenario.user] + [f"flow-{i:03d}" for i in range(49)]
        assert writes[0] == [
            ("flow_registered", seq, f"flowevt_{seq:08d}", user)
            for seq, user in enumerate(users)
        ]
        assert all(doc[0] != "flow_registered" for w in writes[1:] for doc in w)


class TestCrowdedOutageScenario:
    """Per-path probing keeps the episode independent of flow count."""

    @staticmethod
    def _alice_failovers(scenario):
        return [
            (d["t_s"], d["old_path_id"], d["new_path_id"], d["cause"])
            for d in scenario.journal.failovers()
            if d["user"] == "alice"
        ]

    def test_alice_sees_the_single_flow_episode(
        self, scenario, crowded_scenario
    ):
        assert self._alice_failovers(crowded_scenario) == \
            self._alice_failovers(scenario)
        assert crowded_scenario.path_history == scenario.path_history
        assert crowded_scenario.world.host.clock.now_s == \
            scenario.world.host.clock.now_s

    def test_every_flow_fails_over_and_ends_alive(self, crowded_scenario):
        assert len(crowded_scenario.journal.failovers()) == 2 * 50
        counts = crowded_scenario.monitor.tracker.counts_by_state()
        assert counts.get("dead", 0) == 0

    def test_journal_replay_matches_live_tracker(self, crowded_scenario):
        replayed = replay_events(crowded_scenario.journal.events())
        assert replayed.snapshot() == \
            crowded_scenario.monitor.tracker.snapshot()


class TestMonitorCLI:
    def test_failover_report_action(self, capsys):
        from repro.upin.cli import main

        assert main(["monitor", "failover-report"]) == 0
        out = capsys.readouterr().out
        assert "failover report:" in out
        assert "->" in out

    def test_status_action_with_metrics(self, capsys):
        from repro.upin.cli import main

        assert main(["monitor", "status", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "monitored flows:" in out
        assert "path journey:" in out
        assert "monitor:" in out  # the metrics block

    def test_events_action_with_limit(self, capsys):
        from repro.upin.cli import main

        assert main(["monitor", "events", "--limit", "5"]) == 0
        out = capsys.readouterr().out
        assert out.count("#0") == 5


#: sha256 of ``upin-frontend monitor events`` and ``failover-report``
#: for the default scenario, as printed while the journal still created
#: its ``type`` and ``(user, server_id)`` indexes.
JOURNAL_OUTPUT_SHA256 = {
    "events": "38e910e12b23e22df7f74d1bea30181b3a1cfb7d5b8c3dcf6cb785ed69348020",
    "failover-report": "316d91f1dee8b19892a5fd43a14daded2daef3b2f9086855fb16ae0493f93d26",
}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestJournalWithoutIndexes:
    @pytest.mark.parametrize("action", sorted(JOURNAL_OUTPUT_SHA256))
    def test_cli_output_unchanged(self, capsys, action):
        from repro.upin.cli import main

        assert main(["monitor", action]) == 0
        assert _sha256(capsys.readouterr().out) == JOURNAL_OUTPUT_SHA256[action]

    def test_journal_creates_no_index(self):
        assert fresh_journal().collection.index_information() == {}

    def test_store_with_the_old_indexes_reopens_with_them(
        self, scenario, tmp_path
    ):
        client = DocDBClient.open(str(tmp_path), fsync="never")
        old = client["monitor"]["flow_events"]
        old.create_index("type")
        old.create_index([("user", 1), ("server_id", 1)])
        old.insert_many(scenario.journal.events())
        client.close()

        client = DocDBClient.open(str(tmp_path), fsync="never")
        journal = FlowEventJournal(client["monitor"]["flow_events"])
        assert set(journal.collection.index_information()) == {
            "type", "user_1_server_id_1",
        }
        outputs = {
            "events": journal.format_events(),
            "failover-report": journal.failover_report(),
        }
        for action, text in outputs.items():
            assert _sha256(text + "\n") == JOURNAL_OUTPUT_SHA256[action]
        # The kept indexes stay exact as the journal grows.
        journal.append("failover_failed", 2000.0, user="alice", server_id=3)
        assert journal.events(event_type="failover_failed", user="alice") == [
            d for d in journal.events() if d["type"] == "failover_failed"
        ]
        client.close()

"""Tests for the UPIN framework components (repro.upin)."""

import pytest

from repro.errors import NoPathError
from repro.selection.engine import PathSelector
from repro.selection.request import Metric, UserRequest
from repro.upin.controller import PathController
from repro.upin.explorer import NODES_COLLECTION, DomainExplorer
from repro.upin.frontend import Frontend
from repro.upin.tracer import TRACES_COLLECTION, PathTracer
from repro.upin.verifier import PathVerifier, Verdict


@pytest.fixture(scope="module")
def world(measured_world):
    return measured_world


@pytest.fixture(scope="module")
def frontend(world):
    return Frontend(world.host, world.db, upin_isds=[17, 19])


class TestDomainExplorer:
    def test_explore_publishes_every_as(self, world):
        explorer = DomainExplorer(world.host.topology, world.db)
        count = explorer.explore()
        assert count == 36
        assert world.db[NODES_COLLECTION].count_documents() == 36

    def test_node_lookup(self, frontend):
        node = frontend.explorer.node("16-ffaa:0:1002")
        assert node["country"] == "IE"
        assert node["operator"] == "Amazon"
        assert node["role"] == "non-core"

    def test_country_query(self, frontend):
        nodes = frontend.explorer.nodes_in_country("us")
        assert {n["_id"] for n in nodes} >= {"16-ffaa:0:1003", "16-ffaa:0:1004"}

    def test_operator_query(self, frontend):
        nodes = frontend.explorer.nodes_of_operator("Amazon")
        assert len(nodes) == 7

    def test_countries_and_operators(self, frontend):
        assert "CH" in frontend.explorer.countries()
        assert "Amazon" in frontend.explorer.operators()

    def test_degree_recorded(self, frontend):
        node = frontend.explorer.node("16-ffaa:0:1001")
        assert node["degree"] >= 5


class TestPathController:
    def test_apply_intent_installs_flow(self, world):
        selector = PathSelector(world.db, world.host.topology)
        controller = PathController(world.host, selector)
        rule = controller.apply_intent("alice", UserRequest.make(1))
        assert rule.path.dst.isd == 16
        assert controller.active_flow("alice", 1) is rule
        assert controller.flows() == [rule]

    def test_intent_constraints_respected(self, world):
        selector = PathSelector(world.db, world.host.topology)
        controller = PathController(world.host, selector)
        rule = controller.apply_intent(
            "bob", UserRequest.make(1, exclude_countries=["US", "SG"])
        )
        assert not rule.path.transits("16-ffaa:0:1004")
        assert not rule.path.transits("16-ffaa:0:1007")

    def test_unsatisfiable_intent_raises(self, world):
        selector = PathSelector(world.db, world.host.topology)
        controller = PathController(world.host, selector)
        with pytest.raises(NoPathError):
            controller.apply_intent("eve", UserRequest.make(1, exclude_isds=[16]))


class TestTracerAndVerifier:
    def test_trace_stores_record(self, world):
        selector = PathSelector(world.db, world.host.topology)
        controller = PathController(world.host, selector)
        tracer = PathTracer(world.host, world.db)
        rule = controller.apply_intent("carol", UserRequest.make(3))
        record = tracer.trace_flow(rule)
        assert record.observed_hops == tuple(str(a) for a in rule.path.ases()[1:])
        stored = world.db[TRACES_COLLECTION].find({"user": "carol", "server_id": 3})
        assert len(stored) >= 1

    def test_verifier_satisfied_within_upin_domains(self, world):
        """Magdeburg paths stay in ISDs 17+19 — fully verifiable."""
        selector = PathSelector(world.db, world.host.topology)
        controller = PathController(world.host, selector)
        tracer = PathTracer(world.host, world.db)
        verifier = PathVerifier(world.host.topology, upin_isds=[17, 19])
        rule = controller.apply_intent("dave", UserRequest.make(3))
        report = verifier.verify(rule, tracer.trace_flow(rule))
        assert report.verdict is Verdict.SATISFIED
        assert not report.mismatches

    def test_verifier_unverifiable_outside_upin(self, world):
        """Ireland paths cross ISD 16, which does not run UPIN."""
        selector = PathSelector(world.db, world.host.topology)
        controller = PathController(world.host, selector)
        tracer = PathTracer(world.host, world.db)
        verifier = PathVerifier(world.host.topology, upin_isds=[17, 19])
        rule = controller.apply_intent("erin", UserRequest.make(1))
        report = verifier.verify(rule, tracer.trace_flow(rule))
        assert report.verdict is Verdict.UNVERIFIABLE
        assert all(h.startswith("16-") for h in report.unverified_hops)

    def test_verifier_detects_route_deviation(self, world):
        from dataclasses import replace

        selector = PathSelector(world.db, world.host.topology)
        controller = PathController(world.host, selector)
        tracer = PathTracer(world.host, world.db)
        verifier = PathVerifier(world.host.topology, upin_isds=[17, 19])
        rule = controller.apply_intent("frank", UserRequest.make(3))
        trace = tracer.trace_flow(rule)
        # Forge an observation that deviates via GEANT.
        forged = replace(
            trace,
            observed_hops=tuple(
                "19-ffaa:0:1302" if h == "19-ffaa:0:1301" else h
                for h in trace.observed_hops
            ),
        )
        report = verifier.verify(rule, forged)
        assert report.verdict is Verdict.VIOLATED
        assert report.mismatches

    def test_verifier_flags_constraint_violation_on_observed_route(self, world):
        from dataclasses import replace

        selector = PathSelector(world.db, world.host.topology)
        controller = PathController(world.host, selector)
        tracer = PathTracer(world.host, world.db)
        verifier = PathVerifier(world.host.topology, upin_isds=[17, 19])
        rule = controller.apply_intent(
            "grace", UserRequest.make(1, exclude_countries=["US"])
        )
        trace = tracer.trace_flow(rule)
        forged = replace(
            trace,
            observed_hops=trace.observed_hops[:-1] + ("16-ffaa:0:1004",),
        )
        report = verifier.verify(rule, forged)
        assert report.verdict is Verdict.VIOLATED
        assert any("excluded country" in m for m in report.mismatches)


class TestVerifierAfterFailover:
    """Old-path traces must not fail verification of the new flow."""

    def _failed_over(self, world, user="iris", server_id=3):
        """Install a flow, then swap it to its best alternative path."""
        from dataclasses import replace as dc_replace

        from repro.upin.controller import FlowRule

        selector = PathSelector(world.db, world.host.topology)
        controller = PathController(world.host, selector)
        rule = controller.apply_intent(user, UserRequest.make(server_id))
        reroute = dc_replace(
            rule.request, exclude_paths=frozenset({rule.path_id})
        )
        selection = controller.cached_select(reroute)
        assert selection.best is not None
        new_path = world.host.daemon.path_by_sequence(
            rule.path.dst, selection.best.sequence
        )
        assert new_path is not None
        new_rule = FlowRule(
            user=user,
            server_id=server_id,
            server_address=rule.server_address,
            path=new_path,
            request=rule.request,
            selection=selection,
        )
        controller.swap_flow(new_rule)
        return controller, rule, new_rule

    def test_trace_records_path_fingerprint(self, world):
        selector = PathSelector(world.db, world.host.topology)
        controller = PathController(world.host, selector)
        tracer = PathTracer(world.host, world.db)
        rule = controller.apply_intent("judy", UserRequest.make(3))
        record = tracer.trace_flow(rule)
        assert record.path_fingerprint == rule.path.fingerprint()
        stored = world.db[TRACES_COLLECTION].find(
            {"user": "judy", "server_id": 3}, sort=[("timestamp_ms", 1)]
        )[-1]
        assert stored["path_fingerprint"] == rule.path.fingerprint()

    def test_old_trace_is_stale_not_violated_after_failover(self, world):
        tracer = PathTracer(world.host, world.db)
        verifier = PathVerifier(world.host.topology, upin_isds=[17, 19])
        controller, old_rule, new_rule = self._failed_over(world)
        old_trace = tracer.trace_flow(old_rule)  # taken pre-swap
        assert new_rule.path.fingerprint() != old_rule.path.fingerprint()
        report = verifier.verify(new_rule, old_trace)
        assert report.verdict is Verdict.STALE
        assert not report.mismatches
        assert any("failed over" in note for note in report.notes)

    def test_fresh_trace_of_new_path_verifies_clean(self, world):
        tracer = PathTracer(world.host, world.db)
        verifier = PathVerifier(world.host.topology, upin_isds=[17, 19])
        controller, _old_rule, new_rule = self._failed_over(world, user="kate")
        report = verifier.verify(new_rule, tracer.trace_flow(new_rule))
        assert report.verdict is Verdict.SATISFIED

    def test_legacy_trace_without_fingerprint_still_compares_hops(self, world):
        from dataclasses import replace as dc_replace

        tracer = PathTracer(world.host, world.db)
        verifier = PathVerifier(world.host.topology, upin_isds=[17, 19])
        controller, old_rule, new_rule = self._failed_over(world, user="liam")
        legacy = dc_replace(
            tracer.trace_flow(old_rule), path_fingerprint=""
        )
        report = verifier.verify(new_rule, legacy)
        # Without a fingerprint the verifier cannot tell stale from
        # deviating — the legacy behaviour (VIOLATED) is preserved.
        assert report.verdict is Verdict.VIOLATED

    def test_forged_trace_with_current_fingerprint_still_violates(self, world):
        from dataclasses import replace as dc_replace

        tracer = PathTracer(world.host, world.db)
        verifier = PathVerifier(world.host.topology, upin_isds=[17, 19])
        selector = PathSelector(world.db, world.host.topology)
        controller = PathController(world.host, selector)
        rule = controller.apply_intent("mona", UserRequest.make(3))
        trace = tracer.trace_flow(rule)
        forged = dc_replace(
            trace,
            observed_hops=tuple(
                "19-ffaa:0:1302" if h == "19-ffaa:0:1301" else h
                for h in trace.observed_hops
            ),
        )
        report = verifier.verify(rule, forged)
        assert report.verdict is Verdict.VIOLATED


class TestFrontend:
    def test_submit_intent_end_to_end(self, frontend):
        outcome = frontend.submit_intent("henry", UserRequest.make(3))
        assert outcome.rule.server_id == 3
        assert outcome.verification.verdict is Verdict.SATISFIED
        text = outcome.format_text()
        assert "selected path" in text and "verdict:" in text

    def test_recommend_menu(self, frontend):
        menu = frontend.recommend(1)
        assert "latency" in menu and menu["latency"]

    def test_describe_network(self, frontend):
        text = frontend.describe_network()
        assert "36 ASes" in text
        assert "countries" in text

"""The benchmark's three seeded workloads.

Each workload builds its world from the seed, runs one measured phase
against the public API and checks what the program produced.  One call
of ``run(tracer)`` is one repetition: set-up and measured phase inside
the tracer, output checks and the collection digest after it.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Sequence

from perfbench.tracer import SPAN_NAMES, Tracer
from repro.docdb.client import DocDBClient
from repro.errors import NoPathError
from repro.experiments.world import build_world
from repro.monitor.journal import FLOW_EVENTS_COLLECTION
from repro.monitor.scenario import run_outage_scenario
from repro.scion.snet import ScionHost
from repro.scionlab.defaults import study_destination_ids
from repro.selection.request import Metric, UserRequest
from repro.suite.cli import seed_servers
from repro.suite.collect import PathsCollector
from repro.suite.config import PATHS_COLLECTION, STATS_COLLECTION, SuiteConfig
from repro.suite.faults import FaultPlan
from repro.suite.runner import TestRunner
from repro.upin.frontend import Frontend, IntentOutcome
from repro.upin.tracer import TRACES_COLLECTION
from repro.upin.verifier import Verdict

#: Paths per campaign iteration over the five study destinations.
STUDY_PATHS = 80
#: Campaign iterations per repetition: 80 x 30 = 2,400 path measurements.
CAMPAIGN_ITERATIONS = 30
#: Monitored flows and scripted rounds of the outage scenario.  Per-flow
#: work dominates a round at this size, and a repetition is short enough
#: that a run holds the ten repetitions its round-time tail needs.
MONITOR_FLOWS = 500
MONITOR_ROUNDS = 8
#: Intents per repetition, and a campaign iteration after every REFRESH_EVERY.
INTENTS = 2000
REFRESH_EVERY = 200
#: Campaign iterations that fill the DB before the first intent.
WARMUP_ITERATIONS = 10


@dataclass
class Slice:
    """A consecutive part of a repetition's measured phase."""

    ops: int
    wall_s: float
    #: Wall time of each timed operation in the slice.
    latencies_s: List[float]
    #: Slices of one kind do the same work, so their speeds compare.
    kind: int = 0


@dataclass
class Rep:
    """One repetition of a workload: what it measured and produced."""

    #: Set-up plus measured phase, the window the tracer covered.
    wall_s: float
    setup_s: float
    #: The measured phase, cut into slices of equal work.
    slices: List[Slice]
    attempted: int
    failed: int
    #: sha256 of the stored collections: a deterministic output.
    digest: str
    #: Output checks that failed.
    problems: List[str]
    #: Ratio bases read from public attributes (None: attribute gone).
    counters: Dict[str, Optional[int]] = field(default_factory=dict)


def cut(starts: List[float], latencies: List[float], size: int, end: float) -> List[Slice]:
    """Slices of ``size`` consecutive operations.

    ``starts`` holds each operation's start; a slice lasts until the
    next slice starts (the last one until ``end``), so it includes the
    work between operations, such as batch writes.
    """
    bounds = starts[::size] + [end]
    return [
        Slice(len(latencies[i:i + size]), b - a, latencies[i:i + size])
        for i, a, b in zip(range(0, len(starts), size), bounds, bounds[1:])
    ]


def collections_digest(db, names: Sequence[str], extra: Any = None) -> str:
    """sha256 over the named collections' documents in ``_id`` order."""
    h = hashlib.sha256()
    for name in names:
        docs = sorted(db[name].all_documents(), key=lambda d: str(d["_id"]))
        h.update(json.dumps(docs, sort_keys=True, default=str).encode())
    h.update(json.dumps(extra, sort_keys=True, default=str).encode())
    return h.hexdigest()


def public_counters(host, db) -> Dict[str, Optional[int]]:
    """Cache counters, read only through public attributes."""
    net = getattr(host.network, "counters", None)
    infos = [
        coll.cache.info()
        for coll in (db[name] for name in db.list_collection_names())
        if hasattr(getattr(coll, "cache", None), "info")
    ]
    return {
        "daemon_lookups": getattr(host.daemon, "lookups", None),
        "daemon_hits": getattr(host.daemon, "cache_hits", None),
        "sampler_hits": getattr(net, "sampler_hits", None),
        "sampler_misses": getattr(net, "sampler_misses", None),
        "cache_hits": sum(i["hits"] for i in infos) if infos else None,
        "cache_misses": sum(i["misses"] for i in infos) if infos else None,
    }


def stats_problems(docs: List[Dict[str, Any]]) -> List[str]:
    """Stats documents whose fields are out of range."""
    bad = []
    for doc in docs:
        loss = doc["loss_pct"]
        lat = [doc[k] for k in ("min_latency_ms", "avg_latency_ms", "max_latency_ms")]
        bws = [
            doc[k]
            for k in ("bw_up_small_mbps", "bw_down_small_mbps", "bw_up_mtu_mbps", "bw_down_mtu_mbps")
        ]
        ok = 0.0 <= loss <= 100.0 and doc["hop_count"] >= 1
        if loss < 100.0:
            ok = ok and None not in lat and 0.0 < lat[0] <= lat[1] <= lat[2]
        ok = ok and all(0.0 <= bw <= doc["target_mbps"] * (1 + 1e-9) for bw in bws)
        if not ok:
            bad.append(doc["_id"])
    return [f"{len(bad)} stats documents out of range, first {bad[0]}"] if bad else []


class Workload:
    name = ""
    #: Spans every repetition times, traced or not.
    timing_spans: Sequence[str] = ()
    #: The span whose call durations are the latency samples.
    sample_span: Optional[str] = None
    #: The tail percentile reported, as a fraction.
    tail_q = 0.99

    def tracer(self, traced: bool) -> Tracer:
        spans = (SPAN_NAMES if traced else ()) + tuple(self.timing_spans)
        keep = (self.sample_span,) if self.sample_span else ()
        return Tracer(spans, keep_samples=keep)


class Campaign(Workload):
    """The §5.3 study campaign through ``TestRunner.run`` on a durable DocDB.

    The client is opened with ``fsync="never"``: every WAL record is
    handed to the OS but never synced, so the numbers do not depend on
    the disk.
    """

    name = "campaign"
    timing_spans = ("suite.measure_path",)
    sample_span = "suite.measure_path"

    def __init__(
        self, seed: int, workdir: str, *, iterations: int = CAMPAIGN_ITERATIONS,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self.seed = seed
        self.workdir = workdir
        self.iterations = iterations
        #: A plan of injected faults (the smoke run's): what it breaks is
        #: counted as failed, not as a failed output check.
        self.faults = faults
        self.config = SuiteConfig(iterations=iterations, destination_ids=study_destination_ids())

    def run(self, tracer: Tracer) -> Rep:
        directory = tempfile.mkdtemp(prefix="campaign-", dir=self.workdir)
        client = None
        try:
            with tracer:
                start = time.perf_counter()
                host = ScionHost.scionlab(seed=self.seed)
                client = DocDBClient.open(directory, fsync="never")
                db = client[self.config.database]
                seed_servers(db)
                PathsCollector(host, db, self.config).collect()
                runner = TestRunner(host, db, self.config, faults=self.faults)
                measured = time.perf_counter()
                report = runner.run()
                end = time.perf_counter()
            paths = len(db[PATHS_COLLECTION])
            stats = db[STATS_COLLECTION].all_documents()
            attempted = paths * self.iterations
            # Paths measured in error or whose stats batch was lost.
            failed = attempted - report.stats_stored
            problems = stats_problems(stats)
            if paths != STUDY_PATHS:
                problems.append(f"{paths} paths collected, expected {STUDY_PATHS}")
            if len(stats) != report.stats_stored:
                problems.append(f"{len(stats)} stats documents, {report.stats_stored} reported stored")
            if failed and self.faults is None:
                problems.append(
                    f"{report.measurement_errors} measurement errors, {report.stats_lost} stats lost"
                )
            return Rep(
                wall_s=end - start,
                setup_s=measured - start,
                slices=cut(
                    tracer.starts("suite.measure_path"), tracer.samples("suite.measure_path"),
                    STUDY_PATHS, end,
                ),
                attempted=attempted,
                failed=failed,
                digest=collections_digest(db, [PATHS_COLLECTION, STATS_COLLECTION]),
                problems=problems,
                counters=public_counters(host, db),
            )
        finally:
            if client is not None:
                client.close()
            shutil.rmtree(directory, ignore_errors=True)


class Monitor(Workload):
    """The scripted outage scenario on Magdeburg with many monitored flows."""

    name = "monitor"
    timing_spans = ("monitor.after_round", "phase.monitor_rounds")
    sample_span = "monitor.after_round"
    #: A repetition has only 8 rounds, so the tail is p75 of the rounds
    #: the timings come from: the scripted failover and revocation rounds.
    #: Round ``i`` of every repetition is one kind of slice; the faster
    #: half of each leaves ten rounds beyond p75 in a 9-rep run.
    tail_q = 0.75

    def __init__(self, seed: int, *, flows: int = MONITOR_FLOWS) -> None:
        self.seed = seed
        self.flows = flows

    def run(self, tracer: Tracer) -> Rep:
        with tracer:
            start = time.perf_counter()
            scenario = run_outage_scenario(
                seed=self.seed, rounds=MONITOR_ROUNDS, extra_flows=self.flows - 1
            )
            end = time.perf_counter()
        rounds_s = tracer.stats["phase.monitor_rounds"].total_s
        round_times = tracer.samples("monitor.after_round")
        failovers = scenario.journal.failovers()
        forced = [d for d in failovers if "revocation" in d["cause"]]
        dead = scenario.monitor.tracker.counts_by_state().get("dead", 0)
        problems = []
        if len(failovers) < 2:
            problems.append(f"{len(failovers)} failovers, expected at least 2")
        if not forced or any(d["detection_to_recovery_s"] != 0.0 for d in forced):
            problems.append("revocation failover missing or not immediate")
        if dead:
            problems.append(f"{dead} flows end DEAD")
        if len(round_times) != MONITOR_ROUNDS:
            problems.append(f"{len(round_times)} monitor rounds, expected {MONITOR_ROUNDS}")
        checks = self.flows * MONITOR_ROUNDS
        db = scenario.world.db
        return Rep(
            wall_s=end - start,
            setup_s=end - start - rounds_s,
            # Rounds differ by script: round i is slice kind i.
            slices=[Slice(self.flows, t, [t], i) for i, t in enumerate(round_times)],
            attempted=checks,
            failed=dead * MONITOR_ROUNDS,
            digest=collections_digest(
                db, [FLOW_EVENTS_COLLECTION, STATS_COLLECTION], scenario.path_history
            ),
            problems=problems,
            counters=dict(
                public_counters(scenario.world.host, db),
                journal_events=len(db[FLOW_EVENTS_COLLECTION]),
            ),
        )


# -- intents -------------------------------------------------------------------

#: Distinct requests in the mix: more than the controller memo's 128
#: entries, so the tail of the mix misses it while the head hits.
DISTINCT_INTENTS = 400
#: Zipf exponent of request popularity: the top 16 ranks carry about
#: half of the traffic, so the hot head fits in the memo.
ZIPF_S = 1.1
#: Every REFUSE_EVERY-th rank is a request no stored path satisfies.
REFUSE_EVERY = 8
USERS = 64
METRICS = tuple(Metric)
#: Weighted blends for ``Metric.COMPOSITE`` intents.
BLENDS = (
    {"latency": 0.6, "loss": 0.4},
    {"bandwidth_down": 0.5, "jitter": 0.5},
    {"latency": 0.3, "bandwidth_up": 0.7},
)
EXCLUSION_KINDS = ("none", "country", "operator", "as", "isd", "country+as")
LIMIT_KINDS = (None, "latency", "loss", "bandwidth")


@dataclass(frozen=True)
class Intent:
    user: str
    request: UserRequest
    #: Stored paths the exclusions leave; empty means NoPathError is the answer.
    admissible: FrozenSet[str]


def _mean(values) -> Optional[float]:
    values = [v for v in values if v is not None]
    return sum(values) / len(values) if values else None


def zipf_counts(count: int, ranks: int) -> List[int]:
    """``count`` split over ``ranks`` in Zipf proportions, largest remainder first."""
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(ranks)]
    total = sum(weights)
    shares = [count * w / total for w in weights]
    counts = [int(x) for x in shares]
    by_remainder = sorted(range(ranks), key=lambda r: counts[r] - shares[r])
    for rank in by_remainder[: count - sum(counts)]:
        counts[rank] += 1
    return counts


def intent_mix(rng: random.Random, topology, db, count: int) -> List[Intent]:
    """``count`` intents over ``DISTINCT_INTENTS`` requests, Zipf-popular.

    What a request costs is fixed by its popularity rank, the same for
    every seed: rank ``r`` asks for destination ``r % 5``, optimises
    metric ``r // 5 % 6`` (any metric, once that one runs out of
    distinct requests for the destination) and, when ``r % REFUSE_EVERY`` is the last
    slot, excludes every stored path (NoPathError is its answer).  Each
    rank is submitted its Zipf share of ``count`` times.  The seed draws
    the exclusions, hard limits and blends, the users and the order.

    A request's answer is fixed when it is generated: NoPathError when
    its exclusions rule out every stored path, otherwise one of the
    paths left.  Requests whose answer would hinge on measurements
    (every path left is unmeasured) are not generated, and hard limits
    sit far from the best remaining path's value (twice its latency,
    ten points above its loss, half its bandwidth), so the refresh
    batches cannot move that path across them.
    """
    by_path: Dict[str, List[Dict[str, Any]]] = {}
    for doc in db[STATS_COLLECTION].all_documents():
        by_path.setdefault(doc["path_id"], []).append(doc)
    summary = {
        pid: {
            "latency": _mean(d["avg_latency_ms"] for d in docs),
            "loss": _mean(d["loss_pct"] for d in docs),
            "bw_down": _mean(d["bw_down_mtu_mbps"] for d in docs),
        }
        for pid, docs in by_path.items()
    }
    by_server: Dict[int, List[Dict[str, Any]]] = {}
    for doc in sorted(db[PATHS_COLLECTION].all_documents(), key=lambda d: d["_id"]):
        by_server.setdefault(doc["server_id"], []).append(doc)
    servers = sorted(by_server)
    pool: List[tuple] = []
    keys = set()
    for rank in range(DISTINCT_INTENTS):
        server = servers[rank % len(servers)]
        refuse = rank % REFUSE_EVERY == REFUSE_EVERY - 1
        docs = by_server[server]
        ases = sorted({a for d in docs for a in d["ases"]})
        for attempt in range(2000):
            # A destination with few paths runs out of distinct requests
            # for one metric; such a rank then takes any metric.
            metric = METRICS[rank // len(servers) % len(METRICS)] if attempt < 500 else rng.choice(METRICS)
            kind = rng.choice(EXCLUSION_KINDS)
            excl: Dict[str, List[Any]] = {}
            if "country" in kind:
                excl["exclude_countries"] = [rng.choice(sorted({topology.as_of(a).country.upper() for a in ases}))]
            if kind == "operator":
                excl["exclude_operators"] = [rng.choice(sorted({topology.as_of(a).operator for a in ases}))]
            if kind in ("as", "country+as"):
                excl["exclude_ases"] = [rng.choice(ases)]
            if kind == "isd":
                excl["exclude_isds"] = [rng.choice(sorted({i for d in docs for i in d["isds"]}))]
            admissible = [d for d in docs if _avoids(topology, d, excl)]
            measured = [summary[d["_id"]] for d in admissible if summary.get(d["_id"], {}).get("latency") is not None]
            if refuse == bool(admissible) or (admissible and not measured):
                continue
            limits: Dict[str, float] = {}
            limit = rng.choice(LIMIT_KINDS) if measured else None
            if limit == "latency":
                limits["max_latency_ms"] = 2.0 * min(s["latency"] for s in measured)
            elif limit == "loss":
                limits["max_loss_pct"] = min(s["loss"] for s in measured) + 10.0
            elif limit == "bandwidth" and max(s["bw_down"] or 0.0 for s in measured) > 0:
                limits["min_bandwidth_down_mbps"] = 0.5 * max(s["bw_down"] or 0.0 for s in measured)
            weights = rng.choice(BLENDS) if metric is Metric.COMPOSITE else None
            key = json.dumps([server, metric.value, weights, excl, limits], sort_keys=True)
            if key in keys:
                continue
            keys.add(key)
            request = UserRequest.make(server, metric, weights=weights, **excl, **limits)
            pool.append((request, frozenset(d["_id"] for d in admissible)))
            break
        else:
            raise RuntimeError(f"no distinct request for rank {rank} (refused: {refuse})")
    picks = [rank for rank, n in enumerate(zipf_counts(count, len(pool))) for _ in range(n)]
    rng.shuffle(picks)
    return [Intent(f"user-{rng.randrange(USERS):02d}", *pool[i]) for i in picks]


def _avoids(topology, doc: Dict[str, Any], excl: Dict[str, List[Any]]) -> bool:
    countries = set(excl.get("exclude_countries", ()))
    operators = set(excl.get("exclude_operators", ()))
    ases = set(excl.get("exclude_ases", ()))
    for ia in doc["ases"]:
        asys = topology.as_of(ia)
        if asys.country.upper() in countries or asys.operator in operators or ia in ases:
            return False
    return not set(doc["isds"]) & set(excl.get("exclude_isds", ()))


def outcome_problem(intent: Intent, outcome: Any) -> Optional[str]:
    """Why ``outcome`` is not the answer ``intent`` expects (None: it is)."""
    if not intent.admissible:
        return None if isinstance(outcome, NoPathError) else "expected NoPathError"
    if not isinstance(outcome, IntentOutcome):
        return f"unexpected refusal: {outcome}"
    if outcome.rule.path_id not in intent.admissible:
        return f"path {outcome.rule.path_id} breaks the exclusions"
    if outcome.verification.verdict not in (Verdict.SATISFIED, Verdict.UNVERIFIABLE):
        return f"verification {outcome.verification.verdict.value}"
    return None


class Intents(Workload):
    """One closed-loop UPIN client submitting a seeded intent mix."""

    name = "intents"

    def __init__(self, seed: int, *, count: int = INTENTS) -> None:
        self.seed = seed
        self.count = count

    def run(self, tracer: Tracer) -> Rep:
        config = SuiteConfig(destination_ids=study_destination_ids())
        with tracer:
            start = time.perf_counter()
            world = build_world(seed=self.seed, config=config)
            host, db = world.host, world.db
            PathsCollector(host, db, config).collect()
            runner = TestRunner(host, db, config)
            runner.run(iterations=WARMUP_ITERATIONS)
            frontend = Frontend(host, db)
            mix = intent_mix(random.Random(self.seed), host.topology, db, self.count)
            measured = time.perf_counter()
            outcomes: List[Any] = []
            latencies: List[float] = []
            starts: List[float] = []
            for i, intent in enumerate(mix):
                starts.append(time.perf_counter())
                if i and i % REFRESH_EVERY == 0:
                    runner.run(iterations=1)  # new batches land beside the reads
                began = time.perf_counter()
                try:
                    outcome: Any = frontend.submit_intent(intent.user, intent.request)
                except NoPathError as exc:
                    outcome = exc
                latencies.append(time.perf_counter() - began)
                outcomes.append(outcome)
            end = time.perf_counter()
        wrong = [p for p in (outcome_problem(i, o) for i, o in zip(mix, outcomes)) if p]
        answers = [o.rule.path_id if isinstance(o, IntentOutcome) else "refused" for o in outcomes]
        problems = [f"{len(wrong)} intents answered unexpectedly, first: {wrong[0]}"] if wrong else []
        return Rep(
            wall_s=end - start,
            setup_s=measured - start,
            slices=cut(starts, latencies, REFRESH_EVERY, end),
            attempted=len(mix),
            failed=len(wrong),
            digest=collections_digest(db, [TRACES_COLLECTION, STATS_COLLECTION], answers),
            problems=problems,
            counters=public_counters(host, db),
        )


def make(name: str, seed: int, workdir: str) -> Workload:
    if name == "campaign":
        return Campaign(seed, workdir)
    if name == "monitor":
        return Monitor(seed)
    return Intents(seed)

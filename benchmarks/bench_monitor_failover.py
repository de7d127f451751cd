"""Bench of the flow health monitor's failover path.

Two questions the monitor must answer cheaply:

* **detection→recovery latency** — once probes start breaching, how
  much simulated time passes before the flow is on a healthy path
  again?  The scripted outage scenario journals it per failover.
* **per-round overhead** — the monitor rides every scheduler round;
  its wall-clock cost must scale gracefully with the number of
  monitored flows.  Measured at 10/100/1000/10000 flows via the
  scenario's ``extra_flows`` knob.

Two tables come out.  ``benchmarks/output/monitor_failover.txt`` holds
simulation figures only (the scripted failovers, and the failover and
journal counts at each scale), so any change to it is drift;
``benchmarks/output/monitor_failover_overhead.txt`` holds the
wall-clock overhead, which varies from run to run.
"""

from __future__ import annotations

import time

from benchmarks.conftest import BENCH_SEED, write_figure
from repro.monitor.scenario import run_outage_scenario

ROUNDS = 8
FLOW_COUNTS = (10, 100, 1000, 10000)


def _run_scaled(extra_flows: int):
    start = time.perf_counter()
    scenario = run_outage_scenario(
        seed=BENCH_SEED, rounds=ROUNDS, extra_flows=extra_flows
    )
    wall_s = time.perf_counter() - start
    return scenario, wall_s


def test_monitor_failover(benchmark):
    scenario = benchmark.pedantic(
        lambda: run_outage_scenario(seed=BENCH_SEED, rounds=ROUNDS),
        rounds=1,
        iterations=1,
    )

    failovers = scenario.journal.failovers()
    assert len(failovers) >= 2, "scripted outage must fail over twice"
    ttrs = [
        doc["detection_to_recovery_s"]
        for doc in failovers
        if doc.get("detection_to_recovery_s") is not None
    ]
    assert ttrs and all(t >= 0.0 for t in ttrs)
    # Hysteresis bounds detection: K-of-N over periodic probes means
    # congestion-triggered repair stays within a couple of rounds.
    assert max(ttrs) <= 2 * scenario.scheduler.period_s
    # Revocations bypass hysteresis and cooldown: repair is immediate.
    forced = [d for d in failovers if "revocation" in d["cause"]]
    assert forced and all(
        d["detection_to_recovery_s"] == 0.0 for d in forced
    )
    # The flow ends the episode healthy.
    assert scenario.monitor.tracker.counts_by_state().get("ok", 0) >= 1

    # -- scaling -------------------------------------------------------------
    header = [
        f"(seed {BENCH_SEED}, {ROUNDS} rounds, period "
        f"{scenario.scheduler.period_s:.0f} sim s)",
        "",
    ]
    lines = ["flow health monitor: failover latency and scaling"] + header
    lines.append("scripted outage (1 monitored flow):")
    for doc in failovers:
        ttr = doc.get("detection_to_recovery_s")
        ttr_txt = f"{ttr:.2f}" if ttr is not None else "n/a"
        lines.append(
            f"  @{doc['t_s']:7.1f}s {doc['old_path_id']} -> "
            f"{doc['new_path_id']:12s} detection->recovery {ttr_txt:>7s} sim s"
            f"  ({doc['cause']})"
        )
    lines += [
        "",
        "failovers and journal size vs monitored flow count:",
        f"  {'flows':>6s} {'failovers':>9s} {'journal docs':>12s}",
    ]
    overhead = ["flow health monitor: per-round overhead"] + header + [
        "per-round monitor overhead vs monitored flow count:",
        f"  {'flows':>6s} {'wall total':>11s} {'wall/round':>11s}",
    ]

    for count in FLOW_COUNTS:
        scaled, wall_s = _run_scaled(extra_flows=count - 1)
        n_fail = len(scaled.journal.failovers())
        n_docs = len(scaled.journal.events())
        lines.append(f"  {count:6d} {n_fail:9d} {n_docs:12d}")
        overhead.append(
            f"  {count:6d} {wall_s:10.2f}s {wall_s / ROUNDS * 1000:9.1f}ms"
        )
        # Every scale keeps the scripted episode's qualitative shape.
        assert n_fail >= 1
        assert scaled.monitor.tracker.counts_by_state().get("dead", 0) == 0

    write_figure("monitor_failover.txt", "\n".join(lines))
    write_figure("monitor_failover_overhead.txt", "\n".join(overhead))

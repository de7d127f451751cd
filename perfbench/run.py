"""Benchmark of the study campaign, the flow monitor and UPIN intents.

Run from the repository root::

    python3 perfbench/run.py --workload campaign --seed 20231112 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Workloads: ``campaign``, ``monitor``, ``intents`` (see ``workloads.py``).
The default seed is 20231112; 7 is the held-out seed.  The run repeats
the workload (set-up plus measured phase) until ``--seconds`` are
spent, at least three times and until the tail percentile has ten
samples beyond it, and checks every repetition's outputs.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced repetitions and reports per-layer metrics.  Every line but the
last is a human-readable report; the last line is one JSON object.  A
failed output check exits with code 1 before that line.

``--smoke`` runs every workload once at reduced size, untraced and
traced, checks that every metric ``BENCHMARK.json`` names is reported
with its unit, and runs a campaign with injected data loss that must
report failures.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 20231112
MIN_REPS = 3
#: Samples the reported tail percentile must have beyond it.
TAIL_SAMPLES = 10

#: Each workload's own names for the generic metrics.
NAMES = {
    "campaign": ("paths_per_s", "path_p50_ms", "path_p99_ms"),
    "monitor": ("flow_checks_per_s", "round_p50_ms", "round_p75_ms"),
    "intents": ("per_s", "latency_p50_ms", "latency_p99_ms"),
}


def load_program() -> None:
    """Import the program from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {src}")
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


def measure(workload, seconds: float, traced: bool, *, min_reps: int = MIN_REPS,
            tail_samples: int = TAIL_SAMPLES):
    """Repeat the workload until ``seconds`` are spent; (plain, traced) reps."""
    plain, traced_reps, durations = [], [], []
    start = time.perf_counter()
    while True:
        trace_this = traced and len(traced_reps) < len(plain)
        gc.collect()
        began = time.perf_counter()
        tracer = workload.tracer(trace_this)
        rep = workload.run(tracer)
        (traced_reps if trace_this else plain).append((rep, tracer))
        durations.append(time.perf_counter() - began)
        samples = sum(len(s.latencies_s) for s in fastest([r for r, _ in plain]))
        done = (
            len(plain) + len(traced_reps) >= min_reps
            and samples * (1 - workload.tail_q) >= tail_samples
            and (traced_reps or not traced)
        )
        if done and time.perf_counter() - start + statistics.median(durations) > seconds:
            return plain, traced_reps


def fastest(reps) -> list:
    """The faster half of each kind of slice, by throughput.

    On a shared host, other tenants slow the program by up to 2x for
    seconds at a time.  The faster slices show the program's own speed,
    which repeats from run to run better than the whole run does; taking
    half, not fewer, keeps a rare fast burst from setting the figure.
    """
    kinds = {}
    for s in (s for r in reps for s in r.slices):
        kinds.setdefault(s.kind, []).append(s)
    picked = []
    for slices in kinds.values():
        slices.sort(key=lambda s: s.ops / s.wall_s, reverse=True)
        picked += slices[: math.ceil(len(slices) / 2)]
    return picked


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def end_to_end(workload, plain) -> dict:
    reps = [r for r, _ in plain]
    fast = fastest(reps)
    lat = [x for s in fast for x in s.latencies_s]
    tail = statistics.quantiles(lat, n=100, method="inclusive")[round(workload.tail_q * 100) - 1]
    return {
        "ops_per_s": metric(sum(s.ops for s in fast) / sum(s.wall_s for s in fast), "1/s"),
        "latency_p50_ms": metric(statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": metric(tail * 1e3, "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        # Every repetition sets up anew.
        "setup_s": metric(statistics.median(r.setup_s for r in reps), "s"),
    }


def layer_ratios(rep, tracer) -> dict:
    """Ratios with their bases; a ratio whose counter or span is gone is None."""
    c = rep.counters

    def ratio(part, whole):
        return None if part is None or whole is None else share(part, whole)

    def total(*keys):
        return None if any(c.get(k) is None for k in keys) else sum(c[k] for k in keys)

    def calls(span):
        return tracer.calls(span) if span in tracer.installed else None

    cached, selects = calls("upin.cached_select"), calls("selection.select")
    memo_hits = None if cached is None or selects is None else cached - selects
    return {
        "upin.memo_hit_ratio": (ratio(memo_hits, cached), "ratio"),
        "docdb.cache_hit_ratio": (ratio(c.get("cache_hits"), total("cache_hits", "cache_misses")), "ratio"),
        "docdb.cache_lookups": (total("cache_hits", "cache_misses"), "count"),
        "scion.daemon_hit_ratio": (ratio(c.get("daemon_hits"), c.get("daemon_lookups")), "ratio"),
        "scion.daemon_lookups": (c.get("daemon_lookups"), "count"),
        "netsim.sampler_hit_ratio": (ratio(c.get("sampler_hits"), total("sampler_hits", "sampler_misses")), "ratio"),
        "netsim.sampler_lookups": (total("sampler_hits", "sampler_misses"), "count"),
        "scion.echo_series.per_distinct_path": (
            ratio(calls("scion.echo_series"), len(tracer.echo_pairs)), "ratio"
        ),
        "scion.echo_series.distinct_pairs": (len(tracer.echo_pairs), "count"),
    }


def per_layer(plain, traced) -> dict:
    from perfbench.tracer import SPAN_NAMES

    med = statistics.median
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = metric(med(t.calls(name) for _, t in traced), "count")
        out[f"{name}.self_pct"] = metric(
            med(100.0 * t.stats[name].self_s / r.wall_s for r, t in traced), "%"
        )
    ratios = [layer_ratios(r, t) for r, t in traced]
    for key, (_, unit) in ratios[0].items():
        values = [x[key][0] for x in ratios]
        if None in values:
            print(f"  {key}: absent, its counter or span is gone")
            continue
        out[key] = metric(med(values), unit)
    traced_wall = med(r.wall_s for r, _ in traced)
    # The first repetition also pays the process's one-time warm-up.
    warm = plain[1:] or plain
    out["trace.wall_s"] = metric(traced_wall, "s")
    out["trace.overhead_ratio"] = metric(traced_wall / med(r.wall_s for r, _ in warm), "ratio")
    return out


def cost_shape(name: str, traced) -> list:
    """The predicted cost shape of each workload, from the first traced repetition."""
    rep, t = traced[0]
    s = t.stats
    if name == "campaign":
        data_plane = sum(s[k].self_s for k in ("netsim.probe_batch", "netsim.fluid_transfer", "apps.bwtest"))
        return [f"probe_batch + fluid_transfer + bwtest self time = "
                f"{share(data_plane, s['suite.measure_path'].total_s):.1%} of measure_path (predicted >= 70%)"]
    if name == "monitor":
        return [f"echo_series = {share(s['scion.echo_series'].total_s, s['monitor.after_round'].total_s):.1%} "
                f"of after_round (predicted >= 50%)",
                f"docdb.insert_one calls {s['docdb.insert_one'].calls}, "
                f"journal events {rep.counters.get('journal_events')} (predicted equal)"]
    return [f"selection.select calls {s['selection.select'].calls}, upin.cached_select calls "
            f"{s['upin.cached_select'].calls} (predicted well below)"]


def report(name: str, workload, plain, traced, traced_mode: bool) -> dict:
    """Print the human-readable report; return the JSON result (None: a check failed)."""
    reps = [r for r, _ in plain + traced]
    problems = [p for r in reps for p in r.problems]
    if len({r.digest for r in reps}) != 1:
        problems.append("repetitions with the same seed stored different outputs")
    if problems:
        print(f"perfbench: {name}: output check failed: " + "; ".join(problems), file=sys.stderr)
        return None
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    slices = [s for r, _ in plain for s in r.slices]
    fast = fastest([r for r, _ in plain])
    print(f"workload {name}: {len(plain)} untraced and {len(traced)} traced repetitions, "
          f"outputs sha256 {reps[0].digest}")
    print(f"  timings from the faster {len(fast)} of {len(slices)} slices, "
          f"{sum(len(s.latencies_s) for s in fast)} latency samples")
    print(f"  failed_share {share(failed, attempted)} ({failed} of {attempted})")
    if traced_mode:
        metrics = per_layer(plain, traced)
        for line in cost_shape(name, traced):
            print(f"  {line}")
    else:
        metrics = end_to_end(workload, plain)
        generic = ("ops_per_s", "latency_p50_ms", "latency_tail_ms")
        for key, alias in zip(generic, NAMES[name]):
            m = metrics[key]
            print(f"  {name}.{alias} = {m['value']:.6g} {m['unit']}  ({key})")
    for key, m in metrics.items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    return {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}


def smoke(seed: int) -> int:
    """Every workload at reduced size: metrics complete, failures counted."""
    from perfbench import workloads
    from repro.suite.faults import DataLossFault, FaultPlan

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    bad = []
    with tempfile.TemporaryDirectory(prefix=".perfbench_work-", dir=ROOT) as workdir:
        small = {
            "campaign": workloads.Campaign(seed, workdir, iterations=2),
            "monitor": workloads.Monitor(seed, flows=50),
            "intents": workloads.Intents(seed, count=300),
        }
        for name, workload in small.items():
            for traced_mode in (0, 1):
                plain, traced = measure(workload, 0.0, bool(traced_mode), min_reps=1, tail_samples=0)
                result = report(name, workload, plain, traced, bool(traced_mode))
                if result is None:
                    bad.append(f"{name} --trace {traced_mode}: output check failed")
                    continue
                got = {k: m["unit"] for k, m in result["metrics"].items()}
                bad += [f"{name} --trace {traced_mode}: {k} missing or not in {u}"
                        for k, u in wanted[traced_mode].items() if got.get(k) != u]
        plan = FaultPlan(data_loss=DataLossFault(probability=0.5, seed=seed))
        lossy = workloads.Campaign(seed, workdir, iterations=2, faults=plan)
        rep = lossy.run(lossy.tracer(False))
        print(f"campaign with injected data loss: failed {rep.failed} of {rep.attempted}, "
              f"{plan.injected_losses} batches lost")
        if rep.problems or not rep.failed:
            bad.append(f"injected data loss: failed {rep.failed}, problems {rep.problems}")
    for line in bad:
        print(f"perfbench: smoke: {line}", file=sys.stderr)
    print("smoke: " + ("FAILED" if bad else "ok"))
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=sorted(NAMES))
    mode.add_argument("--smoke", action="store_true", help="reduced-size self-test")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    if args.smoke:
        return smoke(args.seed)
    from perfbench import workloads

    with tempfile.TemporaryDirectory(prefix=".perfbench_work-", dir=ROOT) as workdir:
        workload = workloads.make(args.workload, args.seed, workdir)
        plain, traced = measure(workload, args.seconds, bool(args.trace))
    print(f"seed {args.seed}")
    result = report(args.workload, workload, plain, traced, bool(args.trace))
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run every figure experiment and render the paper-vs-measured record.

``python -m repro.experiments.runner`` regenerates Figures 4-9 and
prints (or writes) the comparison that EXPERIMENTS.md records.  The
report holds simulation figures only, so a fixed seed and iteration
count reproduce it byte for byte; the wall time goes to stdout.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, List, Optional, Tuple

from repro.experiments import fig4, fig5, fig6, fig7, fig8, fig9
from repro.experiments.world import DEFAULT_SEED, run_campaign


def run_all(
    *,
    iterations: int = 10,
    seed: int = DEFAULT_SEED,
    export_dir: Optional[str] = None,
) -> str:
    """Run figs 4-9; returns the combined text report.

    ``export_dir`` additionally writes each figure's data series as CSV
    (via :mod:`repro.analysis.export`) for external plotting.
    """
    sections: List[str] = []

    def section(name: str, body: str) -> None:
        sections.append(f"{'=' * 72}\n{name}\n{'=' * 72}\n{body}")

    r4 = fig4.run(seed=seed)
    section("Figure 4", r4.format_text())

    # Figures 5 and 6 share one Ireland campaign.
    ireland = run_campaign([fig5.IRELAND_SERVER_ID], iterations=iterations, seed=seed)
    r5 = fig5.run(world=ireland)
    r6 = fig6.run(world=ireland)
    section("Figure 5", r5.format_text())
    section("Figure 6", r6.format_text())

    r7 = fig7.run(iterations=iterations, seed=seed)
    r8 = fig8.run(iterations=iterations, seed=seed)
    r9 = fig9.run(iterations=iterations, seed=seed)
    section("Figure 7", r7.format_text())
    section("Figure 8", r8.format_text())
    section("Figure 9", r9.format_text())

    if export_dir is not None:
        _export_all(export_dir, r4, r5, r6, r7, r8, r9)

    sections.append(f"iterations={iterations}, seed={seed}")
    return "\n\n".join(sections)


def _export_all(export_dir: str, r4, r5, r6, r7, r8, r9) -> None:
    import os

    from repro.analysis.export import (
        bandwidth_records,
        isd_group_records,
        latency_records,
        loss_records,
        reachability_records,
        write_csv,
    )

    os.makedirs(export_dir, exist_ok=True)

    def path(name: str) -> str:
        return os.path.join(export_dir, name)

    write_csv(path("fig4.csv"), reachability_records(r4.reachability))
    write_csv(path("fig5.csv"), latency_records(r5.series))
    write_csv(path("fig6_all.csv"), isd_group_records(r6.all_groups))
    write_csv(path("fig6_filtered.csv"), isd_group_records(r6.filtered_groups))
    write_csv(path("fig7.csv"), bandwidth_records(r7.series))
    write_csv(path("fig8.csv"), bandwidth_records(r8.series))
    write_csv(path("fig9.csv"), loss_records(r9.series))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments", description="Regenerate Figures 4-9"
    )
    parser.add_argument("--iterations", type=int, default=10)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--output", default=None, help="write the report to a file")
    parser.add_argument(
        "--export-dir", default=None,
        help="also write per-figure CSV series into this directory",
    )
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    report = run_all(
        iterations=args.iterations, seed=args.seed, export_dir=args.export_dir
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(report + "\n")
        print(f"report written to {args.output}")
    else:
        print(report)
    if args.export_dir:
        print(f"CSV series exported under {args.export_dir}")
    print(f"total wall time: {time.perf_counter() - t0:.1f}s")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

#!/usr/bin/env python
"""Quickstart: explore the simulated SCIONLab testbed in five minutes.

Mirrors the paper's §3 workflow: check your SCION address, list paths
to a destination (with the extended details the test-suite relies on),
ping over a specific path, and run a bandwidth test — all against the
deterministic in-process SCIONLab world.

Run:  python examples/quickstart.py
"""

from repro import ScionHost
from repro.apps import AddressApp, BwtestApp, PingApp, ShowpathsApp, TracerouteApp

IRELAND = "16-ffaa:0:1002"
IRELAND_ADDR = "16-ffaa:0:1002,[172.31.43.7]"
MAGDEBURG_ADDR = "19-ffaa:0:1303,[141.44.25.144]"


def main() -> None:
    # The canonical world: MY_AS attached at ETHZ-AP (§3.2).
    host = ScionHost.scionlab()

    print("== scion address ==")
    print(AddressApp(host).run().format_text())

    print("\n== scion showpaths --extended (first 5 paths to AWS Ireland) ==")
    showpaths = ShowpathsApp(host).run(IRELAND, max_paths=5, extended=True, probe=True)
    print(showpaths.format_text(extended=True))

    print("\n== scion ping -c 10 over the 2nd-ranked path ==")
    second_path = showpaths.paths()[1]
    report = PingApp(host).run(
        IRELAND_ADDR, count=10, interval="0.1s", sequence=second_path.sequence()
    )
    print(report.format_text())

    print("\n== scion traceroute (per-link latency breakdown) ==")
    trace = TracerouteApp(host).run(IRELAND_ADDR)
    print(trace.format_text())

    print("\n== scion-bwtestclient -cs 3,64,?,12Mbps vs 3,MTU,?,12Mbps ==")
    for spec in ("3,64,?,12Mbps", "3,MTU,?,12Mbps"):
        result = BwtestApp(host).run(MAGDEBURG_ADDR, cs=spec)
        print(f"--- {spec} ---")
        print(result.format_text())

    print("\nDone. Everything above is deterministic: rerun and compare.")


if __name__ == "__main__":
    main()

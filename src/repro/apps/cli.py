"""The ``scion-sim`` command-line multiplexer.

Mirrors the ``scion`` CLI surface used in the paper against the
simulated SCIONLab world::

    scion-sim address
    scion-sim showpaths 16-ffaa:0:1002 --extended -m 40
    scion-sim ping '16-ffaa:0:1002,[172.31.43.7]' -c 30 --interval 0.1s
    scion-sim traceroute '16-ffaa:0:1002,[172.31.43.7]'
    scion-sim bwtest -s '19-ffaa:0:1303,[141.44.25.144]' -cs 3,64,?,12Mbps
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.apps.address import AddressApp
from repro.apps.bwtester import BwtestApp
from repro.apps.ping import PingApp
from repro.apps.showpaths import ShowpathsApp
from repro.apps.traceroute import TracerouteApp
from repro.errors import ReproError
from repro.scion.snet import ScionHost


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scion-sim",
        description="SCION applications over the simulated SCIONLab testbed",
    )
    parser.add_argument(
        "--seed", type=int, default=20231112, help="world seed (deterministic runs)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("address", help="show the local SCION address")

    sp = sub.add_parser("showpaths", help="list available paths to an AS")
    sp.add_argument("destination", help="destination ISD-AS, e.g. 16-ffaa:0:1002")
    sp.add_argument("-m", "--max-paths", type=int, default=10)
    sp.add_argument("--extended", action="store_true")
    sp.add_argument("--probe", action="store_true", help="probe path status")
    sp.add_argument("--format", choices=["text", "json"], default="text")

    pg = sub.add_parser("ping", help="SCMP echo to a remote host")
    pg.add_argument("address", help='host address, e.g. "16-ffaa:0:1002,[172.31.43.7]"')
    pg.add_argument("-c", "--count", type=int, default=30)
    pg.add_argument("--interval", default="0.1s")
    pg.add_argument("--sequence", default=None)
    pg.add_argument(
        "--interactive",
        action="store_true",
        help="list all paths and read the chosen index from stdin (§3.3)",
    )

    tr = sub.add_parser("traceroute", help="SCMP traceroute to a remote host")
    tr.add_argument("address")
    tr.add_argument("--sequence", default=None)

    bw = sub.add_parser("bwtest", help="bandwidth test against a server")
    bw.add_argument("-s", "--server", required=True)
    bw.add_argument("-cs", dest="cs", default="3,1000,30,?")
    bw.add_argument("-sc", dest="sc", default=None)
    bw.add_argument("--sequence", default=None)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    host = ScionHost.scionlab(seed=args.seed)
    try:
        output = _dispatch(host, args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(output)
    return 0


def _dispatch(host: ScionHost, args: argparse.Namespace) -> str:
    if args.command == "address":
        return AddressApp(host).run().format_text()
    if args.command == "showpaths":
        result = ShowpathsApp(host).run(
            args.destination,
            max_paths=args.max_paths,
            extended=args.extended,
            probe=args.probe,
        )
        if args.format == "json":
            return result.format_json()
        return result.format_text(extended=args.extended)
    if args.command == "ping":
        interactive = _stdin_path_chooser if args.interactive else None
        report = PingApp(host).run(
            args.address,
            count=args.count,
            interval=args.interval,
            sequence=args.sequence,
            interactive=interactive,
        )
        return report.format_text()
    if args.command == "traceroute":
        return TracerouteApp(host).run(args.address, sequence=args.sequence).format_text()
    if args.command == "bwtest":
        return BwtestApp(host).run(
            args.server, cs=args.cs, sc=args.sc, sequence=args.sequence
        ).format_text()
    raise ReproError(f"unknown command {args.command!r}")  # pragma: no cover


def _stdin_path_chooser(paths) -> int:
    """The ``--interactive`` mode: print the menu, read an index.

    "the real innovation is the --interactive mode option, which
    displays all the available paths for the specified destination
    allowing the user to select the desired traffic route." (§3.3)
    """
    print("Available paths:")
    for i, path in enumerate(paths):
        print(f"  [{i:2d}] {path.hops_display()}")
    raw = input(f"Choose path (0-{len(paths) - 1}): ").strip()
    try:
        return int(raw)
    except ValueError:
        raise ReproError(f"not a path index: {raw!r}") from None


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

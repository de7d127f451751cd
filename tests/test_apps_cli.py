"""Tests for the scion-sim CLI multiplexer (repro.apps.cli)."""

import pytest

from repro.apps.cli import build_parser, main
from repro.scion.snet import ScionHost

IRELAND = "16-ffaa:0:1002,[172.31.43.7]"


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_showpaths_flags(self):
        args = build_parser().parse_args(
            ["showpaths", "16-ffaa:0:1002", "-m", "40", "--extended"]
        )
        assert args.max_paths == 40 and args.extended

    def test_ping_flags(self):
        args = build_parser().parse_args(
            ["ping", "16-ffaa:0:1002,[172.31.43.7]", "-c", "30", "--interval", "0.1s"]
        )
        assert args.count == 30 and args.interval == "0.1s"

    def test_bwtest_flags(self):
        args = build_parser().parse_args(
            ["bwtest", "-s", "x", "-cs", "3,64,?,12Mbps"]
        )
        assert args.cs == "3,64,?,12Mbps"


class TestMain:
    def test_address(self, capsys):
        assert main(["address"]) == 0
        assert "17-ffaa:1:e01" in capsys.readouterr().out

    def test_showpaths(self, capsys):
        assert main(["showpaths", "19-ffaa:0:1303", "-m", "3", "--extended"]) == 0
        out = capsys.readouterr().out
        assert "Available paths to 19-ffaa:0:1303" in out
        assert "MTU:" in out

    def test_ping(self, capsys):
        assert main(["ping", "19-ffaa:0:1303,[141.44.25.144]", "-c", "3"]) == 0
        assert "packets transmitted" in capsys.readouterr().out

    def test_traceroute(self, capsys):
        assert main(["traceroute", "19-ffaa:0:1303,[141.44.25.144]"]) == 0
        assert "traceroute to" in capsys.readouterr().out

    def test_bwtest(self, capsys):
        assert (
            main(
                ["bwtest", "-s", "19-ffaa:0:1303,[141.44.25.144]",
                 "-cs", "1,64,?,5Mbps"]
            )
            == 0
        )
        assert "Achieved bandwidth" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [["ping", IRELAND, "-c", "3"], ["traceroute", IRELAND], ["bwtest", "-s", IRELAND]],
        ids=["ping", "traceroute", "bwtest"],
    )
    def test_sequence_pins_a_path_ranked_past_ten(self, capsys, argv):
        # The suite collects up to 40 paths per destination, so every
        # command must pin one ranked below the showpaths default of 10.
        path = ScionHost.scionlab().paths("16-ffaa:0:1002", max_paths=None)[20]
        assert main(argv + ["--sequence", path.sequence()]) == 0
        assert f"via {path.hops_display()}" in capsys.readouterr().out

    def test_error_path_returns_1(self, capsys):
        assert main(["showpaths", "99-ffaa:0:9999"]) == 1
        assert "error:" in capsys.readouterr().err

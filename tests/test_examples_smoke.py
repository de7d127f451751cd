"""Smoke tests: every example script must run end to end.

Examples are documentation that executes; these tests keep them from
rotting.  Each runs in-process via runpy with stdout captured.
"""

import runpy
import sys

import pytest

from repro.docdb.client import DocDBClient

EXAMPLES = [
    ("quickstart.py", [], "Done. Everything above is deterministic"),
    ("attach_user_as.py", [], "certificate chain verifies"),
    ("sovereignty_routing.py", [], "Recommendation menu"),
    ("upin_frontend_demo.py", [], "Installed flows"),
    ("fault_injection.py", [], "campaign completed despite everything"),
    ("measurement_campaign.py", ["2"], "campaign:"),
    ("continuous_monitoring.py", [], "retention: pruned"),
]


@pytest.mark.parametrize("script,argv,expected", EXAMPLES,
                         ids=[e[0] for e in EXAMPLES])
def test_example_runs(script, argv, expected, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", [script] + argv)
    runpy.run_path(f"examples/{script}", run_name="__main__")
    out = capsys.readouterr().out
    assert expected.lower() in out.lower()


def test_measurement_campaign_persists_and_reopens(tmp_path, capsys, monkeypatch):
    db_dir = str(tmp_path / "db")
    monkeypatch.setattr(sys, "argv", ["measurement_campaign.py", "1", db_dir])
    runpy.run_path("examples/measurement_campaign.py", run_name="__main__")
    out = capsys.readouterr().out
    assert f"database persisted under {db_dir}" in out
    stored = int(out.split("campaign: ", 1)[1].split(" samples", 1)[0])
    assert stored > 0
    with DocDBClient.open(db_dir) as client:
        report = client.recovery_report
        assert report is not None and report.records_replayed == 0
        assert report.generation is not None
        db = client["upin"]
        assert db["paths_stats"].count_documents({}) == stored
        assert db["paths"].count_documents({}) > 0

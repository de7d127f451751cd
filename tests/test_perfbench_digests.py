"""The benchmark workloads' output digests, pinned at reduced size.

``perfbench/run.py`` checks that every repetition of a workload stores
the same sha256, but nothing else pins the value, so a change to the
simulation or to what the program stores would go unnoticed.  These
sizes are the ``--smoke`` run's.  A change that moves a digest on
purpose updates it here and says why.
"""

from __future__ import annotations

import pytest

from perfbench import workloads

DIGESTS = {
    (20231112, "campaign"): "af3d24328c5a34757f2529a88e2ea905ba520e6372aaecc7bae55764906a1beb",
    (20231112, "monitor"): "5c89a75b34a4819ab4b4fee6bcbcea890b35804cb181c3f5261e0de4064dd76f",
    (20231112, "intents"): "59f0c50f0eca9733a3eca5c6b053d8c7b82f4c8643b44d82fe863b30c5c688f6",
    (7, "campaign"): "af50778788c16bb56ba997f531cb75b9b255d855245a6ea4bad3c26e0a96da71",
    (7, "monitor"): "3a379639af15e2045b190f9a0b48dfa890a08f22ffdb32226f8dda9b8d4374fe",
    (7, "intents"): "0f9b8ed1feaa831373a13f15ac90f81a78798ad6fbe9028308222e7fabc00ee6",
}


def _smoke_workload(name: str, seed: int, workdir: str) -> workloads.Workload:
    if name == "campaign":
        return workloads.Campaign(seed, workdir, iterations=2)
    if name == "monitor":
        return workloads.Monitor(seed, flows=50)
    return workloads.Intents(seed, count=300)


@pytest.mark.parametrize("seed,name", sorted(DIGESTS))
def test_smoke_size_digest(seed, name, tmp_path):
    workload = _smoke_workload(name, seed, str(tmp_path))
    rep = workload.run(workload.tracer(False))
    assert rep.problems == []
    assert rep.failed == 0
    assert rep.digest == DIGESTS[(seed, name)]

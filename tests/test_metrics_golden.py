"""Golden ``--metrics`` output of the suite and frontend CLIs.

Pins every line the two CLIs print with ``--metrics`` — the campaign
block, the query-planner/query-cache block, the WAL block and the
monitor block — byte for byte.  Only the host's wall-clock figure
(``per destination: … wall ms``) and the temporary directory are
masked; every other number is a pure function of the seed.
"""

import re

from repro.suite.cli import main as suite_main
from repro.upin.cli import main as frontend_main

_WALL_MS = re.compile(r"(per destination: [0-9.]+ sim s, )[0-9.]+( wall ms)")


def _mask(text: str, db_dir: str = "") -> str:
    text = _WALL_MS.sub(r"\1<wall>\2", text)
    return text.replace(db_dir, "<db-dir>") if db_dir else text


VOLATILE_CAMPAIGN = """\
local address: 17-ffaa:1:e01,[127.0.0.1]  servers: 21
collected 190 paths over 21 destinations (0 stale deleted, 0 failures)
campaign: 380 stats stored, 380 path tests, 0 lost, 0 errors, 5700.0 simulated seconds
metrics:
  batches: 42 flushed (avg 9.0 docs, max 32)
  data plane: 380 batch series (11400 packets)
  data plane: sampler cache 0 hits / 8408 misses, 0 ledger flows pruned
  per destination: 135.7 sim s, <wall> wall ms (avg)
  query planner: 251 index hits, 4 collection scans, 401 docs examined
  query cache: 22 hits / 44 misses
"""

DURABLE_CAMPAIGN = """\
durable database: wal fsync=batch, recovered to lsn 0 (0 records replayed)
local address: 17-ffaa:1:e01,[127.0.0.1]  servers: 21
collected 22 paths over 1 destinations (0 stale deleted, 0 failures)
campaign: 22 stats stored, 22 path tests, 0 lost, 0 errors, 330.0 simulated seconds
metrics:
  batches: 1 flushed (avg 22.0 docs, max 22)
  data plane: 22 batch series (660 packets)
  data plane: sampler cache 0 hits / 512 misses, 0 ledger flows pruned
  per destination: 330.0 sim s, <wall> wall ms (avg)
  query planner: 43 index hits, 4 collection scans, 65 docs examined
  query cache: 1 hits / 4 misses
  wal: 47 appends (28843 bytes), 0 fsyncs, 0 rotations
  wal: lsn 47 (checkpoint 0, 0 checkpoints, 0 records replayed at open)
database checkpointed under <db-dir> (lsn 47, 1 WAL segment(s) compacted)
"""

MONITOR_STATUS = """\
monitored flows:
  alice/3          ok        path 3_0          lat    22.2ms loss   0.0%  samples 2 breaches 0
  totals: dead=0  degraded=0  ok=1  violated=0
flow alice->server 3:
  path journey: 3_0 -> 3_4 -> 3_0
  failover @540.0s: 3_0 -> 3_4 (loss 78.4% > 50%; detection->recovery 119.85 sim s)
  failover @900.1s: 3_4 -> 3_0 (revocation 17-ffaa:0:1107#2 (scripted maintenance); detection->recovery 0.00 sim s)
  final states: ok=1
monitor metrics:
  monitor: 21 probes, 2 breaches, 2 failovers (0 flaps suppressed), MTTR 59.9 sim s
"""


def test_volatile_campaign_metrics(capsys):
    assert suite_main(["2", "--metrics"]) == 0
    assert _mask(capsys.readouterr().out) == VOLATILE_CAMPAIGN


def test_durable_campaign_metrics(tmp_path, capsys):
    db_dir = str(tmp_path / "db")
    argv = ["1", "--some_only", "--metrics", "--db-dir", db_dir,
            "--durability", "batch"]
    assert suite_main(argv) == 0
    assert _mask(capsys.readouterr().out, db_dir) == DURABLE_CAMPAIGN


def test_monitor_status_metrics(capsys):
    assert frontend_main(["monitor", "status", "--metrics"]) == 0
    assert capsys.readouterr().out == MONITOR_STATUS

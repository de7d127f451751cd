"""Fault injection and tolerance plans (§4.1.2).

The paper names three failure families the suite must survive: *data
loss*, *server failure* (no answer) and *error messages* (bad answer).
:class:`FaultPlan` schedules all three against a campaign:

* :class:`ServerOutage` marks a destination DOWN or ERROR for a range
  of campaign iterations,
* :class:`DataLossFault` makes a fraction of batch flushes crash before
  the insert (exercising the §4.2.2 bounded-loss design),
* :class:`CrashPlan` kills the *storage writer itself* at a scheduled
  point in the write-ahead log — after the Nth append (``kill -9``
  mid-batch), mid-record (a torn write), or right after a segment
  rotation before any checkpoint.  ``tools/crash_fuzz.py`` drives
  seeded random crash plans in subprocesses and asserts that recovery
  restores exactly the committed prefix.

The data-loss draws come from one sequential stream seeded by
:attr:`DataLossFault.seed`.  The campaign flushes its batches in a fixed
order, so the set of lost batches is a pure function of the seed and
the campaign.  Like the suite that consults it, a plan is
single-threaded: its counters and loss stream take no lock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.errors import DataLossError, ValidationError
from repro.netsim.network import NetworkSim, ServerHealth
from repro.topology.isd_as import ISDAS


class SimulatedCrash(BaseException):
    """In-process stand-in for ``kill -9`` at a WAL crash point.

    Deliberately a :class:`BaseException`: production code catching
    ``Exception`` must not be able to "survive" a simulated machine
    crash.  Tests catch it explicitly, discard the in-memory client
    (the process's memory is considered lost) and recover from disk.
    """


@dataclass
class CrashPlan:
    """Kill the storage writer at a scheduled WAL crash point.

    Exactly one trigger is normally set:

    ``at_append``       crash right *after* the Nth record is fully on
                        the OS side of the file buffer (the record is
                        committed; everything after it is lost);
    ``torn_at_append``  crash *mid-write* of the Nth record, leaving
                        ``torn_fraction`` of its bytes on disk (the
                        record is torn; recovery rolls it back);
    ``at_rotation``     crash immediately after the Kth segment
                        rotation, before the triggering record is
                        written (exercises multi-segment recovery with
                        no checkpoint past the rotation).

    ``mode`` selects the crash mechanism: ``"raise"`` throws
    :class:`SimulatedCrash` (in-process tests), ``"exit"`` calls
    ``os._exit(exit_code)`` — a real no-cleanup process death for the
    subprocess crash-fuzz harness.  Append counting is 1-based and
    cumulative across the writer's lifetime (LSNs, effectively).

    Install with ``plan.install(client.wal)`` or by assigning
    ``wal.crash_hook = plan.wal_hook``.
    """

    at_append: Optional[int] = None
    torn_at_append: Optional[int] = None
    torn_fraction: float = 0.5
    at_rotation: Optional[int] = None
    mode: str = "raise"
    exit_code: int = 137  # what `kill -9` leaves in $?

    def __post_init__(self) -> None:
        if self.mode not in ("raise", "exit"):
            raise ValidationError(f"bad crash mode: {self.mode!r}")
        if not (0.0 <= self.torn_fraction < 1.0):
            raise ValidationError(
                f"torn_fraction must be in [0, 1): {self.torn_fraction}"
            )
        triggers = [self.at_append, self.torn_at_append, self.at_rotation]
        if all(t is None for t in triggers):
            raise ValidationError("CrashPlan needs at least one trigger")
        if any(t is not None and t < 1 for t in triggers):
            raise ValidationError("crash triggers are 1-based")
        self.appends_seen = 0
        self.rotations_seen = 0
        self.crashed = False

    # -- the WAL hook --------------------------------------------------------

    def install(self, wal: Any) -> "CrashPlan":
        """Attach this plan to a :class:`~repro.docdb.wal.WalWriter`."""
        wal.crash_hook = self.wal_hook
        return self

    def wal_hook(self, event: str, writer: Any, lsn: int, data: bytes) -> None:
        """``WalWriter.crash_hook`` entry point (see repro.docdb.wal)."""
        if event == "post_rotate":
            self.rotations_seen += 1
            if self.at_rotation is not None and self.rotations_seen == self.at_rotation:
                self._crash(f"crash after rotation #{self.rotations_seen}")
        elif event == "pre_append":
            if (
                self.torn_at_append is not None
                and self.appends_seen + 1 == self.torn_at_append
            ):
                # Write a strict prefix of the record, push it to the OS
                # (kill -9 does not lose OS-buffered bytes), then die.
                cut = max(1, int(len(data) * self.torn_fraction))
                cut = min(cut, len(data) - 1)
                writer._fh.write(data[:cut])
                writer._fh.flush()
                self._crash(
                    f"torn write at lsn {lsn}: {cut}/{len(data)} bytes"
                )
        elif event == "post_append":
            self.appends_seen += 1
            if self.at_append is not None and self.appends_seen == self.at_append:
                self._crash(f"kill -9 after append #{self.appends_seen} (lsn {lsn})")

    def _crash(self, reason: str) -> None:
        self.crashed = True
        if self.mode == "exit":
            import os

            os._exit(self.exit_code)
        raise SimulatedCrash(reason)


@dataclass(frozen=True)
class ServerOutage:
    """Destination ``server_id`` is unhealthy for iterations [start, end)."""

    server_id: int
    start_iteration: int
    end_iteration: int
    health: ServerHealth = ServerHealth.DOWN

    def __post_init__(self) -> None:
        if self.end_iteration <= self.start_iteration:
            raise ValidationError("outage must span at least one iteration")

    def active(self, iteration: int) -> bool:
        return self.start_iteration <= iteration < self.end_iteration


@dataclass(frozen=True)
class DataLossFault:
    """Each flush independently crashes with ``probability``."""

    probability: float
    seed: int = 13

    def __post_init__(self) -> None:
        if not (0.0 <= self.probability <= 1.0):
            raise ValidationError(f"bad probability: {self.probability}")


class FaultPlan:
    """A schedule of faults the runner consults during a campaign."""

    def __init__(
        self,
        outages: Sequence[ServerOutage] = (),
        data_loss: Optional[DataLossFault] = None,
    ) -> None:
        self.outages = list(outages)
        self.data_loss = data_loss
        self._rng = (
            np.random.default_rng(data_loss.seed) if data_loss is not None else None
        )
        self.injected_outages = 0
        self.injected_losses = 0

    # -- server health ------------------------------------------------------------

    def outage_health(self, iteration: int, server_id: int) -> Optional[ServerHealth]:
        """The scheduled health override, or None when the server is UP."""
        for outage in self.outages:
            if outage.server_id == server_id and outage.active(iteration):
                return outage.health
        return None

    def apply_server_health(
        self,
        network: NetworkSim,
        iteration: int,
        server_id: int,
        isd_as: str,
        ip: str,
    ) -> None:
        """Set the destination's health for this iteration."""
        health = self.outage_health(iteration, server_id)
        if health is not None:
            self.injected_outages += 1
        network.servers.set_health(
            ISDAS.parse(isd_as), ip, health if health is not None else ServerHealth.UP
        )

    # -- data loss -----------------------------------------------------------------

    def flush_hook(self, batch: List[Dict[str, Any]]) -> None:
        """Install as :attr:`StatsRepository.flush_hook`."""
        if self._rng is None or self.data_loss is None:
            return
        if float(self._rng.random()) < self.data_loss.probability:
            self.injected_losses += 1
            raise DataLossError(
                f"simulated crash before storing {len(batch)} documents"
            )

"""The data-plane engine: batched SCMP round trips in O(links) numpy ops.

The paper's test-suite is measurement-bound: every campaign iteration
runs ``scion ping -c 30 --interval 0.1s`` plus four bwtest transfers
over every retained path to 21 destinations (§3.3, §5.3), and UPIN's
Path Tracer runs a traceroute on every installed flow (§2.1).  Every
round-trip probe — echo series, traceroute, showpaths status — is
computed here, one numpy vector per link and direction:

* per-link static terms (propagation, serialization) are computed once;
* cross-traffic utilization is gathered through
  :meth:`~repro.netsim.procs.UtilizationProcess.values_at` (vectorized
  over the shared AR(1) grid cache, so every reader sees the exact same
  process values);
* per-link jitter is one ``normal(size=n)`` vector and the drop
  decision one vectorized Bernoulli per link/direction;
* cumulative delays propagate by running vector sums, and a packet
  dropped at link *k* keeps its lane (each step's draws are fixed-size
  vectors), so its downstream draws never perturb another packet's
  samples.

A batch is a set of *lanes*, one per probe.  Lane *j* departs at
``t0 + j * interval_s`` and turns around after ``depths[j]`` links: an
echo series is every lane at full depth, a traceroute is
``probes_per_hop`` lanes per depth.  Depths are sorted, so the lanes
that reach link *k* are a suffix of the lane array; the engine runs the
forward steps 1..L and then the return steps L..1, each over its suffix.
That is 2L :meth:`~repro.netsim.link.LinkState.transit_batch` calls per
batch, whatever the number of lanes.

Determinism contract (property-tested in
``tests/test_netsim_fastpath.py``):

* same seed ⇒ byte-identical batches across runs and hosts;
* jitter and drops come from per-(link, direction, purpose) streams.
  Echo series (purpose :data:`ECHO`) keep the link's original noise
  stream, which both directions share; traceroute and showpaths
  probes each draw from their own stream, created on first use.  A
  traceroute therefore never shifts the samples of a later echo series
  over the same links, and building a host creates no generators for
  purposes it never probes;
* the physics is checked analytically rather than against a second
  engine: every RTT is at least the propagation + serialization of
  its lane's links, out and back, and loss matches 1 − Π survivals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.netsim.packet import PacketSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netsim.network import LinkTraversal, NetworkSim

#: Purpose of echo series (``scion ping``, the suite, the monitor).
ECHO = "echo"
#: Purpose of traceroute probes (``scion traceroute``, the Path Tracer).
TRACEROUTE = "traceroute"
#: Purpose of ``scion showpaths`` status probes.
SHOWPATHS = "showpaths"


@dataclass(frozen=True)
class BatchEchoSeries:
    """One batch of round trips: per-lane send times and RTTs.

    ``rtt_ms`` is aligned with ``send_times_s``; lost probes (dropped on
    either direction, or slower than the SCMP deadline) hold ``NaN``.
    """

    send_times_s: "np.ndarray"
    rtt_ms: "np.ndarray"

    @property
    def count(self) -> int:
        return int(self.rtt_ms.size)

    @property
    def lost_mask(self) -> "np.ndarray":
        return np.isnan(self.rtt_ms)

    @property
    def received(self) -> int:
        return int(np.count_nonzero(~self.lost_mask))

    def received_rtts(self) -> Tuple[float, ...]:
        """Surviving RTTs in send order (the ``PingStats`` payload)."""
        return tuple(float(r) for r in self.rtt_ms[~self.lost_mask])


def roundtrip_steps(
    traversals: Sequence["LinkTraversal"],
) -> Tuple["LinkTraversal", ...]:
    """Forward traversals followed by the reversed return path."""
    back = [step.reversed() for step in reversed(traversals)]
    return tuple(traversals) + tuple(back)


def _round_trip(
    network: "NetworkSim",
    traversals: Sequence["LinkTraversal"],
    packet: PacketSpec,
    send_times: "np.ndarray",
    starts: Sequence[int],
    purpose: str,
) -> BatchEchoSeries:
    """Run every lane out and back; ``starts[k]`` is the first lane
    reaching link *k* (0-based)."""
    n = send_times.size
    n_links = len(traversals)
    delay_ms = np.zeros(n, dtype=np.float64)
    dropped = np.zeros(n, dtype=bool)
    wire_bytes = packet.total_wire_bytes
    fragments = packet.fragments

    for j, step in enumerate(roundtrip_steps(traversals)):
        # Outbound step j crosses link j; return step j crosses link 2L-1-j.
        lo = starts[min(j, 2 * n_links - 1 - j)]
        state = network.link_state(step.link)
        direction = state.direction_from(step.sender)
        t = send_times[lo:] + delay_ms[lo:] / 1e3
        step_ms, step_drop = state.transit_batch(
            direction, wire_bytes, fragments, t, purpose=purpose
        )
        # A lane dropped upstream keeps accumulating delay, but its RTT
        # is already unobservable; the drop mask is only ever OR-ed.
        delay_ms[lo:] += step_ms
        dropped[lo:] |= step_drop

    rtt = np.where(dropped, np.nan, delay_ms)
    rtt = np.where(rtt > network.config.probe_timeout_s * 1e3, np.nan, rtt)

    network.counters.batch_series += 1
    network.counters.batch_packets += n
    return BatchEchoSeries(send_times_s=send_times, rtt_ms=rtt)


def probe_batch(
    network: "NetworkSim",
    traversals: Sequence["LinkTraversal"],
    packet: PacketSpec,
    count: int,
    interval_s: float,
    t0_s: float,
) -> BatchEchoSeries:
    """An entire SCMP echo series: ``count`` lanes at full depth.

    Packet *i* departs at ``t0_s + i * interval_s``; its arrival time at
    each link is the send time plus the accumulated delay so far.
    Probes slower than ``config.probe_timeout_s`` count as lost, like
    the real ``scion ping`` deadline.
    """
    if not traversals:
        raise ValidationError("empty path")
    if count < 1:
        raise ValidationError(f"echo count must be >= 1: {count}")
    if interval_s <= 0:
        raise ValidationError("echo interval must be positive")
    send_times = t0_s + np.arange(count, dtype=np.float64) * interval_s
    starts = [0] * len(traversals)
    return _round_trip(network, traversals, packet, send_times, starts, ECHO)


def probe_depths(
    network: "NetworkSim",
    traversals: Sequence["LinkTraversal"],
    packet: PacketSpec,
    depths: Sequence[int],
    interval_s: float,
    t0_s: float,
    *,
    purpose: str,
) -> BatchEchoSeries:
    """Depth-laned round trips: lane *j* turns around after ``depths[j]``
    links (the router behind traversal ``depths[j] - 1`` answers).

    ``depths`` must be sorted ascending and lie in ``1..len(traversals)``;
    lane *j* departs at ``t0_s + j * interval_s``.  ``purpose`` names the
    RNG streams the lanes draw from (see the module docstring); it may
    not be :data:`ECHO`, so depth-laned probes never move an echo series.
    """
    if purpose == ECHO:
        raise ValidationError("depth-laned probes may not draw from the echo streams")
    if not traversals:
        raise ValidationError("empty path")
    lanes = np.asarray(depths, dtype=np.int64)
    if lanes.size < 1:
        raise ValidationError("depth-laned probe needs at least one lane")
    if interval_s < 0:
        raise ValidationError("probe interval must not be negative")
    n_links = len(traversals)
    if int(lanes[0]) < 1 or int(lanes[-1]) > n_links:
        raise ValidationError(f"probe depth out of range 1..{n_links}")
    if lanes.size > 1 and bool((np.diff(lanes) < 0).any()):
        raise ValidationError("probe depths must be sorted ascending")
    # Lanes with depth > k cross link k (0-based): a suffix of the array.
    starts = np.searchsorted(lanes, np.arange(1, n_links + 1), side="left").tolist()
    send_times = t0_s + np.arange(lanes.size, dtype=np.float64) * interval_s
    return _round_trip(network, traversals, packet, send_times, starts, purpose)

"""The data-plane engine: every round-trip probe as one steps × lanes matrix.

The paper's test-suite is measurement-bound: every campaign iteration
runs ``scion ping -c 30 --interval 0.1s`` plus four bwtest transfers
over every retained path (§3.3, §5.3), and UPIN's Path Tracer runs a
traceroute on every installed flow (§2.1).  Every round-trip probe —
echo series, traceroute, showpaths status — is computed here.

A batch is a set of *lanes*, one per probe.  Lane *j* departs at
``t0 + j * interval_s`` and turns around after ``depths[j]`` links: an
echo series is every lane at full depth, a traceroute is
``probes_per_hop`` lanes per depth.  Over a
:class:`~repro.netsim.network.Route` resolved once per path, the batch
is a (2L steps × lanes) matrix, forward steps 1..L then return L..1:

* jitter and drop draws do not depend on time: they are drawn first,
  step by step in the sequential order, into the rows; a lane that
  turns back before a step draws nothing there and adds no delay;
* only the utilization cell depends on arrival time.  A fixed point
  finds it: guess each lane's cells, compute every step's delay,
  ``np.cumsum`` over steps (bit-equal to a sequential ``+=``), derive
  the cells of the arrival times, and redo the lanes whose cells moved;
* congestion-episode drops are decided at the converged arrival times.

By induction over steps a converged batch equals 2L sequential
:meth:`~repro.netsim.link.LinkState.transit_batch` calls, the reference
``tests/test_netsim_fastpath.py`` tests it against.  That file also
checks the determinism contract:

* same seed ⇒ byte-identical batches across runs and hosts;
* jitter and drops come from per-(link, direction, purpose) streams
  (:meth:`~repro.netsim.link.LinkHalf.noise`).  Echo series (purpose
  :data:`ECHO`) keep the link's noise stream, shared by both
  directions; traceroute and showpaths probes each draw from their own
  stream, created on first use, so they never shift a later echo
  series over the same links;
* every RTT is at least the propagation + serialization of its lane's
  links, out and back, and loss matches 1 − Π survivals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.netsim.packet import PacketSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netsim.network import LinkTraversal, NetworkSim, Route

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
    route: "Route",
    packet: PacketSpec,
    send_times: "np.ndarray",
    starts: Optional[List[int]],
    purpose: str,
) -> BatchEchoSeries:
    """Run every lane out and back; ``starts[k]`` is the first lane
    reaching link *k* (0-based), ``None`` when every lane crosses every
    link."""
    steps, n = route.round_trip, send_times.size
    if float(send_times[0]) < 0:
        raise ValidationError(f"negative simulation time: {float(send_times[0])}")
    # Outbound step j crosses link j; return step j crosses link 2L-1-j.
    firsts = [0] * len(steps) if starts is None else starts + starts[::-1]
    jitter, uniform = np.zeros((2, len(steps), n))
    for j, (half, lo) in enumerate(zip(steps, firsts)):
        noise = half.noise(purpose)
        noise.standard_normal(out=jitter[j, lo:])
        noise.random(out=uniform[j, lo:])
    jitter = np.abs(jitter * route.jitter_ms)
    # Propagation + serialization, in transit_batch's order of operations.
    fixed_ms = route.propagation_ms + packet.total_wire_bytes * 8.0 / route.cap_bps * 1e3
    part = None if starts is None else np.arange(n) >= np.array(firsts)[:, None]

    # The fixed point starts from the arrival times of propagation and
    # serialization alone, so most lanes settle in one pass; whatever the
    # guess, a pass settles at least one more step of every lane it
    # redoes (step 0 arrives at the send time).
    unqueued = fixed_ms if part is None else np.where(part, fixed_ms, 0.0)
    times = np.vstack([send_times, send_times + np.cumsum(unqueued[:-1], axis=0) / 1e3])
    cells = (times / route.step_s).astype(np.int64)
    totals = np.empty((len(steps), n))  # each lane's delay after each step
    lanes: "slice | np.ndarray" = slice(None)
    while True:
        delay = _step_delays(network, route, fixed_ms, jitter[:, lanes], cells[:, lanes])
        if part is not None:
            delay = np.where(part[:, lanes], delay, 0.0)
        totals[:, lanes] = total = np.cumsum(delay, axis=0)
        arrive = send_times[lanes] + total[:-1] / 1e3
        new_cells = (arrive / route.step_s[1:]).astype(np.int64)
        moved = new_cells != cells[1:, lanes]
        if part is not None:
            moved &= part[1:, lanes]
        if not moved.any():
            break
        cells[1:, lanes] = new_cells
        redo = moved.any(axis=0)
        lanes = np.flatnonzero(redo) if isinstance(lanes, slice) else lanes[redo]

    if len(network.episodes):
        arrive = send_times + np.vstack([np.zeros(n), totals[:-1]]) / 1e3
        dropped = np.zeros((len(steps), n), dtype=bool)
        for j, (half, lo) in enumerate(zip(steps, firsts)):
            survive = half.survival(arrive[j, lo:], packet.fragments)
            dropped[j, lo:] = uniform[j, lo:] > survive
    else:  # a lane's skipped steps hold 0.0, which exceeds no survival
        dropped = uniform > route.keep ** max(1, packet.fragments)
    rtt = np.where(dropped.any(axis=0), np.nan, totals[-1])
    rtt = np.where(rtt > network.config.probe_timeout_s * 1e3, np.nan, rtt)

    network.counters.batch_series += 1
    network.counters.batch_packets += n
    return BatchEchoSeries(send_times_s=send_times, rtt_ms=rtt)


def _step_delays(
    network: "NetworkSim", route: "Route", fixed_ms: "np.ndarray",
    jitter: "np.ndarray", cells: "np.ndarray",
) -> "np.ndarray":
    """One fixed-point pass: every step's delay for the lanes of
    ``cells``, queueing at those utilization cells, summed in
    transit_batch's order."""
    low = cells.min(axis=1)
    width = int((cells.max(axis=1) - low).max()) + 1
    grid = np.array(
        [half.util.cells(k, width) for half, k in zip(route.round_trip, low.tolist())]
    )
    # Row j of ``grid`` starts at cell low[j]: gather through flat offsets.
    rho = grid.take(cells + (np.arange(0, grid.size, width) - low)[:, None])
    queue_ms = network.config.queue_scale_ms * rho / np.maximum(1e-6, 1.0 - rho)
    return fixed_ms + queue_ms + jitter


def probe_batch(
    network: "NetworkSim",
    traversals: "Route | Sequence[LinkTraversal]",
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
    route = network.route(traversals)
    if not route.forward:
        raise ValidationError("empty path")
    if count < 1:
        raise ValidationError(f"echo count must be >= 1: {count}")
    if interval_s <= 0:
        raise ValidationError("echo interval must be positive")
    send_times = t0_s + np.arange(count, dtype=np.float64) * interval_s
    return _round_trip(network, route, packet, send_times, None, ECHO)


def probe_depths(
    network: "NetworkSim",
    traversals: "Route | Sequence[LinkTraversal]",
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
    route = network.route(traversals)
    if not route.forward:
        raise ValidationError("empty path")
    lanes = np.asarray(depths, dtype=np.int64)
    if lanes.size < 1:
        raise ValidationError("depth-laned probe needs at least one lane")
    if interval_s < 0:
        raise ValidationError("probe interval must not be negative")
    n_links = len(route.forward)
    if int(lanes[0]) < 1 or int(lanes[-1]) > n_links:
        raise ValidationError(f"probe depth out of range 1..{n_links}")
    if lanes.size > 1 and bool((np.diff(lanes) < 0).any()):
        raise ValidationError("probe depths must be sorted ascending")
    # Lanes with depth > k cross link k (0-based): a suffix of the array.
    starts = np.searchsorted(lanes, np.arange(1, n_links + 1), side="left").tolist()
    send_times = t0_s + np.arange(lanes.size, dtype=np.float64) * interval_s
    return _round_trip(network, route, packet, send_times, starts, purpose)

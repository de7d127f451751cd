"""Per-link dynamic state: delay, jitter, queueing, loss, capacity shares.

A :class:`LinkState` is the simulator's live counterpart of a static
:class:`repro.topology.entities.LinkSpec`.  Direction matters: each
direction is a :class:`LinkHalf` with its own capacity, cross-traffic
process and pps budget (taken from the sending AS's router limits).
"""

from __future__ import annotations

import enum
from typing import Dict, Optional, Tuple

import numpy as np

from repro.netsim.batch import ECHO
from repro.netsim.config import NetworkConfig
from repro.netsim.congestion import EpisodeSchedule
from repro.netsim.counters import NetCounters
from repro.netsim.procs import UtilizationProcess
from repro.topology.entities import AutonomousSystem, LinkSpec
from repro.topology.isd_as import ISDAS
from repro.util.geo import propagation_delay_ms
from repro.util.rng import RngStreams

#: Cap on memoized (direction, window) integrals per link: campaigns
#: revisit a handful of windows (overlapping multi-user transfers, the
#: ledger's competing-load queries), so a small cache captures the reuse
#: while keeping worst-case memory bounded on adversarial workloads.
SAMPLING_CACHE_MAX_ENTRIES = 4096


class LinkDirection(enum.Enum):
    """Traffic direction relative to the LinkSpec's (a, b) endpoints."""

    A_TO_B = "ab"
    B_TO_A = "ba"


class LinkHalf:
    """One direction of a link: its capacity, cross-traffic process,
    jitter scale (the receiving AS's) and pps budget (the min of the
    sender's send and the receiver's recv limits), resolved once.  A
    :class:`~repro.netsim.network.Route` is a tuple of halves, so the
    engines read them as attributes, with no lookup per step."""

    def __init__(
        self, state: "LinkState", direction: LinkDirection,
        sender: AutonomousSystem, receiver: AutonomousSystem, util: UtilizationProcess,
    ) -> None:
        spec, config = state.spec, state.config
        self.state, self.spec, self.direction, self.util = state, spec, direction, util
        self.step_s = util.params.step_s
        ab = direction is LinkDirection.A_TO_B
        self.cap_bps = (spec.capacity_ab_mbps if ab else spec.capacity_ba_mbps) * 1e6
        self.jitter_scale = config.jitter_for(receiver.isd_as)
        self.pps_budget = min(
            config.pps_for(sender.isd_as).send, config.pps_for(receiver.isd_as).recv
        )
        self.propagation_ms = state.propagation_ms
        #: Per-fragment survival of a probe outside congestion episodes,
        #: and its fluid-transfer twin (rounded in that model's order).
        self.keep = 1.0 - (spec.base_loss + config.default_base_loss)
        self.fluid_keep = 1.0 - config.default_base_loss - spec.base_loss

    def noise(self, purpose: str) -> np.random.Generator:
        """The jitter/drop stream of ``purpose``: the link's shared noise
        stream for echo series, a per-direction stream, created on first
        use, for every other purpose (see :mod:`repro.netsim.batch`)."""
        state = self.state
        if purpose == ECHO:
            return state._noise
        name = f"{state._stream_key}:noise:{self.direction.value}:{purpose}"
        return state._streams.get(name)

    def survival(self, t: "np.ndarray", n_fragments: int) -> "float | np.ndarray":
        """``((1 - base) * (1 - episode loss)) ** fragments`` at arrival
        times ``t``; a scalar when no episode is scheduled (keep * 1.0 is
        keep, so it equals the array form bit for bit)."""
        episodes = self.state.episodes
        if not len(episodes):
            return self.keep ** max(1, n_fragments)
        extra_loss, cap_factor = episodes.disturbance_at(self.spec, t)
        per_fragment_survive = np.where(
            (cap_factor <= 0.0) & (extra_loss >= 1.0), 0.0, self.keep * (1.0 - extra_loss)
        )
        return per_fragment_survive ** max(1, n_fragments)

    def window(self, t0_s: float, t1_s: float) -> Tuple[float, float, float]:
        """Memoized ``(mean utilization, episode loss, capacity factor)``.

        The sampling cache behind fluid transfers: the window integrals
        (:meth:`UtilizationProcess.mean_over` + :meth:`EpisodeSchedule.
        window_disturbance`) are pure given the episode schedule, so
        results are keyed on ``(half, t0, t1)`` in the link's cache and
        dropped whenever :attr:`EpisodeSchedule.epoch` moves (an episode
        added, a link blackholed after a revocation).
        """
        state, episodes = self.state, self.state.episodes
        cache = state._window_cache
        if state._window_cache_epoch != episodes.epoch:
            cache.clear()
            state._window_cache_epoch = episodes.epoch
        key = (self, t0_s, t1_s)
        cached = cache.get(key)
        if cached is not None:
            state.counters.sampler_hits += 1
            return cached
        state.counters.sampler_misses += 1
        rho = self.util.mean_over(t0_s, t1_s)
        ep_loss, cap_factor = episodes.window_disturbance(self.spec, t0_s, t1_s)
        if len(cache) >= SAMPLING_CACHE_MAX_ENTRIES:
            cache.clear()  # rare; keeps memory bounded
        result = cache[key] = (rho, ep_loss, cap_factor)
        return result

    def share(
        self, offered_bps: float, offered_pps: float, t0_s: float, t1_s: float,
        competing_bps: float,
    ) -> Tuple[float, float]:
        """(byte_accept_ratio, pps_accept_ratio) for a transfer window.

        ``byte_accept_ratio`` compares offered wire bits/s against the
        capacity left over by cross traffic (scaled down by any active
        congestion episode) and by ``competing_bps`` of other registered
        foreground flows; ``pps_accept_ratio`` compares offered packets/s
        against the *sending* router's pps budget.  Conditional
        expressions stand in for builtin ``min``/``max``: the same
        comparisons, so the same results, without a builtin call per
        link of every transfer.
        """
        rho, ep_loss, cap_factor = self.window(t0_s, t1_s)
        available = self.cap_bps * (1.0 - rho) - competing_bps
        available = available if available > 0.0 else 0.0
        if ep_loss > 0.0:
            cap_factor = 0.0 if 0.0 > cap_factor else cap_factor
            available = available * (1.0 - ep_loss) * cap_factor + 1e-9
        byte_ratio = available / (1e-9 if 1e-9 > offered_bps else offered_bps)
        # min(send, recv) / offered == min(send/offered, recv/offered)
        # exactly (IEEE division is monotone for a positive divisor), so
        # the budget min is folded into a per-direction constant.
        pps_ratio = self.pps_budget / (1e-9 if 1e-9 > offered_pps else offered_pps)
        return (
            byte_ratio if byte_ratio < 1.0 else 1.0,
            pps_ratio if pps_ratio < 1.0 else 1.0,
        )


class LinkState:
    """One inter-AS link: its :class:`LinkHalf` ``ab`` and ``ba`` and what
    they share (propagation, noise stream, window cache)."""

    def __init__(
        self,
        spec: LinkSpec,
        a_sys: AutonomousSystem,
        b_sys: AutonomousSystem,
        config: NetworkConfig,
        streams: RngStreams,
        episodes: EpisodeSchedule,
        counters: Optional[NetCounters] = None,
    ) -> None:
        self.spec = spec
        self.config = config
        self.episodes = episodes
        self.counters = counters if counters is not None else NetCounters()
        #: (half, t0, t1) -> (mean utilization, window episode loss,
        #: window capacity factor), valid for one episode-schedule epoch.
        self._window_cache: Dict[
            Tuple[LinkHalf, float, float], Tuple[float, float, float]
        ] = {}
        self._window_cache_epoch = episodes.epoch
        self.propagation_ms = propagation_delay_ms(
            a_sys.location, b_sys.location, circuity=config.circuity
        )
        util_params = config.utilization_for(spec.kind.value)
        key = f"link:{spec.a}#{spec.a_ifid}>{spec.b}#{spec.b_ifid}"
        # Echo series draw jitter and drops from the link's shared noise
        # stream; every other probe purpose gets its own stream per
        # direction, created on first use (see :mod:`repro.netsim.batch`).
        self._noise = streams.get(f"{key}:noise")
        self._streams = streams
        self._stream_key = key
        self.ab, self.ba = (
            LinkHalf(
                self, d, sender, receiver,
                UtilizationProcess(util_params, streams.get(f"{key}:util:{d.value}")),
            )
            for d, sender, receiver in (
                (LinkDirection.A_TO_B, a_sys, b_sys),
                (LinkDirection.B_TO_A, b_sys, a_sys),
            )
        )

    # -- direction helpers -----------------------------------------------------

    def direction_from(self, sender: ISDAS) -> LinkDirection:
        return self.half_from(sender).direction

    def half(self, direction: LinkDirection) -> LinkHalf:
        return self.ab if direction is LinkDirection.A_TO_B else self.ba

    def half_from(self, sender: ISDAS) -> LinkHalf:
        return self.ab if sender == self.spec.a else self.ba

    # -- transit: the sequential reference of the batch engine -------------------------

    def transit_batch(
        self,
        direction: LinkDirection,
        wire_bytes: int,
        n_fragments: int,
        t_array: "np.ndarray",
        *,
        purpose: str = ECHO,
    ) -> Tuple["np.ndarray", "np.ndarray"]:
        """Delay and drop for a vector of packets crossing this link.

        ``t_array`` holds the per-packet arrival times at this link;
        returns ``(delay_ms, dropped)`` arrays of the same shape.

        Delay = propagation + serialization + utilization-driven queueing
        + per-transit jitter (the receiving AS's router adds the jitter —
        this is where §6.1's jittery ASes enter).  A packet survives with
        probability ``((1 - base) * (1 - episode loss)) ** fragments``.
        Jitter (one ``normal(size=n)`` vector) and drops come from the
        stream of ``purpose`` (:meth:`LinkHalf.noise`).  One call is one
        step of the sequential round trip that :mod:`repro.netsim.batch`
        computes as a matrix and is tested against.
        """
        t = np.asarray(t_array, dtype=np.float64)
        n = t.size
        half = self.half(direction)
        rho = half.util.values_at(t)

        serialization_ms = wire_bytes * 8.0 / half.cap_bps * 1e3
        queue_ms = self.config.queue_scale_ms * rho / np.maximum(1e-6, 1.0 - rho)
        noise = half.noise(purpose)
        jitter_ms = np.abs(noise.normal(0.0, half.jitter_scale, size=n))
        dropped = noise.random(size=n) > half.survival(t, n_fragments)

        delay_ms = self.propagation_ms + serialization_ms + queue_ms + jitter_ms
        return delay_ms, dropped

    # -- fluid-transfer accounting --------------------------------------------------

    def window_sample(
        self, direction: LinkDirection, t0_s: float, t1_s: float
    ) -> Tuple[float, float, float]:
        """:meth:`LinkHalf.window` of ``direction``."""
        return self.half(direction).window(t0_s, t1_s)

    def fluid_share(
        self,
        direction: LinkDirection,
        offered_bps: float,
        offered_pps: float,
        t0_s: float,
        t1_s: float,
        *,
        competing_bps: float = 0.0,
    ) -> Tuple[float, float]:
        """:meth:`LinkHalf.share` of ``direction``."""
        return self.half(direction).share(
            offered_bps, offered_pps, t0_s, t1_s, competing_bps
        )

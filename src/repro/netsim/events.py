"""A minimal deterministic discrete-event scheduler.

The measurement pipeline itself is computed analytically (per-packet
draws and fluid transfers), but campaign orchestration — congestion
episode onsets, server outage windows, periodic re-collection — is
naturally event-driven.  :class:`EventQueue` provides that with strict
determinism: ties in firing time break on insertion order.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List

from repro.errors import ValidationError
from repro.netsim.clock import SimClock

Callback = Callable[[], None]


@dataclass(order=True)
class _Entry:
    time_s: float
    seq: int
    callback: Callback = field(compare=False)


class EventQueue:
    """Priority queue of timed callbacks driven by a :class:`SimClock`."""

    def __init__(self, clock: SimClock) -> None:
        self.clock = clock
        self._heap: List[_Entry] = []
        self._seq = itertools.count()

    def schedule(self, time_s: float, callback: Callback) -> None:
        """Schedule ``callback`` at absolute simulated time ``time_s``."""
        if time_s < self.clock.now_s:
            raise ValidationError(
                f"cannot schedule in the past: {time_s} < {self.clock.now_s}"
            )
        heapq.heappush(self._heap, _Entry(time_s, next(self._seq), callback))

    def step(self) -> bool:
        """Run the next event (advancing the clock); False when empty."""
        if not self._heap:
            return False
        entry = heapq.heappop(self._heap)
        self.clock.advance_to(entry.time_s)
        entry.callback()
        return True

    def run_all(self, *, max_events: int = 1_000_000) -> int:
        """Drain the queue completely (bounded as a runaway backstop)."""
        count = 0
        while self.step():
            count += 1
            if count >= max_events:
                raise ValidationError("event queue did not drain (runaway?)")
        return count

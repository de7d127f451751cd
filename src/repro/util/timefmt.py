"""Timestamp helpers for measurement identifiers.

The paper's ``paths_stats`` documents are keyed by ``<path_id>_<timestamp>``
(§4.2.1).  We reproduce that scheme with a monotonically increasing,
injectable clock so tests and experiments stay deterministic: real wall
time is only used when no simulation clock is supplied.
"""

from __future__ import annotations

import time
from typing import Callable, Iterator, Optional


def epoch_ms() -> int:
    """Current wall-clock time in integer milliseconds since the epoch."""
    return int(time.time() * 1000)


class TimestampSource:
    """Produces strictly increasing integer timestamps (milliseconds).

    When ``now_ms`` is provided (e.g. bound to a simulation clock) the
    source follows it, bumping by one on collisions so document ids stay
    unique even for measurements taken at the same simulated instant.
    """

    def __init__(self, now_ms: Optional[Callable[[], int]] = None, *, start: int = 0) -> None:
        self._now_ms = now_ms
        self._last = start - 1

    def next(self) -> int:
        candidate = self._now_ms() if self._now_ms is not None else epoch_ms()
        if candidate <= self._last:
            candidate = self._last + 1
        self._last = candidate
        return candidate

    def __iter__(self) -> Iterator[int]:
        while True:
            yield self.next()

"""Retry policy: exponential backoff with deterministic jitter (§4.1.2).

The paper's fault-tolerance requirement distinguishes failure families:
*server failure* and *error messages* are transient — the destination
may answer on the next attempt — while a path that no longer combines
(:class:`~repro.errors.NoPathError`) is permanent and retrying it only
wastes campaign time.  The seed's retry loop hammered the destination
immediately; real measurement fleets back off exponentially so a
struggling server is not made worse by its own monitors.

Two properties matter for a *simulated* campaign:

* **Backoff advances only the simulated clock.**  ``clock.advance`` is
  called with the computed delay; no wall-clock sleeping ever happens,
  so campaigns with thousands of retries still run in milliseconds.
* **Jitter is deterministic.**  Each executor owns a PCG64 stream
  seeded via :func:`repro.util.rng.derive_seed`, so the exact backoff
  schedule is a pure function of ``(seed, draw order)`` — never of
  thread scheduling.  Two runs of the same campaign produce identical
  simulated timelines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, TYPE_CHECKING

import numpy as np

from repro.errors import MeasurementError, NoPathError, ValidationError
from repro.netsim.clock import SimClock
from repro.suite import metrics as m

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.suite.config import SuiteConfig


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff shape: ``base * factor**retry`` capped, jittered.

    ``jitter`` is the relative half-width of the uniform perturbation:
    a computed delay ``d`` becomes ``d * (1 + jitter * u)`` with
    ``u ~ U[-1, 1)``.  ``jitter=0`` disables it.
    """

    max_retries: int = 1
    base_backoff_s: float = 0.5
    backoff_factor: float = 2.0
    max_backoff_s: float = 30.0
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValidationError("max_retries must be >= 0")
        if self.base_backoff_s < 0:
            raise ValidationError("base_backoff_s must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValidationError("backoff_factor must be >= 1")
        if self.max_backoff_s < 0:
            raise ValidationError("max_backoff_s must be >= 0")
        if not (0.0 <= self.jitter < 1.0):
            raise ValidationError("jitter must be in [0, 1)")

    @classmethod
    def from_config(cls, config: "SuiteConfig") -> "RetryPolicy":
        return cls(
            max_retries=config.max_retries,
            base_backoff_s=config.retry_backoff_s,
            backoff_factor=config.retry_backoff_factor,
            max_backoff_s=config.retry_backoff_max_s,
            jitter=config.retry_jitter,
        )

    def backoff_s(self, retry_index: int, u: float = 0.5) -> float:
        """Delay before retry ``retry_index`` (0-based); ``u`` in [0, 1)."""
        delay = min(
            self.base_backoff_s * self.backoff_factor ** retry_index,
            self.max_backoff_s,
        )
        if self.jitter:
            delay *= 1.0 + self.jitter * (2.0 * float(u) - 1.0)
        return delay


class RetryExecutor:
    """Runs actions under a :class:`RetryPolicy` on a simulated clock.

    Transient :class:`MeasurementError` s are retried with backoff;
    permanent :class:`NoPathError` s (and any non-measurement error)
    propagate immediately.  Counters land in the optional metrics
    registry under ``retries`` / ``retry_exhausted`` / ``backoff_s``.
    """

    def __init__(
        self,
        policy: RetryPolicy,
        clock: SimClock,
        *,
        seed: int = 0,
        metrics: Optional[m.MetricsRegistry] = None,
    ) -> None:
        self.policy = policy
        self.clock = clock
        self.metrics = metrics
        self._rng = np.random.default_rng(seed)

    def call(self, action: Callable[[], Any], *, label: str = "") -> Any:
        """Execute ``action``, retrying transient failures with backoff."""
        last: Optional[MeasurementError] = None
        for retry_index in range(self.policy.max_retries + 1):
            if retry_index > 0:
                assert last is not None
                delay = self.policy.backoff_s(
                    retry_index - 1, float(self._rng.random())
                )
                if self.metrics is not None:
                    self.metrics.inc(m.RETRIES)
                    self.metrics.observe(m.BACKOFF_S, delay)
                # Simulated time only: no wall-clock sleep, ever.
                self.clock.advance(delay)
            try:
                return action()
            except NoPathError:
                # Permanent: the path no longer combines; retrying is futile.
                raise
            except MeasurementError as exc:
                last = exc
        assert last is not None
        if self.metrics is not None:
            self.metrics.inc(m.RETRY_EXHAUSTED)
        raise last

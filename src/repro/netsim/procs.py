"""Stochastic background processes: AR(1) cross-traffic utilization.

Each link direction owns one :class:`UtilizationProcess`.  The process is
sampled on a fixed step grid and generated lazily-but-sequentially, so a
query at simulated time *t* always returns the same value no matter how
many queries happened in between — the property that keeps experiments
deterministic under refactoring.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.errors import ValidationError
from repro.netsim.config import UtilizationParams

#: Minimum number of grid cells generated per extension.  Each process
#: owns its named RNG stream exclusively and always extends sequentially
#: from the current end, so over-extending is invisible: cell *k* holds
#: the same value no matter how eagerly it was generated (a vectorized
#: draw consumes the stream exactly like that many scalar draws).  The
#: chunk just amortises the per-call RNG and list plumbing over the
#: campaign's thousands of tiny window extensions.
EXTEND_CHUNK = 256


class UtilizationProcess:
    """Lazily generated, cached AR(1) series clamped to ``[floor, ceil]``."""

    def __init__(self, params: UtilizationParams, rng: np.random.Generator) -> None:
        if not (0.0 <= params.floor <= params.ceil <= 1.0):
            raise ValidationError("utilization bounds must satisfy 0<=floor<=ceil<=1")
        if not (0.0 <= params.rho < 1.0):
            raise ValidationError(f"AR(1) rho must be in [0,1): {params.rho}")
        if params.step_s <= 0:
            raise ValidationError("step_s must be positive")
        self.params = params
        self._rng = rng
        first = params.mean + params.sigma * float(rng.standard_normal())
        self._values: List[float] = [self._clamp(first)]

    def _clamp(self, u: float) -> float:
        return min(max(u, self.params.floor), self.params.ceil)

    def _extend_to(self, k: int) -> None:
        p = self.params
        n_missing = k + 1 - len(self._values)
        if n_missing <= 0:
            return
        if n_missing < EXTEND_CHUNK:
            n_missing = EXTEND_CHUNK  # over-extend; bit-identical cells
        # One vectorized draw consumes the generator's stream exactly
        # like ``n_missing`` scalar ``standard_normal()`` calls (a
        # property of :class:`numpy.random.Generator` the fast path's
        # byte-compat tests rely on), so the grid values stay identical
        # to the old per-step draws while the per-call RNG overhead —
        # the campaign profile's single largest line — disappears.
        noise = (p.sigma * self._rng.standard_normal(n_missing)).tolist()
        prev = self._values[-1]
        mean, rho = p.mean, p.rho
        floor, ceil = p.floor, p.ceil
        append = self._values.append
        for eps in noise:
            nxt = mean + rho * (prev - mean) + eps
            # Inline clamp (bit-identical to min(max(...))), avoiding
            # two builtin calls per grid cell.
            prev = floor if nxt < floor else (ceil if nxt > ceil else nxt)
            append(prev)

    def value_at(self, t_s: float) -> float:
        """Utilization fraction in ``[floor, ceil]`` at simulated time t."""
        if t_s < 0:
            raise ValidationError(f"negative simulation time: {t_s}")
        k = int(t_s / self.params.step_s)
        self._extend_to(k)
        return self._values[k]

    def values_at(self, t_array: "np.ndarray") -> "np.ndarray":
        """Vectorized :meth:`value_at`: utilization at every time in one go.

        Reads the grid through :meth:`cells`, as the batch engine
        (:mod:`repro.netsim.batch`) does, so for any time *t*,
        ``values_at([t])[0] == value_at(t)`` exactly, whichever reader
        touched a grid cell first.
        """
        t = np.asarray(t_array, dtype=np.float64)
        if t.size == 0:
            return np.empty(0, dtype=np.float64)
        if float(t.min()) < 0:
            raise ValidationError(f"negative simulation time: {float(t.min())}")
        k = (t / self.params.step_s).astype(np.int64)
        k_min = int(k.min())
        window = self.cells(k_min, int(k.max()) - k_min + 1)
        return np.asarray(window, dtype=np.float64)[k - k_min]

    def cells(self, k0: int, count: int) -> List[float]:
        """Grid values of cells ``k0 .. k0 + count - 1`` (extending the
        grid as needed): the one gather behind every vectorized reader."""
        if k0 + count > len(self._values):
            self._extend_to(k0 + count - 1)
        return self._values[k0 : k0 + count]

    def mean_over(self, t0_s: float, t1_s: float) -> float:
        """Average utilization over the window ``[t0, t1]``.

        Used by fluid transfers: a 3-second bandwidth test experiences
        the average cross-traffic of its window, not a point sample.
        """
        if t1_s < t0_s:
            raise ValidationError("window end before start")
        k0 = int(t0_s / self.params.step_s)
        k1 = int(t1_s / self.params.step_s)
        if k1 >= len(self._values):
            self._extend_to(k1)
        window = self._values[k0 : k1 + 1]
        if len(window) < 8:
            # Bit-identical to np.mean for < 8 elements: numpy's
            # pairwise_sum uses a plain sequential loop below its 8-way
            # unroll threshold, i.e. the exact order of Python's sum().
            # Typical bandwidth-test windows are 4 grid cells, so the
            # fluid hot path skips the ufunc dispatch overhead entirely.
            return sum(window) / len(window)
        return float(np.mean(window))

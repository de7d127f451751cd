"""Whisker-plot statistics.

The paper's latency and bandwidth figures are box-and-whisker plots
("we chose whisker plots to visually represent the distribution of
latency values", §6.1).  :class:`WhiskerStats` carries exactly the
numbers such a plot draws: quartiles, median, Tukey whiskers
(1.5 x IQR) and outliers, plus mean and count for the text tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.errors import ValidationError


@dataclass(frozen=True)
class WhiskerStats:
    """Everything a box plot shows for one sample set."""

    n: int
    mean: float
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    whisker_low: float
    whisker_high: float
    outliers: Tuple[float, ...]

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1

    @property
    def spread(self) -> float:
        """Whisker-to-whisker extent — the 'compactness' Fig 6 compares."""
        return self.whisker_high - self.whisker_low


def whisker_stats(samples: Iterable[float]) -> WhiskerStats:
    """Compute box-plot statistics with Tukey (1.5*IQR) whiskers."""
    values = np.asarray([s for s in samples if s is not None], dtype=float)
    if values.size == 0:
        raise ValidationError("whisker stats need at least one sample")
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    iqr = q3 - q1
    lo_fence = q1 - 1.5 * iqr
    hi_fence = q3 + 1.5 * iqr
    inside = values[(values >= lo_fence) & (values <= hi_fence)]
    whisker_low = float(inside.min()) if inside.size else float(values.min())
    whisker_high = float(inside.max()) if inside.size else float(values.max())
    # Interpolated quartiles can fall outside the data the whiskers cap;
    # clamp so whiskers never retract into the box (as drawn plots do).
    whisker_low = min(whisker_low, float(q1))
    whisker_high = max(whisker_high, float(q3))
    outliers = tuple(
        float(v) for v in np.sort(values[(values < lo_fence) | (values > hi_fence)])
    )
    return WhiskerStats(
        n=int(values.size),
        mean=float(values.mean()),
        minimum=float(values.min()),
        q1=float(q1),
        median=float(median),
        q3=float(q3),
        maximum=float(values.max()),
        whisker_low=whisker_low,
        whisker_high=whisker_high,
        outliers=outliers,
    )


def cluster_means(values: Sequence[float], *, gap_factor: float = 2.0) -> List[List[float]]:
    """Split sorted values into clusters at large gaps.

    Used to identify the latency "layers" of Fig 5: sorted path means
    separate into groups wherever the jump exceeds ``gap_factor`` times
    the median inter-value gap (with an absolute floor so tight sets
    form one cluster).
    """
    ordered = sorted(float(v) for v in values)
    if not ordered:
        return []
    if len(ordered) == 1:
        return [ordered]
    gaps = np.diff(ordered)
    median_gap = float(np.median(gaps))
    threshold = max(gap_factor * median_gap, 1e-9, 0.05 * (ordered[-1] - ordered[0]))
    clusters: List[List[float]] = [[ordered[0]]]
    for value, gap in zip(ordered[1:], gaps):
        if gap > threshold:
            clusters.append([value])
        else:
            clusters[-1].append(value)
    return clusters

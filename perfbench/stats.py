"""Summary statistics for the benchmark's timings."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

TAIL_SAMPLES = 10  # a reported percentile needs this many samples beyond it


def min_samples(percentile: float) -> int:
    """Fewest samples for which TAIL_SAMPLES of them lie above `percentile`."""
    if not 0 < percentile < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {percentile}")
    return math.ceil(TAIL_SAMPLES * 100 / (100 - percentile) - 1e-9)


def tail_percentile(values: Sequence[float], percentile: float) -> float:
    """The percentile, refused when fewer than TAIL_SAMPLES samples lie beyond it."""
    if len(values) < min_samples(percentile):
        raise ValueError(
            f"p{percentile:g} needs >= {min_samples(percentile)} samples, got {len(values)}"
        )
    return float(np.percentile(values, percentile))


def median(values: Sequence[float]) -> float:
    return float(np.median(values))

"""Order statistics for the benchmark report."""

from __future__ import annotations

import math
from typing import Optional, Sequence

# percentiles a latency may be reported at, highest first
TAIL_LADDER = (0.999, 0.99, 0.9, 0.5)
MIN_BEYOND = 10


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest rank: the ceil(q*n)-th smallest value (the smallest for
    q = 0).  Unlike interpolation, it gives the same answer for one pass
    of ops and for k copies of that pass, so a percentile does not move
    with the number of passes that fit in the time budget."""
    if not values:
        raise ValueError("quantile of no values")
    xs = sorted(values)
    rank = math.ceil(q * len(xs) - 1e-9)
    return xs[min(max(rank, 1), len(xs)) - 1]


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def tail_percentile(n: int) -> Optional[float]:
    """Highest ladder percentile with at least ten samples beyond it, or
    None when even the median has fewer."""
    for q in TAIL_LADDER:
        if n * (1.0 - q) >= MIN_BEYOND - 1e-9:
            return q
    return None

"""Order statistics the benchmark reports."""

from __future__ import annotations

import math
import statistics

#: A tail percentile must leave at least this many samples beyond it.
#: Ten would do for a well-mixed sample, but a fig6-cell run pools about
#: a hundred rounds, of which up to about fifteen caught a 200-400 ms
#: gen-2 garbage collection. How many did depends on the inputs, so a
#: percentile with ten beyond lands inside that cluster on some seeds and
#: below it on others; with twenty beyond it stays below.
TAIL_BEYOND = 20


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    """The ``pct``-th percentile by nearest rank (1-based rank
    ``ceil(pct/100 * n)``) of an ascending list."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(n: int, beyond: int = TAIL_BEYOND) -> int | None:
    """The highest whole percentile of ``n`` samples whose nearest-rank
    value has at least ``beyond`` samples above it, or None when even
    the 1st percentile leaves fewer."""
    for pct in range(99, 0, -1):
        if n - math.ceil(pct / 100 * n) >= beyond:
            return pct
    return None


def tail(values: list[float]) -> tuple[int, float]:
    """``(percentile, value)`` of the tail rule over ``values``.

    Raises:
        ValueError: too few samples for any percentile to qualify.
    """
    pct = tail_percentile(len(values))
    if pct is None:
        raise ValueError(f"{len(values)} samples leave no percentile with "
                         f"{TAIL_BEYOND} samples beyond it")
    return pct, nearest_rank(sorted(values), pct)


def median(values: list[float]) -> float:
    return statistics.median(values)


def quartile_spread(values: list[float]) -> float:
    """Q3 - Q1 as a share of the median (``statistics.quantiles`` n=4)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2

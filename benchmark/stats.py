"""Arithmetic shared by the benchmark: medians, percentiles, failure
ratios and run-to-run spread."""

from __future__ import annotations

import math
import statistics

# A percentile is reported only when at least this many samples lie
# beyond it; otherwise a single outlier would decide its value.
MIN_BEYOND = 10


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least a
    share q of all samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 1:
        raise ValueError("q must lie in (0, 1]")
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def beyond(count: int, q: float) -> int:
    """Number of samples that lie beyond the nearest-rank q-percentile
    of count samples."""
    return count - max(1, math.ceil(q * count))


def reportable_percentile(values, q: float):
    """The q-percentile, or None when fewer than MIN_BEYOND samples
    lie beyond it."""
    values = list(values)
    if beyond(len(values), q) < MIN_BEYOND:
        return None
    return percentile(values, q)


def fail_ratio(failed: int, attempted: int) -> float:
    """Operations whose output failed its check over operations
    attempted."""
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie between 0 and attempted")
    return failed / attempted


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the
    median, as statistics.quantiles(values, n=4) gives the quartiles."""
    q1, q2, q3 = statistics.quantiles(list(values), n=4)
    return (q3 - q1) / q2

"""Order statistics the benchmark reports: the percentile rule and run-to-run spread."""

from __future__ import annotations

import math
import statistics
from fractions import Fraction

# A percentile is reported only when at least this many samples lie beyond it.
TAIL_SAMPLES = 10


def _rank(q, n: int) -> int:
    return math.ceil(Fraction(str(q)) * n / 100)


def percentile(values, q) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100): the smallest sample
    with at least ``q`` percent of the samples at or below it."""
    if not 0 < q <= 100:
        raise ValueError(f"percentile must lie in (0, 100], got {q}")
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return float(ordered[_rank(q, len(ordered)) - 1])


def reported_percentile(values, q) -> float:
    """:func:`percentile`, refused when fewer than ``TAIL_SAMPLES`` samples lie beyond its rank."""
    n = len(values)
    if n - _rank(q, n) < TAIL_SAMPLES:
        raise ValueError(f"p{q} needs at least {TAIL_SAMPLES} samples beyond its rank, got {n} samples")
    return percentile(values, q)


def spread(values) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)

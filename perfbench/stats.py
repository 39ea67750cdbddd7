"""Order statistics shared by the runner, the compare script and the tests.

Quartiles follow ``statistics.quantiles(values, n=4)`` (the default
"exclusive" method), which is also how the benchmark's spread is judged.
"""

from __future__ import annotations

import statistics


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def median_per_input(pairs) -> float:
    """Mean over inputs of each input's median, from ``(input, value)``
    pairs.  Runs that repeat the same inputs then differ only by noise,
    even when the inputs' typical values are far apart."""
    by_input: dict = {}
    for key, value in pairs:
        by_input.setdefault(key, []).append(value)
    if not by_input:
        raise ValueError("median_per_input of no values")
    return sum(median(v) for v in by_input.values()) / len(by_input)


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    values = sorted(values)
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values) -> float:
    """Inter-quartile distance as a share of the median (0 for a zero
    median, where the ratio is undefined)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0

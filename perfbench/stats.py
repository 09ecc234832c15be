"""Percentiles with their sample counts, and bit lengths of exact values."""

from __future__ import annotations

import math


def rank(count: int, q: float) -> int:
    """1-based nearest rank of the q-th percentile among `count` samples."""
    if count < 1:
        raise ValueError("no samples")
    return max(1, math.ceil(q / 100 * count))


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% of all
    samples at or below it. Always one of the measured values."""
    ordered = sorted(samples)
    return ordered[rank(len(ordered), q) - 1]


def beyond(count: int, q: float) -> int:
    """How many samples lie above the q-th percentile's rank. A percentile is
    well supported when at least ten samples lie beyond it."""
    return count - rank(count, q)


def bits(value) -> int:
    """Largest bit length of a rational's numerator and denominator."""
    return max(abs(value.numerator).bit_length(), value.denominator.bit_length())


def max_bits(rows) -> int:
    """Largest `bits` over a matrix given as rows, or over a flat sequence."""
    best = 0
    for row in rows:
        for value in (row if isinstance(row, (list, tuple)) else (row,)):
            best = max(best, bits(value))
    return best

"""The host's speed, from a fixed kernel that never calls weaksdp.

The host the benchmark was written on is shared. The same work ran up to 1.9
times slower or faster in phases of seconds to minutes, and CPU time moved
with wall time, so a run's timings followed the phases it fell in. This
kernel does the kind of work weaksdp does, exact elimination over `Fraction`
and big-integer products, with the standard library alone, and it slows
nearly in step. In ten runs of each workload, the wall-clock timings spread
by 0.11 to 0.38 and the same timings at the reference speed by 0.02 to 0.11
(quartile distance over median).

The benchmark times the kernel after every operation and reports timings at
the reference speed: wall time times REFERENCE_S over the kernel's time
nearby. A change to weaksdp moves these timings as it moves wall time,
because the kernel does not change with it; the host's phases move them
much less.
"""

from __future__ import annotations

import time
from fractions import Fraction

# The kernel's median time on the 2-core x86_64 host, CPython 3.11.7, that
# the benchmark was written on. It only sets the scale of the timings.
REFERENCE_S = 0.0026

ORDER = 10


def kernel() -> Fraction:
    """Determinant of a fixed rational matrix by elimination, then a chain of
    big-integer products; returns the determinant."""
    rows = [
        [Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i * j) % 4) + 9 * (i == j) for j in range(ORDER)]
        for i in range(ORDER)
    ]
    det = Fraction(1)
    for c in range(ORDER):
        pivot = next(r for r in range(c, ORDER) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        det *= rows[c][c]
        for r in range(c + 1, ORDER):
            factor = rows[r][c] / rows[c][c]
            if factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[c])]
    product = 1
    for i in range(1, 40 * ORDER):
        product = product * (2 * i + 1) + i
    return det * (product % 7 + 1)


def kernel_s() -> float:
    """Wall time of one run of the kernel."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start

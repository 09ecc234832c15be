"""Deterministic 64-bit pseudo-random generator.

Instance libraries must regenerate bit-exactly across platforms and Python
versions, so all randomness in this package goes through a fixed, documented
generator (splitmix64) instead of the standard library's Mersenne Twister.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """splitmix64: state advances by a fixed odd constant, output is a bit mix.

    Integer draws reduce the 64-bit output modulo the range size. The modulo
    bias is astronomically small and irrelevant here: draws parameterize
    instances, they are not statistics. What matters is that identical seeds
    give identical streams everywhere.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Integer in the inclusive range [lo, hi]."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + self.next_u64() % (hi - lo + 1)

    def randints(self, lo: int, hi: int, count: int) -> list[int]:
        """`count` integers in [lo, hi]: the draws of `count` calls of
        `randint`, in one comprehension."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        draw, span = self.next_u64, hi - lo + 1
        return [lo + draw() % span for _ in range(count)]

    def nonzero_int(self, bound: int) -> int:
        """Integer in [-bound, bound] excluding 0; bound must be >= 1."""
        if bound < 1:
            raise ValueError("bound must be >= 1")
        v = self.randint(1, 2 * bound)
        return v - bound - 1 if v <= bound else v - bound

    def choice(self, seq):
        return seq[self.randint(0, len(seq) - 1)]

    def take(self, pool: list, count: int) -> list:
        """Remove and return `count` distinct items from `pool`."""
        if count > len(pool):
            raise ValueError("pool too small")
        return [pool.pop(self.randint(0, len(pool) - 1)) for _ in range(count)]


def derive_seed(seed: int, tag: int) -> int:
    """Stable sub-stream seed for staged pipelines; distinct tags decorrelate stages."""
    return SplitMix64((seed ^ (tag * _GAMMA)) & _MASK64).next_u64()

"""Seeded 64-bit pseudo-random stream (splitmix recurrence).

The recurrence constants and the integer output mapping below are part of
the reproducibility contract: a corpus regenerated from the same seed is
bit-identical, on any platform, in any implementation that follows them.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1

GAMMA = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4B9B1
MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Splitmix stream: state += GAMMA, then two xor-shift-multiply mixes."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + GAMMA) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * MIX1) & MASK64
        z = ((z ^ (z >> 27)) * MIX2) & MASK64
        return z ^ (z >> 31)

    def int_in(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi] via modular reduction.

        The tiny modulo bias is irrelevant here and accepted for the sake
        of a trivially portable mapping.
        """
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.next_u64() % (hi - lo + 1)

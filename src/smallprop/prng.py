"""splitmix64 generator, the normative randomness source for reproducible runs."""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def prng_next(state: int) -> tuple[int, int]:
    """One splitmix64 step: returns (value, next_state)."""
    state = (state + _GOLDEN) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    z ^= z >> 31
    return z, state


def splitmix64_block(seed: int, n: int) -> np.ndarray:
    """The first n ``prng_next`` draws from seed; draw i (from 1) mixes seed + i * golden."""
    z = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GOLDEN) + np.uint64(seed & MASK64)
    z = (z ^ (z >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> 31)


def random(u):
    """Uniform float in [0, 1) with 53 bits of precision from draw(s) u (int or uint64 array)."""
    return (u >> 11) * 2.0**-53


def randint(u, lo: int, hi: int):
    """Uniform integer in [lo, hi], both ends inclusive (lo >= 0 for arrays)."""
    return lo + u % (hi - lo + 1)


def uniform(u, lo, hi):
    return lo + random(u) * (hi - lo)


def stream_seed(base: int, *keys: int) -> int:
    """Derive an independent stream seed from a base seed and integer keys."""
    s = base & MASK64
    for k in keys:
        s, _ = prng_next(s ^ (int(k) & MASK64))
    return s


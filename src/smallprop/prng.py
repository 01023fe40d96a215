"""splitmix64 generator, the normative randomness source for reproducible runs.

splitmix64 is counter-based: draw i (from 1) of the stream from a seed is the
mix of seed + i * golden mod 2**64. So any number of draws of any number of
streams are one set of uint64 array operations.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _words(x) -> np.ndarray:
    """x as uint64 words: an integer array's bits, or an int mod 2**64 as a
    one-word array (numpy's scalars would warn each time a product wraps)."""
    if isinstance(x, np.ndarray):
        return x.astype(np.uint64, copy=False)
    return np.array([int(x) & MASK64], dtype=np.uint64)


def _mix(z: np.ndarray) -> np.ndarray:
    """splitmix64's output of each state in z, a uint64 array."""
    z = (z ^ (z >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> 31)


def splitmix64_block(seed, n: int) -> np.ndarray:
    """The first n draws of the stream from seed, an int; given a uint64
    array of seeds, one row of n draws per seed."""
    z = _mix(np.add.outer(_words(seed), np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GOLDEN)))
    return z if isinstance(seed, np.ndarray) else z[0]


def random(u):
    """Uniform float in [0, 1) with 53 bits of precision from draw(s) u (int or uint64 array)."""
    return (u >> 11) * 2.0**-53


def randint(u, lo: int, hi: int):
    """Uniform integer in [lo, hi], both ends inclusive (lo >= 0 for arrays)."""
    return lo + u % (hi - lo + 1)


def uniform(u, lo, hi):
    return lo + random(u) * (hi - lo)


def stream_seed(base, *keys):
    """Derive an independent stream seed from a base seed and integer keys:
    for each key in turn, the first draw of the stream from the seed so far
    xor the key. Ints give an int; given arrays (non-negative integers, which
    broadcast), a uint64 array, the seed of each element."""
    s = _words(base)
    for k in keys:
        s = _mix((s ^ _words(k)) + np.uint64(_GOLDEN))
    if isinstance(base, np.ndarray) or any(isinstance(k, np.ndarray) for k in keys):
        return s
    return int(s[0])

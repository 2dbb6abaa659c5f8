"""Counter-based, splittable random number streams.

Every stochastic routine in the package derives its generator from a user
seed plus a tuple of integer subkeys (block index, grid row, ...). Streams
for distinct subkey tuples are independent Philox streams, so Monte-Carlo
trials can run in any order (or concurrently) and still aggregate to the
same result.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    # Standard splitmix64 finalizer; good avalanche for key mixing.
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def mix(seed: int, *subkeys: int) -> int:
    """Hash a seed and subkeys into a single 64-bit Philox key."""
    x = _splitmix64(seed & _MASK64)
    for k in subkeys:
        x = _splitmix64(x ^ (k & _MASK64))
    return x


def stream(seed: int, *subkeys: int) -> np.random.Generator:
    """Independent generator for (seed, *subkeys)."""
    return np.random.Generator(np.random.Philox(key=mix(seed, *subkeys)))

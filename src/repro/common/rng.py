"""Seeded randomness helpers.

Every randomized structure in the library takes an explicit ``seed`` and
builds its generator through :func:`make_rng`, so experiments are exactly
reproducible and two structures given the same seed behave identically.
"""

from __future__ import annotations

import random

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF


def make_rng(seed: int | None) -> random.Random:
    """A ``random.Random`` seeded with *seed* (entropy-seeded when None)."""
    return random.Random(seed)


def make_np_rng(seed: int | None) -> np.random.Generator:
    """A numpy ``Generator`` seeded with *seed* (entropy-seeded when None)."""
    return np.random.default_rng(seed)


def derive_seed(seed: int, stream: int) -> int:
    """Derive the *stream*-th child seed from *seed* deterministically.

    Uses a SplitMix64 step so that children of nearby parents do not overlap.
    """
    z = (seed + 0x9E3779B97F4A7C15 * (stream + 1)) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def derive_seeds(seed: int, first_stream: int, count: int) -> np.ndarray:
    """``derive_seed(seed, s)`` for the *count* streams from *first_stream*.

    The same SplitMix64 step over a ``uint64`` array (numpy arithmetic
    wraps modulo 2**64, which is what the scalar form's masks do), so
    element ``i`` equals ``derive_seed(seed, first_stream + i)`` exactly.
    """
    streams = np.arange(count, dtype=np.uint64)
    streams += np.uint64((first_stream + 1) & _MASK64)
    z = streams * np.uint64(0x9E3779B97F4A7C15)
    z += np.uint64(seed & _MASK64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z

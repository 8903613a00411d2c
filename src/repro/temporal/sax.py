"""Symbolic Aggregate approXimation (SAX) for streaming time series.

SAX discretises a numeric window into a short symbol string: the window is
z-normalised, piecewise-aggregated (PAA), and each segment mapped to a
symbol by Gaussian-equiprobable breakpoints. Strings support a lower-
bounding distance, making them the standard substrate for streaming motif
and pattern discovery (cf. "Spade: shape-based pattern detection in
streaming time series" [Chen et al., ICDE 2007] in Table 1).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.common.exceptions import ParameterError


def gaussian_breakpoints(alphabet_size: int) -> np.ndarray:
    """Breakpoints splitting N(0,1) into *alphabet_size* equiprobable bins."""
    if not 2 <= alphabet_size <= 26:
        raise ParameterError("alphabet_size must lie in [2, 26]")
    from scipy import stats

    qs = np.linspace(0, 1, alphabet_size + 1)[1:-1]
    return stats.norm.ppf(qs)


def paa(values: Sequence[float], segments: int) -> np.ndarray:
    """Piecewise aggregate approximation: *segments* segment means."""
    arr = np.asarray(values, dtype=np.float64)
    if len(arr) == 0:
        raise ParameterError("cannot PAA an empty window")
    if segments <= 0 or segments > len(arr):
        raise ParameterError("segments must lie in [1, len(values)]")
    # Split as evenly as possible (frame boundaries by linspace).
    bounds = np.linspace(0, len(arr), segments + 1).astype(int)
    return np.array([arr[bounds[i] : bounds[i + 1]].mean() for i in range(segments)])


def znormalise(values: Sequence[float]) -> np.ndarray:
    """Zero-mean unit-variance normalisation (constant windows -> zeros)."""
    arr = np.asarray(values, dtype=np.float64)
    std = arr.std()
    if std < 1e-12:
        return np.zeros_like(arr)
    return (arr - arr.mean()) / std


def sax_word(values: Sequence[float], segments: int = 8, alphabet_size: int = 4) -> str:
    """The SAX word of a window (lowercase letters, 'a' = lowest bin)."""
    breakpoints = gaussian_breakpoints(alphabet_size)
    segments_means = paa(znormalise(values), segments)
    indices = np.searchsorted(breakpoints, segments_means)
    return "".join(chr(ord("a") + int(i)) for i in indices)


def sax_distance(
    word_a: str, word_b: str, window_len: int, alphabet_size: int = 4
) -> float:
    """MINDIST lower bound on the Euclidean distance of the source windows."""
    if len(word_a) != len(word_b):
        raise ParameterError("SAX words must have equal length")
    breakpoints = gaussian_breakpoints(alphabet_size)
    total = 0.0
    for ca, cb in zip(word_a, word_b):
        i, j = ord(ca) - ord("a"), ord(cb) - ord("a")
        if abs(i - j) > 1:
            lo, hi = min(i, j), max(i, j)
            cell = breakpoints[hi - 1] - breakpoints[lo]
            total += cell * cell
    return math.sqrt(window_len / len(word_a)) * math.sqrt(total)

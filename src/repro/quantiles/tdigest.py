"""t-digest (merging variant) — accurate tail quantiles in small space.

[Dunning & Ertl] — the t-digest clusters points into centroids whose
allowed weight shrinks near the distribution's tails (controlled by the
scale function), so extreme quantiles (p99, p999) are far more accurate
than uniform-size summaries. This is the merging implementation: updates
are buffered and periodically merged into the centroid list in one sorted
sweep, which also makes digests mergeable across partitions.
"""

from __future__ import annotations

import math

from repro.common.exceptions import ParameterError
from repro.common.mergeable import SynopsisBase
from repro.common.serialization import dump_state, load_state

_TYPE_TAG = "tdigest"


class TDigest(SynopsisBase):
    """Merging t-digest with compression parameter *delta* (centroid budget)."""

    def __init__(self, delta: float = 100.0, buffer_size: int = 512):
        if delta < 10:
            raise ParameterError("delta must be >= 10")
        if buffer_size <= 0:
            raise ParameterError("buffer_size must be positive")
        self.delta = delta
        self.buffer_size = buffer_size
        self.count = 0
        self._means: list[float] = []
        self._weights: list[float] = []
        self._buffer: list[tuple[float, float]] = []

    def update(self, item: float) -> None:
        self.update_weighted(float(item), 1.0)

    def update_weighted(self, value: float, weight: float) -> None:
        """Absorb *value* with positive *weight*."""
        if weight <= 0:
            raise ParameterError("weight must be positive")
        self._buffer.append((value, weight))
        self.count += 1
        if len(self._buffer) >= self.buffer_size:
            self._flush()

    @staticmethod
    def _k(q: float, delta: float) -> float:
        # k1 scale function: asin-based, tightest at the tails.
        return delta / (2.0 * math.pi) * math.asin(2.0 * q - 1.0)

    def _flush(self) -> None:
        if not self._buffer:
            return
        points = sorted(
            list(zip(self._means, self._weights)) + self._buffer, key=lambda p: p[0]
        )
        self._buffer = []
        total = sum(w for __, w in points)
        means: list[float] = []
        weights: list[float] = []
        cum = 0.0
        cur_mean, cur_weight = points[0]
        k_lower = self._k(0.0, self.delta)
        for mean, weight in points[1:]:
            q_up = (cum + cur_weight + weight) / total
            if q_up <= 1.0 and self._k(q_up, self.delta) - k_lower <= 1.0:
                # Merge into the current centroid.
                cur_mean = (cur_mean * cur_weight + mean * weight) / (cur_weight + weight)
                cur_weight += weight
            else:
                means.append(cur_mean)
                weights.append(cur_weight)
                cum += cur_weight
                cur_mean, cur_weight = mean, weight
                k_lower = self._k(cum / total, self.delta)
        means.append(cur_mean)
        weights.append(cur_weight)
        self._means = means
        self._weights = weights

    def quantile(self, q: float) -> float:
        """Value at quantile *q* in [0, 1] (interpolated between centroids)."""
        if not 0 <= q <= 1:
            raise ParameterError("q must lie in [0, 1]")
        self._flush()
        if not self._means:
            raise ParameterError("quantile of an empty digest")
        if len(self._means) == 1:
            return self._means[0]
        total = sum(self._weights)
        target = q * total
        cum = 0.0
        for i, (mean, weight) in enumerate(zip(self._means, self._weights)):
            if cum + weight / 2.0 >= target:
                if i == 0:
                    return mean
                prev_mean = self._means[i - 1]
                prev_mid = cum - self._weights[i - 1] / 2.0
                mid = cum + weight / 2.0
                frac = (target - prev_mid) / (mid - prev_mid) if mid > prev_mid else 0.0
                return prev_mean + frac * (mean - prev_mean)
            cum += weight
        return self._means[-1]

    def cdf(self, value: float) -> float:
        """Approximate fraction of the stream <= *value*."""
        self._flush()
        if not self._means:
            raise ParameterError("cdf of an empty digest")
        total = sum(self._weights)
        cum = 0.0
        for mean, weight in zip(self._means, self._weights):
            if mean >= value:
                return min(1.0, cum / total)
            cum += weight
        return 1.0

    @property
    def n_centroids(self) -> int:
        """Number of centroids after compaction (space gauge)."""
        self._flush()
        return len(self._means)

    def _merge_key(self) -> tuple:
        return (self.delta,)

    def _merge_into(self, other: "TDigest") -> None:
        # Flush a probe, not *other*: a merge must not mutate its argument
        # (often a live shard).
        probe = TDigest(other.delta, other.buffer_size)
        probe._means, probe._weights, probe._buffer = other._means, other._weights, other._buffer
        probe._flush()
        self._buffer.extend(zip(probe._means, probe._weights))
        self.count += other.count
        self._flush()

    def to_bytes(self) -> bytes:
        """Serialize to a versioned byte payload."""
        self._flush()
        return dump_state(
            _TYPE_TAG,
            {
                "delta": self.delta,
                "buffer_size": self.buffer_size,
                "count": self.count,
                "means": list(self._means),
                "weights": list(self._weights),
            },
        )

    @classmethod
    def from_bytes(cls, payload: bytes) -> "TDigest":
        """Reconstruct a digest from :meth:`to_bytes` output."""
        state = load_state(_TYPE_TAG, payload)
        obj = cls(delta=state["delta"], buffer_size=state["buffer_size"])
        obj.count = state["count"]
        obj._means = list(state["means"])
        obj._weights = list(state["weights"])
        return obj

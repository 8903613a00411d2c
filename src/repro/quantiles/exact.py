"""Exact quantiles from a sorted buffer — the ground-truth baseline.

Every sketch in this package answers rank queries approximately in small
memory; :class:`ExactQuantiles` answers them *exactly* by keeping every
value in one sorted buffer. It exists for two jobs:

* **accuracy reference** — tests compare GK/KLL/t-digest answers against
  the exact ranks this class reports over the same stream;
* **partitioned-state workload** — each insert costs ``O(n)`` in the
  buffer size (``bisect`` + list shift), so sharding the stream across K
  partitions divides the *total* maintenance work by ~K. The spike
  workload's ``latency`` bolt (:mod:`repro.workloads.spike`) shards it
  by key, which is where the elasticity bench's scale-out gain comes
  from: real work reduction, not just parallel wall-clock (see
  :mod:`repro.bench.elastic`).

The merge is a sorted-multiset union, so merged shard partials are
bit-identical to a single-stream buffer regardless of how the stream was
partitioned — the strongest form of the paper's Section 2 scale-out
contract (merge-on-query with *zero* approximation drift).
"""

from __future__ import annotations

import heapq
from bisect import insort
from typing import Any

from repro.common.exceptions import ParameterError
from repro.common.mergeable import SynopsisBase, shard_of


class ExactQuantiles(SynopsisBase):
    """Exact rank/quantile queries over all values seen so far."""

    def __init__(self):
        self._values: list[Any] = []

    @property
    def count(self) -> int:
        """Number of values absorbed."""
        return len(self._values)

    def update(self, item: Any) -> None:
        """Insert *item* into the sorted buffer (``O(n)`` shift cost)."""
        insort(self._values, item)

    def quantile(self, q: float) -> Any:
        """The exact *q*-quantile (nearest-rank; ``0 <= q <= 1``)."""
        if not 0.0 <= q <= 1.0:
            raise ParameterError("q must lie in [0, 1]")
        if not self._values:
            raise ParameterError("quantile of an empty stream is undefined")
        rank = min(len(self._values) - 1, int(q * len(self._values)))
        return self._values[rank]

    def rank(self, value: Any) -> int:
        """How many absorbed values are strictly less than *value*."""
        from bisect import bisect_left

        return bisect_left(self._values, value)

    def _merge_into(self, other: "ExactQuantiles") -> None:
        # Sorted-multiset union: linear, and partition-independent — the
        # merged buffer is bit-identical to single-stream ingestion no
        # matter how the stream was sharded.
        self._values = list(heapq.merge(self._values, other._values))

    def _split_into(self, n: int) -> list["ExactQuantiles"]:
        """Partition the buffer by value hash.

        Appending in buffer order keeps every shard sorted, and the merge's
        sorted-multiset union restores the exact original buffer. This is
        the split the elastic runtime leans on hardest: each shard's O(n)
        insert cost drops with its share of the values, so raising a
        quantile bolt's parallelism genuinely divides the maintenance work.
        """
        parts = [ExactQuantiles() for __ in range(n)]
        for value in self._values:
            parts[shard_of(value, n)]._values.append(value)
        return parts

    def size_bytes(self) -> int:
        """Footprint is the buffer itself (exactness is paid in memory)."""
        return super().size_bytes()

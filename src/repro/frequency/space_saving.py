"""SpaceSaving / Stream-Summary [Metwally, Agrawal & El Abbadi, ICDT 2005].

The paper's "efficient computation of frequent and top-k elements"
citation, and in practice the best-behaved counter-based heavy-hitters
algorithm: keep *k* counters; on a miss, evict the minimum counter and
adopt its count + 1 (recording the inherited error). Estimates *overcount*
by at most the adopted error, every item with frequency > n/k is tracked,
and summaries merge cleanly.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from typing import Any, Hashable, Iterable

from repro.common.exceptions import ParameterError, SerializationError
from repro.common.mergeable import SynopsisBase, shard_of
from repro.common.serialization import dump_state, load_state

_TYPE_TAG = "space_saving"

#: The lazy heap is compacted once it holds more than this many entries
#: per counter, so it stays O(k) however long the stream.
_HEAP_SLACK = 4


class SpaceSaving(SynopsisBase):
    """Top-k / heavy-hitters summary with *k* (count, error) counters."""

    def __init__(self, k: int):
        if k <= 0:
            raise ParameterError("counter budget k must be positive")
        self.k = k
        self.count = 0
        self._counts: dict[Hashable, int] = {}
        self._errors: dict[Hashable, int] = {}
        # Lazy min-heap of (count, tiebreak, item); stale entries skipped.
        self._heap: list[tuple[int, int, Hashable]] = []
        self._tiebreak = itertools.count()

    def update(self, item: Any) -> None:
        self.update_weighted(item, 1)

    def update_weighted(self, item: Any, weight: int) -> None:
        """Absorb *item* with integer *weight* >= 1."""
        if weight <= 0:
            raise ParameterError("weight must be positive")
        self.count += weight
        if item in self._counts:
            self._counts[item] += weight
            self._push(self._counts[item], item)
            return
        if len(self._counts) < self.k:
            self._counts[item] = weight
            self._errors[item] = 0
            self._push(weight, item)
            return
        # Evict the current minimum (skipping stale heap entries).
        while True:
            cnt, __, victim = self._heap[0]
            if self._counts.get(victim) == cnt:
                break
            heapq.heappop(self._heap)
        heapq.heappop(self._heap)
        del self._counts[victim]
        del self._errors[victim]
        self._counts[item] = cnt + weight
        self._errors[item] = cnt
        self._push(cnt + weight, item)

    def _push(self, cnt: int, item: Hashable) -> None:
        """Push a live heap entry; past ``_HEAP_SLACK * k`` entries, keep
        only the live ones. Evictions stay bit-exact: the minimum count
        never decreases, so a stale entry never turns live again, and the
        order of the live ``(count, tiebreak)`` pairs is unchanged."""
        heap = self._heap
        heapq.heappush(heap, (cnt, next(self._tiebreak), item))
        if len(heap) > _HEAP_SLACK * self.k:
            counts = self._counts
            heap[:] = [e for e in heap if counts.get(e[2]) == e[0]]
            heapq.heapify(heap)

    def update_many(self, items: Iterable[Any]) -> None:
        """Batch ingest with :class:`collections.Counter` pre-aggregation.

        When the batch triggers no evictions (every distinct batch item is
        already tracked or fits in the counter budget) the pre-aggregated
        weighted fold is exactly equivalent to sequential updates:
        increments commute and fresh items inherit error 0 either way. If
        an eviction *could* occur, the order-dependent sequential path runs
        instead, keeping the equivalence invariant bit-exact.
        """
        items = items if isinstance(items, (list, tuple)) else list(items)
        if not items:
            return
        counts = self._counts
        room = self.k - len(counts)
        if room == 0:
            # Saturated table: the fold is exact iff every batch item is
            # already tracked. The containment scan short-circuits at the
            # first fresh item, so a batch that must evict pays (almost)
            # nothing before falling back to the sequential path.
            if all(item in counts for item in items):
                for item, weight in Counter(items).items():
                    self.update_weighted(item, weight)
                return
            update = self.update
            for item in items:
                update(item)
            return
        # Count fresh distinct items with an early abort: the moment the
        # batch cannot fit, stop scanning and replay sequentially.
        fresh: set = set()
        for item in items:
            if item not in counts and item not in fresh:
                fresh.add(item)
                if len(fresh) > room:
                    update = self.update
                    for it in items:
                        update(it)
                    return
        for item, weight in Counter(items).items():
            self.update_weighted(item, weight)

    def estimate(self, item: Any) -> int:
        """Upper-bound estimate of the frequency of *item*."""
        return self._counts.get(item, 0)

    def guaranteed_count(self, item: Any) -> int:
        """Lower bound: estimate minus inherited error."""
        return self._counts.get(item, 0) - self._errors.get(item, 0)

    def top(self, n: int) -> list[tuple[Hashable, int]]:
        """The *n* items with the largest estimated counts."""
        ordered = sorted(self._counts.items(), key=lambda kv: -kv[1])
        return ordered[:n]

    def heavy_hitters(self, threshold: float) -> dict[Hashable, int]:
        """Items with estimated frequency >= ``threshold * n``.

        Contains every item whose true frequency exceeds that bar (the
        SpaceSaving no-false-negative guarantee for threshold >= 1/k).
        """
        if not 0 < threshold <= 1:
            raise ParameterError("threshold must lie in (0, 1]")
        floor = threshold * self.count
        return {it: c for it, c in self._counts.items() if c >= floor}

    def _merge_key(self) -> tuple:
        return (self.k,)

    def _merge_into(self, other: "SpaceSaving") -> None:
        """Merge by summing counts/errors; absent items inherit the other
        side's minimum count as error (standard mergeable-summaries rule)."""
        my_min = min(self._counts.values()) if len(self._counts) == self.k else 0
        their_min = min(other._counts.values()) if len(other._counts) == other.k else 0
        combined_counts: dict[Hashable, int] = {}
        combined_errors: dict[Hashable, int] = {}
        for item in set(self._counts) | set(other._counts):
            mine = self._counts.get(item)
            theirs = other._counts.get(item)
            if mine is not None and theirs is not None:
                combined_counts[item] = mine + theirs
                combined_errors[item] = self._errors[item] + other._errors[item]
            elif mine is not None:
                combined_counts[item] = mine + their_min
                combined_errors[item] = self._errors[item] + their_min
            else:
                combined_counts[item] = theirs + my_min
                combined_errors[item] = other._errors[item] + my_min
        # Keep the k largest.
        kept = sorted(combined_counts.items(), key=lambda kv: -kv[1])[: self.k]
        self._counts = dict(kept)
        self._errors = {it: combined_errors[it] for it, __ in kept}
        self._reheap()
        self.count += other.count

    def _reheap(self) -> None:
        """One heap entry per tracked counter, in counter order."""
        self._heap = [(cnt, next(self._tiebreak), it) for it, cnt in self._counts.items()]
        heapq.heapify(self._heap)

    def _split_into(self, n: int) -> list["SpaceSaving"]:
        """Partition counters by key hash.

        The re-merge is exact because the shards' key sets are disjoint and
        their combined size is the original table's (<= k), so the merge
        never reaches its keep-top-k cutoff, and a shard's table can only be
        full (len == k, activating min-inheritance) when every other shard
        is empty — min-inheritance then adds the empty side's minimum of 0.
        """
        parts = [SpaceSaving(self.k) for __ in range(n)]
        for item, cnt in self._counts.items():
            part = parts[shard_of(item, n)]
            part._counts[item] = cnt
            part._errors[item] = self._errors[item]
            part.count += cnt
        for part in parts:
            part._reheap()
        # Tracked counts can undershoot (or, after lossy merges, overshoot)
        # the stream length; shard 0 absorbs the residual so counts re-sum
        # to self.count exactly.
        parts[0].count += self.count - sum(p.count for p in parts)
        return parts

    def __len__(self) -> int:
        return len(self._counts)

    def to_bytes(self) -> bytes:
        """Serialize to a versioned byte payload.

        Keys must be strings, ints, floats or tuples thereof (the
        serialization layer's portable key types).
        """
        items = list(self._counts)
        try:
            return dump_state(
                _TYPE_TAG,
                {
                    "k": self.k,
                    "count": self.count,
                    "counts": {it: self._counts[it] for it in items},
                    "errors": {it: self._errors[it] for it in items},
                },
            )
        except (TypeError, SerializationError) as exc:
            raise SerializationError(
                "SpaceSaving keys must be JSON-portable to serialize"
            ) from exc

    @classmethod
    def from_bytes(cls, payload: bytes) -> "SpaceSaving":
        """Reconstruct a summary from :meth:`to_bytes` output."""
        state = load_state(_TYPE_TAG, payload)
        obj = cls(state["k"])
        obj.count = state["count"]
        obj._counts = dict(state["counts"])
        obj._errors = dict(state["errors"])
        obj._reheap()
        return obj

"""SpaceSaving's lazy heap stays O(k) and its evictions stay bit-exact.

Every increment of a tracked item pushes a fresh ``(count, tiebreak,
item)`` heap entry and leaves the old one stale. Without compaction the
heap grows with the stream; with it, the heap is rebuilt from its live
entries once it holds more than ``4 * k``. The reference below is the
uncompacted eviction rule, kept here verbatim so the two can be run side
by side: counters, errors, totals and ``top(n)`` (tie order included)
must agree after every batch, through sequential, ``update_many`` and
weighted ingest, a merge and a split.
"""

from __future__ import annotations

import heapq
import random

import pytest

from repro.frequency import SpaceSaving
from repro.workloads import zipf_stream

HEAP_SLACK = 4


class _Uncompacted(SpaceSaving):
    """SpaceSaving with the lazy heap left to grow (the reference rule)."""

    peak = 0  # the largest heap seen at the start of an update

    def update_weighted(self, item, weight):
        self.peak = max(self.peak, len(self._heap))
        self.count += weight
        if item in self._counts:
            self._counts[item] += weight
            heapq.heappush(self._heap, (self._counts[item], next(self._tiebreak), item))
            return
        if len(self._counts) < self.k:
            self._counts[item] = weight
            self._errors[item] = 0
            heapq.heappush(self._heap, (weight, next(self._tiebreak), item))
            return
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
        heapq.heappush(self._heap, (cnt + weight, next(self._tiebreak), item))


def _as_reference(summary: SpaceSaving) -> _Uncompacted:
    """A reference summary holding *summary*'s state (split shards and
    merge results come back as plain SpaceSaving)."""
    ref = _Uncompacted.__new__(_Uncompacted)
    ref.__dict__.update(summary.__dict__)
    return ref


def _assert_same(live: SpaceSaving, ref: SpaceSaving) -> None:
    assert list(live._counts.items()) == list(ref._counts.items())
    assert list(live._errors.items()) == list(ref._errors.items())
    assert live.count == ref.count
    for n in (1, 3, live.k, live.k + 5):
        assert live.top(n) == ref.top(n)
    assert len(live._heap) <= HEAP_SLACK * live.k


def _feed(summary: SpaceSaving, batch: list, mode: str, weights: list) -> None:
    if mode == "sequential":
        for item in batch:
            summary.update(item)
    elif mode == "update_many":
        summary.update_many(batch)
    else:
        for item, weight in zip(batch, weights):
            summary.update_weighted(item, weight)


def _batches(seed: int, n: int, universe: int):
    rnd = random.Random(seed)
    stream = list(zipf_stream(n, universe=universe, skew=1.1, seed=seed))
    start = 0
    while start < len(stream):
        size = rnd.choice((1, 7, 64, 500))
        batch = stream[start : start + size]
        yield batch, [rnd.randint(1, 5) for __ in batch]
        start += size


@pytest.mark.parametrize("mode", ["sequential", "update_many", "update_weighted"])
@pytest.mark.parametrize("k", [1, 2, 8, 64])
def test_compacted_heap_matches_uncompacted_reference(k, mode):
    live, ref = SpaceSaving(k), _Uncompacted(k)
    batches = list(_batches(seed=k, n=12_000, universe=40 * k))
    side_live, side_ref = SpaceSaving(k), _Uncompacted(k)
    for batch, weights in _batches(seed=100 + k, n=2_000, universe=40 * k):
        _feed(side_live, batch, mode, weights)
        _feed(side_ref, batch, mode, weights)
    _assert_same(side_live, side_ref)

    merge_at, split_at = len(batches) // 3, 2 * len(batches) // 3
    ref_peak = 0
    for index, (batch, weights) in enumerate(batches):
        if index == merge_at:
            live.merge(side_live)
            ref.merge(side_ref)
            _assert_same(live, ref)
        if index == split_at:
            ref_peak = ref.peak
            live_shards = live.split(3)
            ref_shards = [_as_reference(shard) for shard in ref.split(3)]
            for shard_live, shard_ref in zip(live_shards, ref_shards):
                _feed(shard_live, batch, mode, weights)
                _feed(shard_ref, batch, mode, weights)
                _assert_same(shard_live, shard_ref)
            live, ref = live_shards[0], ref_shards[0]
            for shard_live, shard_ref in zip(live_shards[1:], ref_shards[1:]):
                live.merge(shard_live)
                ref.merge(shard_ref)
            _assert_same(live, ref)
            ref_peak = max([ref_peak] + [shard.peak for shard in ref_shards])
            ref = _as_reference(ref)
            continue
        _feed(live, batch, mode, weights)
        _feed(ref, batch, mode, weights)
        _assert_same(live, ref)
    # The reference really did grow past the bound the live heap keeps.
    assert max(ref_peak, ref.peak) > HEAP_SLACK * k


def test_heap_bound_holds_after_every_update():
    summary = SpaceSaving(3)
    for item in zipf_stream(5_000, universe=50, skew=1.2, seed=4):
        summary.update(item)
        assert len(summary._heap) <= HEAP_SLACK * 3

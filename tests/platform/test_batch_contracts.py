"""Batch APIs must be observationally identical to their per-tuple forms.

``Grouping.targets_batch`` and ``Spout.next_batch`` exist so the cluster
coordinator can move envelopes, not tuples — but any divergence from the
per-tuple contract would silently re-partition the stream. These tests
pin the equivalence, plus the ``split()`` partitioning used for parallel
spouts.
"""

import pytest

from repro.common.exceptions import TopologyError
from repro.common.hashing import hash64
from repro.platform import groupings
from repro.platform.groupings import (
    AllGrouping,
    FieldsGrouping,
    GlobalGrouping,
    ShuffleGrouping,
)
from repro.platform.topology import ListSpout, Spout, is_partitionable


_PAYLOADS = [(f"k{i % 7}", i) for i in range(64)]


class _Tup:
    """Minimal stand-in for the executor's StreamTuple (.values only)."""

    __slots__ = ("values",)

    def __init__(self, values):
        self.values = values


class TestTargetsBatch:
    @pytest.mark.parametrize("n_tasks", [1, 2, 5])
    def test_fields_grouping_batch_equals_per_tuple(self, n_tasks):
        grouping = FieldsGrouping(0)
        batch = FieldsGrouping(0)
        expected = [grouping.targets(_Tup(p), n_tasks) for p in _PAYLOADS]
        assert batch.targets_batch(list(_PAYLOADS), n_tasks) == expected

    def test_shuffle_grouping_batch_preserves_sequence(self):
        a, b = ShuffleGrouping(seed=3), ShuffleGrouping(seed=3)
        expected = [a.targets(_Tup(p), 4) for p in _PAYLOADS]
        assert b.targets_batch(list(_PAYLOADS), 4) == expected

    def test_global_and_all_groupings(self):
        assert GlobalGrouping().targets_batch(_PAYLOADS[:3], 5) == [[0]] * 3
        assert AllGrouping().targets_batch(_PAYLOADS[:2], 3) == [[0, 1, 2]] * 2

    def test_fields_grouping_key_cache_does_not_leak_between_keys(self):
        grouping = FieldsGrouping(0)
        routes = grouping.targets_batch([("x", 0), ("y", 1), ("x", 2)], 8)
        assert routes[0] == routes[2]  # same key, same shard
        # different key may map elsewhere, but must match per-tuple form
        assert routes[1] == FieldsGrouping(0).targets(_Tup(("y", 1)), 8)


#: Equal as dict keys in several ways (``1 == True == 1.0``,
#: ``0 == False == 0.0 == -0.0``) but encoded, and so hashed, apart.
_TWINS = [1, True, 1.0, 0, False, 0.0, -0.0, "1", b"1"]


class TestTypeExactKeys:
    """Equal keys of different types route by their own hash, never a twin's."""

    N_TASKS = 16

    def _expected(self, keys):
        return [[hash64(key) % self.N_TASKS] for key in keys]

    def test_known_twins_route_apart(self):
        routes = FieldsGrouping(0).targets_batch([(1,), (True,), (1.0,)], self.N_TASKS)
        assert routes == [[13], [0], [8]]

    @pytest.mark.parametrize("order", [1, -1])
    def test_per_tuple_cache_is_type_exact(self, order):
        grouping = FieldsGrouping(0)
        keys = [(k,) for k in _TWINS[::order]] * 3  # second and third pass hit
        routes = [grouping.targets(_Tup(key), self.N_TASKS) for key in keys]
        assert routes == self._expected(keys)

    @pytest.mark.parametrize("order", [1, -1])
    def test_targets_batch_equals_per_tuple(self, order):
        keys = [(k,) for k in _TWINS[::order]] * 3
        assert FieldsGrouping(0).targets_batch(keys, self.N_TASKS) == self._expected(keys)

    @pytest.mark.parametrize("order", [1, -1])
    def test_route_batch_targets_and_khashes(self, order):
        keys = [(k,) for k in _TWINS[::order]] * 3
        routes, khashes = FieldsGrouping(0).route_batch(keys, self.N_TASKS)
        assert routes == self._expected(keys)
        assert khashes == [hash64(key) for key in keys]

    def test_multi_field_twins(self):
        payloads = [(1, "a"), (True, "a"), (1.0, "a"), ("a", 1), ("a", True)] * 2
        grouping = FieldsGrouping(0, 1)
        expected = self._expected(payloads)
        assert [grouping.targets(_Tup(p), self.N_TASKS) for p in payloads] == expected
        assert grouping.targets_batch(payloads, self.N_TASKS) == expected
        routes, khashes = grouping.route_batch(payloads, self.N_TASKS)
        assert routes == expected
        assert khashes == [hash64(p) for p in payloads]

    def test_subclass_values_are_not_cached(self):
        class Word(str):
            pass

        grouping = FieldsGrouping(0)
        for value in ("w", Word("w"), "w"):
            assert grouping.targets(_Tup((value,)), 5) == [hash64((value,)) % 5]
        assert all(type(k) is str for k in grouping._cache[1])


class TestFieldsKeyCache:
    """The key cache that lasts across calls never changes an answer."""

    KEYS = [f"k{i}" for i in range(40)] + list(range(-20, 20)) + [b"x", b"y"]

    def test_task_count_changes_reset_the_cache(self):
        grouping = FieldsGrouping(0)
        for n_tasks in (4, 6, 4, 1, 6):
            routes = [grouping.targets(_Tup((key,)), n_tasks) for key in self.KEYS]
            assert routes == [[hash64((key,)) % n_tasks] for key in self.KEYS]
            assert grouping._cache[0] == n_tasks

    def test_bound_keeps_answers_and_size(self, monkeypatch):
        monkeypatch.setattr(groupings, "KEY_CACHE_MAX", 8)
        grouping = FieldsGrouping(0)
        for __ in range(2):
            for key in self.KEYS:
                assert grouping.targets(_Tup((key, 0)), 7) == [hash64((key,)) % 7]
                assert len(grouping._cache[1]) <= 8

    def test_routes_are_shared_per_task(self):
        grouping = FieldsGrouping(0)
        first = grouping.targets(_Tup(("a",)), 3)
        assert grouping.targets(_Tup(("a",)), 3) is first
        same_task = [
            grouping.targets(_Tup((key,)), 3)
            for key in self.KEYS
            if hash64((key,)) % 3 == first[0]
        ]
        assert all(route is first for route in same_task)


class TestNextBatch:
    def test_next_batch_equals_next_tuple_sequence(self):
        records = [(i,) for i in range(23)]
        one, many = ListSpout(records), ListSpout(records)
        expected = []
        while True:
            payload = one.next_tuple()
            if payload is None:
                break
            expected.append(payload)
        got = []
        while True:
            batch = many.next_batch(5)
            if not batch:
                break
            got.extend(batch)
        assert got == expected

    def test_next_batch_tracks_offsets(self):
        spout = ListSpout([(i,) for i in range(10)])
        spout.next_batch(4)
        assert spout.last_offset == 3
        assert spout.offset == 4

    def test_next_batch_drains_retry_queue_first(self):
        spout = ListSpout([(i,) for i in range(6)])
        spout.next_batch(4)
        spout.fail(1)  # record 1 must come around again
        replayed = spout.next_batch(3)
        assert (1,) in replayed


class TestSplit:
    def test_split_partitions_round_robin(self):
        records = [(i,) for i in range(10)]
        parts = ListSpout(records).split(3)
        assert len(parts) == 3
        seen = []
        for part in parts:
            while True:
                payload = part.next_tuple()
                if payload is None:
                    break
                seen.append(payload)
        assert sorted(seen) == sorted(records)

    def test_default_spout_is_not_partitionable(self):
        class _Plain(Spout):
            def next_tuple(self):
                return None

        assert not is_partitionable(_Plain())
        assert is_partitionable(ListSpout([]))
        with pytest.raises(TopologyError):
            _Plain().split(2)

"""Tests for topology construction, groupings and the acker."""

import pytest

from repro.common.exceptions import ExecutionError, TopologyError
from repro.platform import (
    Acker,
    AllGrouping,
    FieldsGrouping,
    GlobalGrouping,
    ListSpout,
    MapBolt,
    ShuffleGrouping,
    StreamTuple,
    TopologyBuilder,
)


def _tuple(*values):
    return StreamTuple(values=values)


class TestGroupings:
    def test_fields_grouping_key_affinity(self):
        g = FieldsGrouping(0)
        t1, t2 = _tuple("k", 1), _tuple("k", 2)
        assert g.targets(t1, 8) == g.targets(t2, 8)

    def test_fields_grouping_spreads_keys(self):
        g = FieldsGrouping(0)
        targets = {g.targets(_tuple(f"key{i}"), 8)[0] for i in range(100)}
        assert len(targets) >= 6

    def test_fields_grouping_needs_indices(self):
        with pytest.raises(Exception):
            FieldsGrouping()

    def test_global_grouping(self):
        assert GlobalGrouping().targets(_tuple(1), 8) == [0]

    def test_all_grouping(self):
        assert AllGrouping().targets(_tuple(1), 4) == [0, 1, 2, 3]

    def test_shuffle_balanced(self):
        g = ShuffleGrouping(seed=0)
        counts = [0] * 4
        for __ in range(4_000):
            counts[g.targets(_tuple(1), 4)[0]] += 1
        assert max(counts) < 1.3 * min(counts)


class TestTopologyBuilder:
    def test_needs_spout(self):
        with pytest.raises(TopologyError):
            TopologyBuilder().build()

    def test_bolt_needs_inputs(self):
        b = TopologyBuilder()
        b.set_spout("s", lambda: ListSpout([1]))
        b.set_bolt("orphan", lambda: MapBolt(lambda v: v))
        with pytest.raises(TopologyError):
            b.build()

    def test_unknown_source_rejected(self):
        b = TopologyBuilder()
        b.set_spout("s", lambda: ListSpout([1]))
        b.set_bolt("b", lambda: MapBolt(lambda v: v)).shuffle("nope")
        with pytest.raises(TopologyError):
            b.build()

    def test_duplicate_names_rejected(self):
        b = TopologyBuilder()
        b.set_spout("x", lambda: ListSpout([1]))
        with pytest.raises(TopologyError):
            b.set_bolt("x", lambda: MapBolt(lambda v: v))

    def test_cycle_rejected(self):
        b = TopologyBuilder()
        b.set_spout("s", lambda: ListSpout([1]))
        b.set_bolt("a", lambda: MapBolt(lambda v: v)).shuffle("s").shuffle("b")
        b.set_bolt("b", lambda: MapBolt(lambda v: v)).shuffle("a")
        with pytest.raises(TopologyError):
            b.build()

    def test_valid_dag_builds(self):
        b = TopologyBuilder()
        b.set_spout("s", lambda: ListSpout([1, 2]))
        b.set_bolt("a", lambda: MapBolt(lambda v: v), parallelism=2).shuffle("s")
        b.set_bolt("c", lambda: MapBolt(lambda v: v)).fields("a", 0)
        topo = b.build()
        assert topo.spout_names == ["s"]
        assert set(topo.bolt_names) == {"a", "c"}
        assert [name for name, __ in topo.consumers_of("s")] == ["a"]


class TestAcker:
    def test_simple_tree_completes(self):
        acker = Acker()
        acker.register(1, 0)
        acker.anchor(1, 100)
        assert not acker.ack(1, 999)  # unrelated id, no-op tree change
        acker.anchor(1, 999)  # cancel it back
        assert acker.ack(1, 100)
        assert acker.n_pending == 0
        assert not acker.ack(1, 100)  # a completed root is gone

    def test_multi_level_tree(self):
        acker = Acker()
        acker.register(7, 0)
        acker.anchor(7, 10)  # root copy
        acker.anchor(7, 20)  # child emitted
        acker.anchor(7, 21)  # another child
        assert not acker.ack(7, 10)
        assert not acker.ack(7, 20)
        assert acker.ack(7, 21)
        assert acker.n_pending == 0

    def test_duplicate_register_rejected(self):
        acker = Acker()
        acker.register(1, 0)
        with pytest.raises(ExecutionError):
            acker.register(1, 0)

    def test_fail_removes(self):
        acker = Acker()
        for root in (5, 6, 7):
            acker.register(root, 0)
            acker.anchor(root, 50 + root)
        assert acker.pending() == [5, 6, 7]
        acker.fail(6)
        assert acker.n_pending == 2
        assert acker.pending() == [5, 7]
        assert not acker.ack(6, 56)  # a failed root never completes
        assert acker.ack(5, 55)
        assert acker.pending() == [7]


class TestListSpout:
    def test_sequential_emission(self):
        spout = ListSpout(["a", "b"])
        assert spout.next_tuple() == ("a",)
        assert spout.last_offset == 0
        assert spout.next_tuple() == ("b",)
        assert spout.next_tuple() is None

    def test_fail_replays(self):
        spout = ListSpout(["a", "b"])
        spout.next_tuple()
        spout.next_tuple()
        spout.fail(0)
        assert spout.next_tuple() == ("a",)
        assert spout.last_offset == 0

    def test_rewind(self):
        spout = ListSpout(["a", "b", "c"])
        for __ in range(3):
            spout.next_tuple()
        spout.rewind(1)
        assert spout.next_tuple() == ("b",)

"""Executor edge cases: backpressure, component errors, replay caps."""

import collections
import random

import pytest

from repro.common.exceptions import ExecutionError, ParameterError
from repro.platform import (
    Bolt,
    CollectorBolt,
    CountBolt,
    FaultInjector,
    FlatMapBolt,
    ListSpout,
    LocalExecutor,
    MapBolt,
    TopologyBuilder,
)


class TestBackpressure:
    def test_throttling_keeps_queues_bounded(self):
        """An amplifying bolt (1 -> 50 tuples) must not blow past max_queue
        by more than one burst."""
        builder = TopologyBuilder()
        builder.set_spout("s", lambda: ListSpout(list(range(200))))
        builder.set_bolt(
            "amplify", lambda: FlatMapBolt(lambda v: [(v[0], i) for i in range(50)])
        ).shuffle("s")
        builder.set_bolt("sink", CollectorBolt).global_("amplify")
        ex = LocalExecutor(builder.build(), max_queue=64)
        metrics = ex.run()
        (sink,) = ex.bolt_instances("sink")
        assert len(sink.results) == 200 * 50
        high_water = metrics.components["bolt:sink"].queue_high_water
        assert high_water <= 64 + 50  # one amplification burst of slack

    @pytest.mark.parametrize("max_queue", [0, -1])
    def test_rejects_nonpositive_max_queue(self, max_queue):
        builder = TopologyBuilder()
        builder.set_spout("s", lambda: ListSpout([1]))
        builder.set_bolt("sink", CollectorBolt).shuffle("s")
        with pytest.raises(ParameterError):
            LocalExecutor(builder.build(), max_queue=max_queue)

    @pytest.mark.parametrize("max_queue", [1, 3, 8])
    def test_pulls_stop_exactly_when_one_queue_is_full(self, max_queue):
        """Throttling is "some bolt queue holds max_queue entries", checked
        over every queue, at every step of a seeded pull/process mix."""
        builder = TopologyBuilder()
        builder.set_spout("s", lambda: ListSpout(list(range(400))))
        builder.set_bolt("a", CollectorBolt, parallelism=3).shuffle("s")
        builder.set_bolt("b", CollectorBolt).global_("s")
        ex = LocalExecutor(builder.build(), max_queue=max_queue)
        rnd = random.Random(max_queue)
        throttled_pulls = 0
        for __ in range(2_000):
            if rnd.random() < 0.6:
                full = any(len(q) >= max_queue for q in ex._queues.values())
                before = ex._source_pulls
                pulled = ex._pull_spout()
                assert pulled == (not full and before < 400)
                throttled_pulls += full
            else:
                ex._process_one()
        assert throttled_pulls > 0


class TestErrorPropagation:
    def test_bolt_exception_wrapped(self):
        class Exploding(Bolt):
            def process(self, values, emit):
                raise ValueError("boom")

        builder = TopologyBuilder()
        builder.set_spout("s", lambda: ListSpout([1]))
        builder.set_bolt("bad", Exploding).shuffle("s")
        ex = LocalExecutor(builder.build())
        with pytest.raises(ExecutionError, match="bad"):
            ex.run()


class TestReplayCap:
    def test_always_dropped_message_gives_up(self):
        """A 'poisoned' route (100% drop) must not loop forever in
        at-least-once mode; the replay cap bounds the retries."""
        builder = TopologyBuilder()
        builder.set_spout("s", lambda: ListSpout(["x"]))
        builder.set_bolt("count", CountBolt).fields("s", 0)
        ex = LocalExecutor(
            builder.build(),
            semantics="at_least_once",
            faults=FaultInjector(drop_probability=0.999999, seed=1),
            max_replays_per_message=5,
        )
        metrics = ex.run()  # must terminate
        assert metrics.replays <= 5
        assert metrics.components["spout:__all__"].failed >= 1


class TestDeterminism:
    def test_identical_runs_identical_metrics(self):
        words = ["a", "b", "c"] * 100

        def run():
            builder = TopologyBuilder()
            builder.set_spout("s", lambda: ListSpout(words))
            builder.set_bolt("count", CountBolt, parallelism=3).fields("s", 0)
            ex = LocalExecutor(
                builder.build(),
                semantics="at_least_once",
                faults=FaultInjector(drop_probability=0.05, seed=42),
            )
            ex.run()
            merged = collections.Counter()
            for bolt in ex.bolt_instances("count"):
                merged.update(bolt.counts)
            return merged, ex.metrics.replays

        first, second = run(), run()
        assert first == second


class TestDiamondTopology:
    def test_fan_out_fan_in(self):
        """Two parallel branches re-converging (diamond) with reliability."""
        builder = TopologyBuilder()
        builder.set_spout("s", lambda: ListSpout(list(range(50))))
        builder.set_bolt("double", lambda: MapBolt(lambda v: (v[0] * 2,))).shuffle("s")
        builder.set_bolt("negate", lambda: MapBolt(lambda v: (-v[0],))).shuffle("s")
        sink = builder.set_bolt("sink", CollectorBolt)
        sink.global_("double").global_("negate")
        ex = LocalExecutor(builder.build(), semantics="at_least_once")
        ex.run()
        (bolt,) = ex.bolt_instances("sink")
        values = sorted(v[0] for v in bolt.results)
        expected = sorted([i * 2 for i in range(50)] + [-i for i in range(50)])
        assert values == expected


def _fan_out_topology(records):
    builder = TopologyBuilder()
    builder.set_spout("s", lambda: ListSpout(records))
    builder.set_bolt(
        "split", lambda: FlatMapBolt(lambda v: [(w,) for w in v[0].split()]), parallelism=2
    ).shuffle("s")
    builder.set_bolt("count", CountBolt, parallelism=3).fields("split", 0)
    builder.set_bolt("every", CollectorBolt, parallelism=2).all("split")
    return builder.build()


def _watch(ex):
    """Record every delivered and processed tuple id, checking the ready
    invariant (each non-empty queue in ``_ready`` once, nothing else) at
    every processed entry."""
    delivered, processed = [], []
    deliver, process = ex._runner.deliver, ex._runner.process

    def watched_deliver(entry):
        delivered.append(entry[4])
        deliver(entry)

    def watched_process(entry):
        ready = [id(q) for q in ex._ready]
        assert len(ready) == len(set(ready))
        assert set(ready) == {id(q) for q in ex._queues.values() if q}
        processed.append(entry[4])
        return process(entry)

    ex._runner.deliver = watched_deliver
    ex._runner.process = watched_process
    return delivered, processed


class TestReadyQueues:
    SENTENCES = [f"w{i % 7} w{i % 3} w{i % 11}" for i in range(300)]

    def test_every_entry_processed_exactly_once(self):
        ex = LocalExecutor(_fan_out_topology(self.SENTENCES))
        delivered, processed = _watch(ex)
        ex.run()
        assert len(processed) == len(set(processed))
        assert sorted(processed) == sorted(delivered)
        assert len(delivered) == 300 + 900 * 3  # split + (count + 2 x every)
        assert not ex._ready

    def test_queues_take_turns(self):
        """A queue that keeps refilling cannot starve the others."""
        ex = LocalExecutor(_fan_out_topology(self.SENTENCES))
        order = []
        process = ex._runner.process

        def watched(entry):
            order.append((entry[0], entry[1]))
            return process(entry)

        ex._runner.process = watched
        for __ in range(4):
            ex._pull_spout()
        while ex._process_one():
            pass
        # Between two turns of one queue every other queue runs at most once.
        waits = {}
        for position, key in enumerate(order):
            waits.setdefault(key, []).append(position)
        n_queues = len(waits)
        for positions in waits.values():
            gaps = [b - a for a, b in zip(positions, positions[1:])]
            assert all(gap <= n_queues for gap in gaps)

    @pytest.mark.parametrize("semantics", ["exactly_once", "at_least_once"])
    def test_ready_is_empty_after_crash(self, semantics):
        ex = LocalExecutor(
            _fan_out_topology(self.SENTENCES),
            semantics=semantics,
            faults=FaultInjector(crash_after=700, seed=2),
            checkpoint_interval=50,
        )
        cleared = []
        clear = ex._clear_in_flight

        def watched_clear():
            clear()
            cleared.append((len(ex._ready), sum(len(q) for q in ex._queues.values())))

        ex._clear_in_flight = watched_clear
        delivered, processed = _watch(ex)
        ex.run()
        assert cleared and all(state == (0, 0) for state in cleared)
        assert not ex._ready
        expected = collections.Counter(w for s in self.SENTENCES for w in s.split())
        counts = collections.Counter()
        for bolt in ex.bolt_instances("count"):
            counts.update(bolt.counts)
        if semantics == "exactly_once":
            assert counts == expected
        else:
            assert set(counts) <= set(expected)

"""TaskRunner, driven directly: the operator loop both executors own.

``deliver`` appends to a list, so every routed copy is visible; the ack
algebra is read straight off ``runner.deltas``.
"""

import itertools

import pytest

from repro.common.exceptions import ExecutionError
from repro.platform import Bolt, FaultInjector, FlatMapBolt, TopologyBuilder
from repro.platform.faults import NO_FAULTS
from repro.platform.runner import TaskRunner
from repro.platform.topology import ListSpout

ROOT = 7
CONSUMED = 0xABCDEF


class _Lossy:
    """Injector stand-in: drops exactly the copies whose turn is listed."""

    def __init__(self, drop_turns=(), crash=False):
        self._drops = set(drop_turns)
        self._turn = itertools.count()
        self._crash = crash

    def should_drop(self):
        return next(self._turn) in self._drops

    def note_processed(self):
        return self._crash


class _Windowed(Bolt):
    """Buffers everything, emits it at flush."""

    def __init__(self):
        self.seen = []

    def process(self, values, emit):
        self.seen.append(values)

    def flush(self, emit):
        for values in self.seen:
            emit(*values)


def _topology(head_factory):
    builder = TopologyBuilder()
    builder.set_spout("src", lambda: ListSpout([]))
    builder.set_bolt("head", head_factory).shuffle("src")
    builder.set_bolt("tail", _Windowed, parallelism=2).all("head")
    return builder.build()


def _runner(head_factory, faults=NO_FAULTS, on_lost=lambda: None, spans=None):
    delivered: list[tuple] = []
    ids = itertools.count(1)
    runner = TaskRunner(
        _topology(head_factory),
        [("head", 0), ("tail", 0), ("tail", 1)],
        next_tuple_id=lambda: 1 << next(ids),  # distinct bits: XORs stay legible
        faults=faults,
        deliver=delivered.append,
        on_lost=on_lost,
        record_span=None if spans is None else spans.append,
    )
    return runner, delivered


def _splitter():
    return FlatMapBolt(lambda v: [(word,) for word in v[0].split()])


class _View:
    """What groupings read of a tuple: its values."""

    __slots__ = ("values",)

    def __init__(self, values):
        self.values = values


def _entry(values, trace=None, root=ROOT):
    return ("head", 0, values, root, CONSUMED, trace)


class TestAckAlgebra:
    def test_delta_is_every_copy_xor_the_consumed_id(self):
        runner, delivered = _runner(_splitter)
        assert runner.process(_entry(("a b",))) is False
        # two words x broadcast to two tail tasks = four copies
        assert [(e[0], e[1], e[2]) for e in delivered] == [
            ("tail", 0, ("a",)),
            ("tail", 1, ("a",)),
            ("tail", 0, ("b",)),
            ("tail", 1, ("b",)),
        ]
        copies = 0
        for entry in delivered:
            assert entry[3] == ROOT
            copies ^= entry[4]
        assert runner.deltas == {ROOT: copies ^ CONSUMED}
        assert runner.processed == {"head": 1}
        assert runner.emitted == {"head": 2}

    def test_dropped_copy_stays_anchored(self):
        lost = []
        runner, delivered = _runner(
            _splitter, faults=_Lossy(drop_turns={1}), on_lost=lambda: lost.append(1)
        )
        runner.process(_entry(("a",)))
        assert len(delivered) == 1 and lost == [1]
        # Consuming the one delivered copy leaves the dropped copy's id in
        # the tree: it can never complete, so the acker's owner replays.
        runner.process(delivered[0])
        # Whoever emitted the head entry anchored CONSUMED; fold that in.
        assert runner.deltas[ROOT] ^ CONSUMED == 1 << 2  # the second id handed out

    def test_untracked_entry_leaves_no_delta(self):
        runner, delivered = _runner(_splitter)
        runner.process(_entry(("a",), root=None))
        assert len(delivered) == 2
        assert runner.deltas == {}

    def test_raising_on_lost_leaves_no_delta(self):
        class Abandon(Exception):
            pass

        def on_lost():
            raise Abandon

        runner, delivered = _runner(
            _splitter, faults=_Lossy(drop_turns={2}), on_lost=on_lost
        )
        with pytest.raises(Abandon):
            runner.process(_entry(("a b",)))
        assert len(delivered) == 2  # the copies routed before the loss
        assert runner.deltas == {}

    def test_crash_signal_is_the_injectors(self):
        runner, __ = _runner(_splitter, faults=_Lossy(crash=True))
        assert runner.process(_entry(("a",))) is True


class TestFlush:
    def test_flush_bypasses_fault_injection_through_the_drain(self):
        runner, delivered = _runner(
            _Windowed, faults=FaultInjector(drop_probability=0.999999, seed=1)
        )
        runner.bolts[("head", 0)].seen.append(("kept",))
        drained = []

        def drain():
            # The owner's drain runs the cascade: still inside the flush.
            for entry in list(delivered):
                runner.process(entry)
            drained.append(len(delivered))

        runner.flush("head", drain)
        assert drained == [2]  # both broadcast copies survived a ~1.0 drop rate
        assert all(entry[3] is None for entry in delivered)  # flush output is untracked
        # ... and injection is back on afterwards.
        assert runner.route("head", ("x",), None, None)[0] == 0
        assert len(delivered) == 2

    def test_flush_only_touches_the_named_component(self):
        runner, delivered = _runner(_Windowed)
        runner.bolts[("tail", 1)].seen.append(("t",))
        runner.flush("head", lambda: None)
        assert delivered == []


class TestSpans:
    def test_traced_entry_records_fan_out_wait_and_parentage(self):
        spans: list = []
        runner, delivered = _runner(_splitter, spans=spans)
        runner.process(_entry(("a b",), trace=(99, 5, 2, 0.0)))
        (span,) = spans
        assert (span.trace_id, span.parent_id, span.attempt) == (99, 5, 2)
        assert (span.component, span.kind, span.task) == ("bolt:head", "process", 0)
        assert span.fan_out == 4
        assert span.queue_wait > 0.0  # enqueued at perf-counter instant 0.0
        assert span.msg_id == ROOT
        # Children hang off this span and carry their own enqueue instant.
        for entry in delivered:
            trace_id, parent, attempt, enqueued_at = entry[5]
            assert (trace_id, parent, attempt) == (99, span.span_id, 2)
            assert enqueued_at > 0.0

    def test_three_field_trace_has_no_queue_wait(self):
        spans: list = []
        runner, __ = _runner(_splitter, spans=spans)
        runner.process(_entry(("a",), trace=(99, 5, 1)))  # as the codec ships it
        assert spans[0].queue_wait == 0.0

    def test_untraced_entry_records_nothing(self):
        spans: list = []
        runner, delivered = _runner(_splitter, spans=spans)
        runner.process(_entry(("a",)))
        assert spans == [] and delivered[0][5] is None


class TestErrors:
    def test_bolt_error_is_wrapped_naming_bolt_and_values(self):
        class Exploding(Bolt):
            def process(self, values, emit):
                raise ValueError("boom")

            def flush(self, emit):
                raise KeyError("late")

        runner, __ = _runner(Exploding)
        with pytest.raises(ExecutionError, match=r"bolt 'head' failed on \('x',\)") as info:
            runner.process(_entry(("x",)))
        assert isinstance(info.value.__cause__, ValueError)
        assert runner.deltas == {}
        with pytest.raises(ExecutionError, match="bolt 'head' failed in flush"):
            runner.flush("head", lambda: None)
        # A failed flush does not leave fault injection suspended.
        assert runner._in_flush is False

    def test_emissions_before_an_error_do_not_leak_into_the_next_entry(self):
        class EmitThenFail(Bolt):
            def process(self, values, emit):
                emit("early")
                if values[0] == "bad":
                    raise ValueError("boom")

        runner, delivered = _runner(EmitThenFail)
        with pytest.raises(ExecutionError):
            runner.process(_entry(("bad",)))
        assert delivered == []
        runner.process(_entry(("good",)))
        assert [(e[0], e[1], e[2]) for e in delivered] == [
            ("tail", 0, ("early",)),
            ("tail", 1, ("early",)),
        ]


class TestRouteTable:
    def test_two_consumers_route_as_consumers_of_did(self):
        builder = TopologyBuilder()
        builder.set_spout("src", lambda: ListSpout([]))
        builder.set_bolt("keyed", _Windowed, parallelism=3).fields("src", 0)
        builder.set_bolt("every", _Windowed, parallelism=2).all("src")
        topology = builder.build()
        delivered: list[tuple] = []
        ids = itertools.count(1)
        runner = TaskRunner(
            topology,
            [("keyed", t) for t in range(3)] + [("every", t) for t in range(2)],
            next_tuple_id=lambda: 1 << next(ids),
            faults=NO_FAULTS,
            deliver=delivered.append,
            on_lost=lambda: None,
        )
        payloads = [(word,) for word in ("a", "b", "c", "a", 7, True)]
        anchors = [runner.route("src", values, ROOT, None) for values in payloads]

        # The per-emission loop the route table replaced.
        expected = []
        ref_ids = itertools.count(1)
        for values in payloads:
            for consumer, grouping in topology.consumers_of("src"):
                parallelism = topology.components[consumer].parallelism
                for task in grouping.targets(_View(values), parallelism):
                    expected.append((consumer, task, values, ROOT, 1 << next(ref_ids), None))
        assert delivered == expected
        assert [n for n, __ in anchors] == [3] * len(payloads)  # 1 keyed + 2 every
        xor = 0
        for __, anchor in anchors:
            xor ^= anchor
        assert xor == sum(1 << n for n in range(1, len(expected) + 1))

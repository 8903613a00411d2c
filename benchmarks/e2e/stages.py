"""Harness-side spouts, bolts, groupings and topologies.

Everything here subclasses the program's public ``Spout``/``Bolt``/
``Grouping`` and goes in through the public ``TopologyBuilder``: the
stamping components feed the latency metrics of untraced runs, and the
``Timed*`` wrappers record the spans of traced runs.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable

from repro.platform import (
    Bolt,
    CountBolt,
    FieldsGrouping,
    FlatMapBolt,
    GlobalGrouping,
    Grouping,
    ListSpout,
    ShuffleGrouping,
    Spout,
    SynopsisBolt,
    Topology,
    TopologyBuilder,
)
from repro.serving.demo import serving_summary

from common import LATENCY_SAMPLE
from ledger import Ledger


# -- stamping components (untraced and traced runs alike) -------------------


class StampSpout(ListSpout):
    """Emits ``(sentence, pulled_at)``: the instant the engine took the record.

    The instants also go to *stamps*, the caller's list: the time between
    pull *i* and pull *j* is what records *i* to *j* cost the run.
    """

    def __init__(self, records: list, stamps: list[float]):
        super().__init__(records)
        self.stamps = stamps

    def next_tuple(self) -> tuple | None:
        payload = super().next_tuple()
        if payload is None:
            return None
        now = perf_counter()
        self.stamps.append(now)
        return (payload[0], now)

    def next_batch(self, max_items: int) -> list[tuple]:
        # ListSpout's slicing fast path would skip the stamp.
        return Spout.next_batch(self, max_items)


class PacedSpout(Spout):
    """Open-loop source: record *i* may leave no earlier than ``due[i]``.

    Emits ``(sentence, due, event_id)``. Latency is timed from the due
    time, so a stalled or throttled engine shows up as latency on every
    event it kept waiting. How long after its due time each record left
    goes to *lags*, the caller's array. Failed messages replay at once. The
    cursor and the retry list are the spout's own: it leans on nothing of
    ``ListSpout`` and inherits ``Spout.next_batch``, which pulls through
    ``next_tuple``, so a batching engine cannot slice past the schedule.
    """

    def __init__(self, records: list, due: list[float], lags: array):
        self.records = records
        self.due = due
        self.lags = lags
        self.released = 0
        #: The engine's message id for the payload just handed out.
        self.last_offset = -1
        self.retries: list[int] = []

    def next_tuple(self) -> tuple | None:
        if self.retries:
            offset = self.retries.pop(0)
        elif self.released < len(self.due):
            lag = perf_counter() - self.due[self.released]
            if lag < 0:
                return None
            self.lags.append(lag)
            offset = self.released
            self.released += 1
        else:
            return None
        self.last_offset = offset
        return (self.records[offset][0], self.due[offset], offset)

    def fail(self, msg_id: int) -> None:
        self.retries.append(msg_id)


def split_words(values: tuple) -> list[tuple]:
    """``(sentence, *rest)`` -> one ``(word, *rest)`` per word."""
    rest = values[1:]
    return [(word,) + rest for word in values[0].split()]


class LatencyCount(CountBolt):
    """Keyed count that samples source-to-here residence time.

    ``values[1]`` is the source stamp (``perf_counter`` is one clock for
    every process of the machine, so the sample is valid in a worker).
    """

    def __init__(self) -> None:
        super().__init__(0, emit_updates=False)
        self.seen = 0
        self.latencies: list[float] = []

    def process(self, values: tuple, emit: Callable[..., None]) -> None:
        self.counts[values[0]] += 1
        self.seen += 1
        if not self.seen % LATENCY_SAMPLE:
            self.latencies.append(perf_counter() - values[1])

    def snapshot(self) -> dict:
        return {
            "counts": dict(self.counts),
            "seen": self.seen,
            "latencies": list(self.latencies),
        }

    def restore(self, state: dict | None) -> None:
        state = state or {"counts": {}, "seen": 0, "latencies": []}
        self.counts = defaultdict(int, state["counts"])
        self.seen = state["seen"]
        self.latencies = list(state["latencies"])


class ForwardingCount(Bolt):
    """Keyed count that passes the event's stamp and id downstream."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = defaultdict(int)

    def process(self, values: tuple, emit: Callable[..., None]) -> None:
        word, due, event = values
        self.counts[word] += 1
        emit(word, self.counts[word], due, event)


class ArrivalSink(Bolt):
    """Terminal bolt: records each tuple's event id and arrival instant.

    Typed arrays, not tuples in a list: the sink must not feed the garbage
    collector hundreds of thousands of objects in the middle of the run
    whose stalls it is there to observe.
    """

    def __init__(self) -> None:
        self.events = array("q")
        self.arrived = array("d")

    def process(self, values: tuple, emit: Callable[..., None]) -> None:
        self.events.append(values[3])
        self.arrived.append(perf_counter())


# -- timed wrappers (traced runs only) ---------------------------------


class TimedSpout(Spout):
    """Delegates to *inner*, one ``platform.topology.spout`` span per pull."""

    def __init__(self, inner: Spout, ledger: Ledger):
        self.inner = inner
        self.ledger = ledger

    def next_tuple(self) -> tuple | None:
        return self.ledger.call("platform.topology.spout", self.inner.next_tuple)

    def __getattr__(self, name: str) -> Any:
        # last_offset, exhausted: the inner's.
        return getattr(self.inner, name)

    def ack(self, msg_id: int) -> None:
        self.inner.ack(msg_id)

    def fail(self, msg_id: int) -> None:
        self.inner.fail(msg_id)

    def rewind(self, offset: int) -> None:
        self.inner.rewind(offset)

    @property
    def offset(self) -> int:
        return self.inner.offset


class TimedGrouping(Grouping):
    """Delegates to *inner*, one ``platform.groupings.targets`` span per call."""

    def __init__(self, inner: Grouping, ledger: Ledger):
        self.inner = inner
        self.ledger = ledger

    def targets(self, tup: Any, n_tasks: int) -> list[int]:
        return self.ledger.call(
            "platform.groupings.targets", self.inner.targets, tup, n_tasks
        )

    def targets_batch(self, payloads: list[tuple], n_tasks: int) -> list[list[int]]:
        return self.ledger.call(
            "platform.groupings.targets_batch",
            self.inner.targets_batch,
            payloads,
            n_tasks,
        )

    def route_batch(self, payloads: list[tuple], n_tasks: int):
        return self.ledger.call(
            "platform.groupings.targets_batch",
            self.inner.route_batch,
            payloads,
            n_tasks,
        )


class TimedBolt(Bolt):
    """Delegates to *inner*, one ``platform.operators.process`` span per tuple.

    In a cluster the bolt lives in a worker process, so its snapshot also
    carries that process's ledger home (``bolt_states`` returns it).
    """

    def __init__(self, inner: Bolt, ledger: Ledger):
        self.inner = inner
        self.ledger = ledger
        self.tuples_in = 0
        self.tuples_out = 0
        self._flushed = False

    def prepare(self, task_index: int, n_tasks: int) -> None:
        self.ledger.own()
        self.inner.prepare(task_index, n_tasks)

    def process(self, values: tuple, emit: Callable[..., None]) -> None:
        self.tuples_in += 1

        def counted_emit(*out: Any) -> None:
            self.tuples_out += 1
            emit(*out)

        self.ledger.call(
            "platform.operators.process", self.inner.process, values, counted_emit
        )

    def flush(self, emit: Callable[..., None]) -> None:
        self._flushed = True
        self.inner.flush(emit)

    def snapshot(self) -> dict:
        return {
            "inner": self.inner.snapshot(),
            "tuples_in": self.tuples_in,
            "tuples_out": self.tuples_out,
            # Spans only once the stream has ended: checkpoints stay small.
            "ledger": self.ledger.dump(with_spans=self._flushed),
        }

    def restore(self, state: dict | None) -> None:
        self.inner.restore(None if state is None else state["inner"])
        if state is not None:
            self.tuples_in = state["tuples_in"]
            self.tuples_out = state["tuples_out"]


def unwrap_state(state: Any) -> Any:
    """A bolt snapshot without the TimedBolt envelope, if it has one."""
    if isinstance(state, dict) and "inner" in state and "ledger" in state:
        return state["inner"]
    return state


# -- topologies ------------------------------------------------------


def _pipeline(
    spout: Callable[[], Spout],
    bolts: list[tuple[str, Callable[[], Bolt], int, str, Grouping]],
    ledger: Ledger | None,
) -> Topology:
    """Wire *spout* and *bolts* ``(name, factory, parallelism, source,
    grouping)``; with a ledger, every component goes in wrapped."""
    builder = TopologyBuilder()
    if ledger is None:
        builder.set_spout("sentences", spout)
    else:
        builder.set_spout("sentences", lambda: TimedSpout(spout(), ledger))
    for name, factory, parallelism, source, grouping in bolts:
        if ledger is not None:
            factory = _timed_factory(factory, ledger)
            grouping = TimedGrouping(grouping, ledger)
        builder.set_bolt(name, factory, parallelism).grouping(source, grouping)
    return builder.build()


def _timed_factory(factory: Callable[[], Bolt], ledger: Ledger) -> Callable[[], Bolt]:
    return lambda: TimedBolt(factory(), ledger)


def wordcount_topology(
    records: list, stamps: list[float], ledger: Ledger | None = None
) -> Topology:
    """sentences -> split (shuffle) -> count x4 (fields)."""
    return _pipeline(
        lambda: StampSpout(records, stamps),
        [
            ("split", lambda: FlatMapBolt(split_words), 1, "sentences", ShuffleGrouping(0)),
            ("count", LatencyCount, 4, "split", FieldsGrouping(0)),
        ],
        ledger,
    )


def cluster_topology(
    records: list, stamps: list[float], ledger: Ledger | None = None
) -> Topology:
    """sentences -> split -> {count x4 (fields), sketch x2 (shuffle)}.

    The sketch holds ExactQuantiles over word lengths, which keeps every
    value it has seen: checkpointed state grows with the stream.
    """
    return _pipeline(
        lambda: StampSpout(records, stamps),
        [
            ("split", lambda: FlatMapBolt(split_words), 1, "sentences", ShuffleGrouping(0)),
            ("count", LatencyCount, 4, "split", FieldsGrouping(0)),
            (
                "sketch",
                lambda: SynopsisBolt(serving_summary, batch_size=64),
                2,
                "split",
                ShuffleGrouping(1),
            ),
        ],
        ledger,
    )


def paced_topology(
    records: list, due: list[float], lags: array, ledger: Ledger | None = None
) -> Topology:
    """paced sentences -> split -> count x4 (fields) -> sink (global)."""
    return _pipeline(
        lambda: PacedSpout(records, due, lags),
        [
            ("split", lambda: FlatMapBolt(split_words), 1, "sentences", ShuffleGrouping(0)),
            ("count", ForwardingCount, 4, "split", FieldsGrouping(0)),
            ("sink", ArrivalSink, 1, "count", GlobalGrouping()),
        ],
        ledger,
    )

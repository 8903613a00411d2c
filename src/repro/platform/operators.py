"""Built-in bolts: the "common streaming operators" of Section 2.

Filtering, transformation, keyed aggregation, time windows, joins and
synopsis attachment — enough to express the benches' topologies (word
count, trending hashtags, windowed aggregation) declaratively.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable

from repro.common.exceptions import ParameterError
from repro.core import stateship
from repro.platform.topology import Bolt
from repro.windowing.windows import TumblingWindow


class MapBolt(Bolt):
    """Apply a function to each payload: ``emit(*fn(values))``.

    *fn* returns the new payload tuple (or None to drop).
    """

    def __init__(self, fn: Callable[[tuple], tuple | None]):
        self.fn = fn

    def process(self, values: tuple, emit) -> None:
        out = self.fn(values)
        if out is not None:
            emit(*out)


class FlatMapBolt(Bolt):
    """Apply a function producing zero or more payloads per input."""

    def __init__(self, fn: Callable[[tuple], list[tuple]]):
        self.fn = fn

    def process(self, values: tuple, emit) -> None:
        for out in self.fn(values):
            emit(*out)


class FilterBolt(Bolt):
    """Pass through payloads satisfying the predicate."""

    def __init__(self, predicate: Callable[[tuple], bool]):
        self.predicate = predicate

    def process(self, values: tuple, emit) -> None:
        if self.predicate(values):
            emit(*values)


class CountBolt(Bolt):
    """Keyed counting (word count): counts values[key_index] occurrences.

    State is checkpointable, so the bolt is exactly-once safe. Each update
    emits ``(key, count)``.
    """

    def __init__(self, key_index: int = 0, emit_updates: bool = True):
        self.key_index = key_index
        self.emit_updates = emit_updates
        self.counts: dict[Any, int] = defaultdict(int)

    def process(self, values: tuple, emit) -> None:
        key = values[self.key_index]
        self.counts[key] += 1
        if self.emit_updates:
            emit(key, self.counts[key])

    def snapshot(self):
        return dict(self.counts)

    def restore(self, state) -> None:
        self.counts = defaultdict(int, state or {})


class SynopsisBolt(Bolt):
    """Attach any library synopsis to a stream position.

    ``factory`` builds the synopsis; ``extract`` maps a payload to the item
    fed to the synopsis (default: first element). Items are buffered and
    flushed through ``synopsis.update_many`` every *batch_size* tuples so
    array-backed sketches hit their vectorized ingest path; the buffer is
    drained before every checkpoint snapshot and at end-of-stream, so the
    observable synopsis state is identical to per-tuple updates.

    The live synopsis is available as ``.synopsis`` after the run; a
    snapshot is that synopsis itself, drained (a view the caller copies,
    see :meth:`Bolt.snapshot`), so sketch state participates in
    exactly-once checkpoints.

    Observability: pass ``instrument=True`` (or a name string) to wrap the
    synopsis in an :class:`~repro.obs.instrument.InstrumentedSynopsis`
    publishing update/batch-size/memory metrics into *registry* (default:
    the process-wide registry). The wrapper is transparent to checkpoints
    — snapshots expose only the underlying sketch state, and instrument
    counters deliberately survive restores (observed work stays observed).
    """

    def __init__(
        self,
        factory: Callable[[], Any],
        extract: Callable[[tuple], Any] = None,
        batch_size: int = 256,
        instrument: bool | str = False,
        registry: Any = None,
    ):
        if batch_size <= 0:
            raise ParameterError("batch_size must be positive")
        self.factory = factory
        self.extract = extract or (lambda values: values[0])
        self.batch_size = batch_size
        self.instrument = instrument
        self.registry = registry
        self._synopsis = self._wrap(factory())
        self._buffer: list[Any] = []

    def _wrap(self, synopsis: Any) -> Any:
        if not self.instrument:
            return synopsis
        from repro.obs.instrument import InstrumentedSynopsis

        name = self.instrument if isinstance(self.instrument, str) else None
        return InstrumentedSynopsis(synopsis, registry=self.registry, name=name)

    def _unwrap(self) -> Any:
        from repro.obs.instrument import InstrumentedSynopsis

        if isinstance(self._synopsis, InstrumentedSynopsis):
            return self._synopsis.synopsis
        return self._synopsis

    @property
    def synopsis(self) -> Any:
        """The synopsis with every buffered item applied."""
        self._drain()
        return self._synopsis

    def _drain(self) -> None:
        if self._buffer:
            self._synopsis.update_many(self._buffer)
            self._buffer = []

    def process(self, values: tuple, emit) -> None:
        self._buffer.append(self.extract(values))
        if len(self._buffer) >= self.batch_size:
            self._drain()

    def flush(self, emit) -> None:
        self._drain()

    def snapshot(self):
        self._drain()
        return self._unwrap()

    def restore(self, state) -> None:
        # Buffered tuples are pre-checkpoint state: drop them — the spout
        # replays everything after the restored snapshot. A decoded
        # checkpoint lacks callable configuration (extractors, model
        # functions): a fresh factory instance supplies it.
        self._buffer = []
        fresh = self.factory()
        self._synopsis = self._wrap(fresh if state is None else stateship.adopt(fresh, state))


class TumblingWindowBolt(Bolt):
    """Group ``(timestamp, value)`` payloads into tumbling windows.

    Emits ``(window_start, window_end, aggregate)`` per closed window,
    where *aggregate* is ``agg(list_of_values)``.
    """

    def __init__(self, size: float, agg: Callable[[list], Any] = len):
        if size <= 0:
            raise ParameterError("window size must be positive")
        self.size = size
        self.agg = agg
        self._window = TumblingWindow(size)

    def process(self, values: tuple, emit) -> None:
        timestamp, value = values[0], values[1]
        for window in self._window.add(float(timestamp), value):
            emit(window.start, window.end, self.agg(list(window.items)))

    def flush(self, emit) -> None:
        for window in self._window.flush():
            emit(window.start, window.end, self.agg(list(window.items)))

    def snapshot(self):
        return self._window

    def restore(self, state) -> None:
        self._window = state if state is not None else TumblingWindow(self.size)


class JoinBolt(Bolt):
    """Hash join of two keyed streams within a per-key buffer.

    Payloads are ``(side, key, value)`` with side 0 or 1; on a match the
    bolt emits ``(key, left_value, right_value)`` for every buffered
    counterpart (one-to-many streaming equi-join, Photon-style).
    """

    def __init__(self, buffer_limit: int = 10_000):
        if buffer_limit <= 0:
            raise ParameterError("buffer_limit must be positive")
        self.buffer_limit = buffer_limit
        self._buffers: tuple[dict, dict] = (defaultdict(list), defaultdict(list))
        self._buffered = 0

    def process(self, values: tuple, emit) -> None:
        side, key, value = values
        if side not in (0, 1):
            raise ParameterError("join side must be 0 or 1")
        other = self._buffers[1 - side]
        for counterpart in other.get(key, ()):
            left, right = (value, counterpart) if side == 0 else (counterpart, value)
            emit(key, left, right)
        if self._buffered < self.buffer_limit:
            self._buffers[side][key].append(value)
            self._buffered += 1

    def snapshot(self):
        return (
            {k: list(v) for k, v in self._buffers[0].items()},
            {k: list(v) for k, v in self._buffers[1].items()},
            self._buffered,
        )

    def restore(self, state) -> None:
        if state is None:
            self._buffers = (defaultdict(list), defaultdict(list))
            self._buffered = 0
        else:
            left, right, buffered = state
            self._buffers = (defaultdict(list, left), defaultdict(list, right))
            self._buffered = buffered


class CollectorBolt(Bolt):
    """Terminal sink buffering everything it receives.

    The buffer is checkpointed state, which makes the sink transactional:
    after an exactly-once recovery, outputs since the last checkpoint are
    rolled back rather than duplicated.
    """

    def __init__(self):
        self.results: list[tuple] = []

    def process(self, values: tuple, emit) -> None:
        self.results.append(values)

    def snapshot(self):
        return list(self.results)

    def restore(self, state) -> None:
        self.results = list(state or [])

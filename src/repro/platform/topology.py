"""Topology model: spouts, bolts and the builder.

A topology is a DAG of *spouts* (sources) and *bolts* (computations),
exactly Storm's model (Section 3). Components declare parallelism; edges
declare a stream grouping. The builder validates acyclicity and
connectivity before the executor will run it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.common.exceptions import TopologyError
from repro.platform.groupings import Grouping, ShuffleGrouping
from repro.platform.log import InMemoryLog


class Spout(ABC):
    """A replayable stream source."""

    @abstractmethod
    def next_tuple(self) -> tuple | None:
        """The next payload, or None when (currently) exhausted."""

    def ack(self, msg_id: int) -> None:
        """Called when the tuple tree rooted at *msg_id* fully processed."""

    def fail(self, msg_id: int) -> None:
        """Called when the tuple tree rooted at *msg_id* failed/timed out."""

    def rewind(self, offset: int) -> None:
        """Reset the read position (exactly-once recovery). Optional."""
        raise TopologyError(f"{type(self).__name__} does not support rewind")

    @property
    def offset(self) -> int:
        """Current read position (for checkpointing). Optional."""
        raise TopologyError(f"{type(self).__name__} does not track offsets")

    # -- batch / partition protocol (optional) ----------------------------

    def next_batch(self, max_items: int) -> list[tuple]:
        """Up to *max_items* payloads in one call (the high-throughput feed
        path). Equivalent to repeated :meth:`next_tuple`; subclasses
        backed by indexable storage override with a slicing fast path."""
        batch: list[tuple] = []
        while len(batch) < max_items:
            payload = self.next_tuple()
            if payload is None:
                break
            batch.append(payload)
        return batch

    def split(self, n: int) -> list["Spout"]:
        """Partition this source into *n* independent spouts (Samza/Kafka
        partitions). Sources that cannot be partitioned keep the default,
        which raises — :func:`is_partitionable` probes for support."""
        raise TopologyError(f"{type(self).__name__} is not partitionable")


def is_partitionable(spout: Spout) -> bool:
    """True when *spout* overrides :meth:`Spout.split`."""
    return type(spout).split is not Spout.split


class ListSpout(Spout):
    """Spout over a fixed list; replays failed messages (at-least-once)."""

    def __init__(self, records: list):
        self._records = list(records)
        self._next = 0
        self._pending: dict[int, int] = {}  # msg offset -> retries
        self._retry_queue: list[int] = []

    def next_tuple(self) -> tuple | None:
        if self._retry_queue:
            offset = self._retry_queue.pop(0)
            self._last_offset = offset
            return self._wrap(self._records[offset])
        if self._next >= len(self._records):
            return None
        offset = self._next
        self._next += 1
        self._last_offset = offset
        return self._wrap(self._records[offset])

    def _wrap(self, record) -> tuple:
        return record if isinstance(record, tuple) else (record,)

    @property
    def last_offset(self) -> int:
        return self._last_offset

    def fail(self, msg_id: int) -> None:
        # msg_id is the record offset by executor convention.
        self._retry_queue.append(msg_id)

    def rewind(self, offset: int) -> None:
        self._next = offset
        self._retry_queue.clear()

    @property
    def offset(self) -> int:
        return self._next

    @property
    def exhausted(self) -> bool:
        return self._next >= len(self._records) and not self._retry_queue

    def next_batch(self, max_items: int) -> list[tuple]:
        """Slicing fast path: one list slice instead of ``max_items`` calls.

        Falls back to the per-tuple loop while replays are queued so retry
        ordering stays identical to repeated :meth:`next_tuple`.
        """
        if self._retry_queue:
            return super().next_batch(max_items)
        start = self._next
        stop = min(start + max_items, len(self._records))
        if start >= stop:
            return []
        self._next = stop
        self._last_offset = stop - 1
        wrap = self._wrap
        return [wrap(r) for r in self._records[start:stop]]

    def split(self, n: int) -> list[Spout]:
        """Round-robin partitions: partition *i* reads records ``i::n``,
        preserving each record's relative order within its partition."""
        if n <= 0:
            raise TopologyError("partition count must be positive")
        return [ListSpout(self._records[i::n]) for i in range(n)]


class LogSpout(ListSpout):
    """Spout reading an :class:`InMemoryLog` (the Kafka-consumer analogue)."""

    def __init__(self, log: InMemoryLog):
        self._log = log
        self._next = 0
        self._pending = {}
        self._retry_queue = []

    @property
    def _records(self) -> list:
        return self._log._records


class Bolt(ABC):
    """A stream computation. Emits via the collector passed to process."""

    def prepare(self, task_index: int, n_tasks: int) -> None:
        """Called once before any tuple; override for per-task setup."""

    @abstractmethod
    def process(self, values: tuple, emit: Callable[..., None]) -> None:
        """Handle one payload; call ``emit(*values)`` zero or more times."""

    def snapshot(self) -> Any:
        """State to checkpoint: a drained, read-only view, valid until the
        next ``process``, ``flush`` or ``restore``; callers that keep it
        copy it once (:mod:`repro.core.stateship` bytes). Default: stateless."""
        return None

    def restore(self, state: Any) -> None:
        """Restore checkpointed state; *state* is a fresh copy the bolt now
        owns. Default: stateless."""

    def flush(self, emit: Callable[..., None]) -> None:
        """Called at end-of-stream; emit any buffered output (windows)."""


@dataclass
class _Component:
    name: str
    kind: str  # "spout" | "bolt"
    factory: Callable[[], Any]
    parallelism: int
    inputs: list[tuple[str, Grouping]] = field(default_factory=list)


class TopologyBuilder:
    """Declarative topology assembly with validation."""

    def __init__(self):
        self._components: dict[str, _Component] = {}

    def set_spout(
        self,
        name: str,
        factory: Callable[[], Spout],
        parallelism: int = 1,
    ) -> "TopologyBuilder":
        """Register a spout; *factory* builds a fresh instance per run.

        ``parallelism > 1`` is a *hint* for partition-aware executors: the
        spout must be partitionable (:meth:`Spout.split`) and is split
        into that many independent partitions at run time. The
        single-process executor reads the unsplit source directly.
        """
        self._check_new(name)
        if parallelism <= 0:
            raise TopologyError("parallelism must be positive")
        self._components[name] = _Component(name, "spout", factory, parallelism)
        return self

    def set_bolt(
        self,
        name: str,
        factory: Callable[[], Bolt],
        parallelism: int = 1,
    ) -> "_BoltDeclarer":
        """Register a bolt; chain ``.shuffle(...)``/``.fields(...)`` to wire
        inputs."""
        self._check_new(name)
        if parallelism <= 0:
            raise TopologyError("parallelism must be positive")
        comp = _Component(name, "bolt", factory, parallelism)
        self._components[name] = comp
        return _BoltDeclarer(self, comp)

    def _check_new(self, name: str) -> None:
        if name in self._components:
            raise TopologyError(f"duplicate component name {name!r}")

    def build(self) -> "Topology":
        """Validate and freeze the topology."""
        spouts = [c for c in self._components.values() if c.kind == "spout"]
        if not spouts:
            raise TopologyError("a topology needs at least one spout")
        for comp in self._components.values():
            if comp.kind == "bolt" and not comp.inputs:
                raise TopologyError(f"bolt {comp.name!r} has no inputs")
            for src, __ in comp.inputs:
                if src not in self._components:
                    raise TopologyError(f"{comp.name!r} consumes unknown {src!r}")
        self._check_acyclic()
        return Topology(dict(self._components))

    def _check_acyclic(self) -> None:
        colors: dict[str, int] = {}

        def visit(name: str) -> None:
            colors[name] = 1
            for other in self._components.values():
                if any(src == name for src, __ in other.inputs):
                    state = colors.get(other.name, 0)
                    if state == 1:
                        raise TopologyError("topology contains a cycle")
                    if state == 0:
                        visit(other.name)
            colors[name] = 2

        for comp in self._components.values():
            if colors.get(comp.name, 0) == 0:
                visit(comp.name)


class _BoltDeclarer:
    """Fluent input wiring for a bolt being declared."""

    def __init__(self, builder: TopologyBuilder, component: _Component):
        self._builder = builder
        self._component = component

    def grouping(self, source: str, grouping: Grouping) -> "_BoltDeclarer":
        self._component.inputs.append((source, grouping))
        return self

    def shuffle(self, source: str, seed: int = 0) -> "_BoltDeclarer":
        return self.grouping(source, ShuffleGrouping(seed))

    def fields(self, source: str, *indices: int) -> "_BoltDeclarer":
        from repro.platform.groupings import FieldsGrouping

        return self.grouping(source, FieldsGrouping(*indices))

    def global_(self, source: str) -> "_BoltDeclarer":
        from repro.platform.groupings import GlobalGrouping

        return self.grouping(source, GlobalGrouping())

    def all(self, source: str) -> "_BoltDeclarer":
        from repro.platform.groupings import AllGrouping

        return self.grouping(source, AllGrouping())


class Topology:
    """A validated, immutable topology description."""

    def __init__(self, components: dict[str, _Component]):
        self.components = components

    @property
    def spout_names(self) -> list[str]:
        return [c.name for c in self.components.values() if c.kind == "spout"]

    @property
    def bolt_names(self) -> list[str]:
        return [c.name for c in self.components.values() if c.kind == "bolt"]

    def parallelism_of(self, name: str) -> int:
        """Declared parallelism of component *name*."""
        return self.components[name].parallelism

    @property
    def total_tasks(self) -> int:
        """Total bolt task count across the topology (shard-plan input)."""
        return sum(c.parallelism for c in self.components.values() if c.kind == "bolt")

    def consumers_of(self, source: str) -> list[tuple[str, Grouping]]:
        """(bolt name, grouping) pairs consuming *source*'s output."""
        out = []
        for comp in self.components.values():
            for src, grouping in comp.inputs:
                if src == source:
                    out.append((comp.name, grouping))
        return out

"""XOR acker — Storm's constant-space tuple-tree tracking — and the root
ledger both executors keep around it.

Every tuple tree rooted at a spout message keeps one 64-bit "ack val": the
XOR of every anchored tuple id and every acked tuple id. Emitting XORs an
id in; acking XORs it out; the tree is complete exactly when the value
returns to zero (ids are unique, so partial trees cannot cancel). This is
how Storm tracks millions of in-flight tuples in O(1) memory per root
(Section 3's at-least-once machinery).
"""

from __future__ import annotations

import itertools
import time
from typing import Iterable

from repro.common.exceptions import ExecutionError
from repro.obs.context import Observability
from repro.obs.tracing import Span, lifecycle_span, next_span_id
from repro.platform.metrics import ExecutionMetrics
from repro.platform.topology import Spout


class Acker:
    """Tracks completion of tuple trees by XOR of tuple ids."""

    def __init__(self):
        self._pending: dict[int, int] = {}  # msg_id -> xor value

    def register(self, msg_id: int, root_tuple_id: int) -> None:
        """Start tracking the tree rooted at *msg_id*."""
        if msg_id in self._pending:
            raise ExecutionError(f"message {msg_id} already tracked")
        self._pending[msg_id] = root_tuple_id

    def anchor(self, msg_id: int, tuple_id: int) -> None:
        """A new tuple joined the tree (emitted downstream)."""
        if msg_id in self._pending:
            self._pending[msg_id] ^= tuple_id

    def ack(self, msg_id: int, tuple_id: int) -> bool:
        """A tuple finished processing; True if the whole tree completed."""
        if msg_id not in self._pending:
            return False
        self._pending[msg_id] ^= tuple_id
        if self._pending[msg_id] == 0:
            del self._pending[msg_id]
            return True
        return False

    def fail(self, msg_id: int) -> None:
        """Abort tracking of *msg_id* (tuple lost or processing error)."""
        self._pending.pop(msg_id, None)

    def pending(self) -> list[int]:
        """The incomplete roots, oldest first (a copy: safe to fail them
        while iterating)."""
        return list(self._pending)

    @property
    def n_pending(self) -> int:
        return len(self._pending)


class RootLedger:
    """The owner's side of a topology, shared by both executors: roots and
    their :class:`Acker`, ``root → (partition, spout-local message id)``
    for ack/fail, latency, replay caps, traced roots and source offsets.

    Replay caps, trace sampling and attempt counts are keyed by *source
    record* (``local_msg * n_partitions + flat_index``), not by root: a
    replay gets a fresh root, so a root key would neither bound a poisoned
    message nor let a replay resume its trace. A record's counts live
    while it can still be emitted again: under at-least-once until it is
    acked or given up, under exactly-once until a kept checkpoint passes
    it (a rewind re-reads what lies after the checkpoint); at-most-once
    keeps none. *spouts* maps each spout name to its partitions; a
    partition's flat index is its position in :attr:`partitions`. The
    pull loops stay with the executors.
    """

    def __init__(
        self,
        spouts: dict[str, list[Spout]],
        semantics: str,
        metrics: ExecutionMetrics,
        max_replays: int,
        obs: Observability | None = None,
    ):
        self._spouts = spouts
        #: ``(spout name, partition)`` pairs in flat-index order.
        self.partitions: list[tuple[str, Spout]] = [
            (name, spout) for name, parts in spouts.items() for spout in parts
        ]
        self._metrics = metrics
        self._forget_on_ack = semantics == "at_least_once"
        self._max_replays = max_replays
        self._sampler = obs.sampler if obs is not None else None
        self._spans = obs.collector if obs is not None else None
        self._roots = itertools.count(1)
        self._replays: dict[int, int] = {}  # source key -> replays so far
        self._attempts: dict[int, int] = {}  # source key -> traced emissions
        self._reset()

    def _reset(self) -> None:
        self.acker = Acker()
        self._sources: dict[int, tuple[int, int]] = {}  # root -> (flat, msg)
        self._start_times: dict[int, float] = {}
        self._trace_roots: dict[int, Span] = {}  # root -> its spout_emit span

    def _key(self, flat: int, local_msg: int) -> int:
        return local_msg * len(self.partitions) + flat

    # -- per record ----------------------------------------------------------

    def issue(self, flat: int, local_msg: int | None) -> int:
        """A fresh root for the record *local_msg* of partition *flat*,
        registered with the acker (value 0: the caller anchors the copies
        it routes). A spout without message ids passes None, and the root
        stands in for the id here and in :meth:`trace`."""
        root = next(self._roots)
        self._sources[root] = (flat, root if local_msg is None else local_msg)
        self._start_times[root] = time.perf_counter()
        self.acker.register(root, 0)
        return root

    def trace(
        self, flat: int, local_msg: int | None, root: int | None
    ) -> Span | None:
        """The ``spout_emit`` root span of a sampled record (None when the
        sampler skips it); the caller records it. A replayed record gets
        the same trace id with the next attempt number."""
        key = self._key(flat, root if local_msg is None else local_msg)
        trace_id = self._sampler.sample(key)
        if trace_id is None:
            return None
        attempt = self._attempts.get(key, 0) + 1
        if root is not None:  # at-most-once issues no roots, replays nothing
            self._attempts[key] = attempt
        span = Span(
            trace_id=trace_id,
            span_id=next_span_id(),
            parent_id=None,
            component=f"spout:{self.partitions[flat][0]}",
            kind="spout_emit",
            start=time.perf_counter(),
            attempt=attempt,
            msg_id=root,
        )
        if root is not None:
            self._trace_roots[root] = span
        return span

    def ack(self, deltas: Iterable[tuple[int, int]]) -> None:
        """Apply ``(root, xor delta)`` pairs; complete every closed tree:
        count it, record its latency and ack its source record."""
        acker = self.acker
        for root, delta in deltas:
            if not acker.ack(root, delta):
                continue
            self._metrics.components["spout:__all__"].acked += 1
            self._metrics.record_latency(
                time.perf_counter() - self._start_times.pop(root)
            )
            self._lifecycle(self._trace_roots.pop(root, None), "ack")
            flat, local_msg = self._sources.pop(root)
            self.partitions[flat][1].ack(local_msg)
            if self._forget_on_ack:
                self._forget(self._key(flat, local_msg))

    def _forget(self, key: int) -> None:
        """Drop the counts of a record that is never emitted again."""
        self._attempts.pop(key, None)
        self._replays.pop(key, None)

    # -- failure and recovery ------------------------------------------------

    def _lifecycle(self, root_span: Span | None, kind: str) -> None:
        if root_span is not None:
            self._spans.record(lifecycle_span(root_span, kind, time.perf_counter()))

    def fail_pending(self) -> None:
        """Fail every incomplete tree (the idle-time timeout) and replay
        each source record, up to ``max_replays`` times."""
        for root in self.acker.pending():
            self.acker.fail(root)
            del self._start_times[root]
            self._metrics.components["spout:__all__"].failed += 1
            root_span = self._trace_roots.pop(root, None)
            self._lifecycle(root_span, "fail")
            flat, local_msg = self._sources.pop(root)
            key = self._key(flat, local_msg)
            replays = self._replays.get(key, 0)
            if replays >= self._max_replays:  # give up: poisoned/unlucky message
                if self._forget_on_ack:
                    self._forget(key)
                continue
            self._replays[key] = replays + 1
            self._metrics.replays += 1
            self._lifecycle(root_span, "replay")
            self.partitions[flat][1].fail(local_msg)

    def exhausted(self) -> bool:
        """False while some partition says it has records left."""
        return all(
            getattr(spout, "exhausted", None) is not False
            for __, spout in self.partitions
        )

    def checkpoint(self) -> dict[str, list[int]]:
        """Every partition's read position, for a checkpoint being kept.
        No rewind goes behind it, so the counts of the records there go."""
        offsets = {
            name: [spout.offset for spout in parts]
            for name, parts in self._spouts.items()
        }
        cut = [offset for parts in offsets.values() for offset in parts]
        n = len(cut)
        for counts in (self._attempts, self._replays):
            for key in [key for key in counts if key // n < cut[key % n]]:
                del counts[key]
        return offsets

    def rewind(self, offsets: dict[str, list[int]] | None) -> None:
        """Rollback: forget every in-flight root and rewind each partition
        to *offsets* (to the start when no checkpoint exists)."""
        self._reset()
        for name, parts in self._spouts.items():
            for index, spout in enumerate(parts):
                spout.rewind(offsets[name][index] if offsets is not None else 0)

"""The operator loop: the one place a bolt meets a tuple.

Storm, Heron and MillWheel (the paper's Table 2) share one
tuple-at-a-time operator model and differ in the delivery guarantee
around it. :class:`TaskRunner` is that shared model: it owns a set of
``(component, task)`` bolt instances and is the only code that calls
``bolt.process`` / ``bolt.flush``. :class:`~repro.platform.executor.LocalExecutor`
and :class:`~repro.cluster.worker.ClusterWorker` each own one runner and
keep only what really differs between them — where work comes from,
where copies go, and who settles the acker.

The unit of work is the plain *delivery entry* the cluster's columnar
codec already ships::

    (component, task, values, root, tuple_id, trace)

``root`` is the spout message the tuple descends from (None when nobody
tracks completion), ``tuple_id`` this copy's id in the root's XOR tree,
``trace`` None or ``(trace_id, parent_span, attempt[, enqueued_at])`` —
the optional fourth field is the in-process enqueue instant behind a
span's ``queue_wait``; the codec ships the first three.

Four hooks carry the owner's side of the contract:

``next_tuple_id()``
    Fresh XOR-safe tuple ids (the module counter locally, a
    worker-salted one in the cluster so processes cannot collide).
``faults``
    The :class:`~repro.platform.faults.FaultInjector` consulted per copy
    (``should_drop``) and per processed entry (``note_processed``).
``deliver(entry)``
    Takes one routed copy: onto a task queue, a local deque, or a
    buffer bound for another process.
``on_lost()``
    Called when the injector loses a copy in transit. It may raise to
    abandon the entry being processed; the runner then leaves no ack
    delta behind for it.

``record_span`` is where process spans of traced entries go.

Routing is fixed per runner: ``__init__`` builds each component's
``(consumer, grouping, parallelism)`` table once, and :meth:`route`
walks it. A rescale respawns workers, and so builds new runners, before
any tuple meets the new parallelism. The ``emit`` callable a bolt is
given is built once too, and valid only while that bolt's ``process``
(or ``flush``) call runs: what it collects is routed as soon as the
call returns.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Iterable

from repro.common.exceptions import ExecutionError
from repro.core import stateship
from repro.obs.tracing import Span, next_span_id
from repro.platform.faults import FaultInjector
from repro.platform.groupings import _PayloadView
from repro.platform.topology import Topology


class TaskRunner:
    """Runs delivery entries through the bolt tasks it owns."""

    def __init__(
        self,
        topology: Topology,
        tasks: Iterable[tuple[str, int]],
        next_tuple_id: Callable[[], int],
        faults: FaultInjector,
        deliver: Callable[[tuple], None],
        on_lost: Callable[[], None],
        record_span: Callable[[Span], None] | None = None,
    ):
        self.topology = topology
        self.tasks = list(tasks)
        self.next_tuple_id = next_tuple_id
        self.faults = faults
        self.deliver = deliver
        self.on_lost = on_lost
        self.record_span = record_span
        self.bolts: dict[tuple[str, int], Any] = {}
        self.build_bolts()
        #: root -> XOR of every id anchored or consumed since the owner
        #: last drained it; the owner feeds these to its acker (or ships
        #: them to whoever holds one) and clears the dict.
        self.deltas: dict[int, int] = {}
        #: Per-component counts since the owner last folded them in.
        self.processed: dict[str, int] = {}
        self.emitted: dict[str, int] = {}
        self._in_flush = False
        self._view = _PayloadView(())  # groupings read only ``.values``
        components = topology.components
        #: source -> [(consumer, grouping, consumer parallelism)]
        self._routes: dict[str, list[tuple[str, Any, int]]] = {
            name: [
                (consumer, grouping, components[consumer].parallelism)
                for consumer, grouping in topology.consumers_of(name)
            ]
            for name in components
        }
        #: What the running bolt call emitted; routed and cleared after it.
        self._emitted: list[tuple] = []
        emitted = self._emitted

        def emit(*values) -> None:
            emitted.append(values)

        self._emit = emit

    def build_bolts(self) -> None:
        """Fresh factory instances for every owned task."""
        self.bolts = {}
        for name, task in self.tasks:
            comp = self.topology.components[name]
            bolt = comp.factory()
            bolt.prepare(task, comp.parallelism)
            self.bolts[(name, task)] = bolt

    def capture(self) -> dict[tuple[str, int], bytes | None]:
        """Every owned task's checkpoint: its ``snapshot()`` view copied
        once, as :mod:`repro.core.stateship` bytes (None when the bolt
        has no state)."""
        out: dict[tuple[str, int], bytes | None] = {}
        for key, bolt in self.bolts.items():
            state = bolt.snapshot()
            out[key] = None if state is None else stateship.capture({"state": state})
        return out

    def route(self, source: str, values: tuple, root, trace) -> tuple[int, int]:
        """Fan one emission of *source* out to every consumer's targets.

        Returns ``(copies delivered, XOR of every copy's tuple id)``. A
        copy is anchored (its id joins the XOR) *before* the drop check:
        a lost copy is anchored but never consumed, so its tree never
        completes and whoever holds the acker times it out and replays —
        Storm's at-least-once contract. End-of-stream flushes bypass
        fault injection.
        """
        delivered = anchor = 0
        if trace is not None:
            trace = (trace[0], trace[1], trace[2], perf_counter())
        view = self._view
        view.values = values
        next_tuple_id = self.next_tuple_id
        deliver = self.deliver
        should_drop = None if self._in_flush else self.faults.should_drop
        for consumer, grouping, parallelism in self._routes[source]:
            for task in grouping.targets(view, parallelism):
                tuple_id = next_tuple_id()
                anchor ^= tuple_id
                if should_drop is not None and should_drop():
                    self.on_lost()
                    continue
                deliver((consumer, task, values, root, tuple_id, trace))
                delivered += 1
        return delivered, anchor

    def process(self, entry: tuple) -> bool:
        """Run one entry through its bolt and route what it emits.

        The entry's ack delta — every emitted copy's id XOR the consumed
        id — lands in :attr:`deltas` only once the whole entry is done,
        so a hook that raises mid-emission leaves nothing half-applied.
        Returns the injector's crash signal (True: crash now).
        """
        component, task, values, root, tuple_id, trace = entry
        bolt = self.bolts[(component, task)]
        emitted = self._emitted
        span = None
        if trace is not None:
            started = perf_counter()
            span = Span(
                trace_id=trace[0],
                span_id=next_span_id(),
                parent_id=trace[1],
                component=f"bolt:{component}",
                kind="process",
                start=started,
                queue_wait=max(0.0, started - trace[3]) if len(trace) > 3 else 0.0,
                attempt=trace[2],
                task=task,
                msg_id=root,
            )
        try:
            bolt.process(values, self._emit)
        except Exception as exc:  # noqa: BLE001 - component errors are runtime
            emitted.clear()
            raise ExecutionError(
                f"bolt {component!r} failed on {values!r}: {exc!r}"
            ) from exc
        if span is not None:
            span.duration = perf_counter() - span.start
            self.record_span(span)
            trace = (span.trace_id, span.span_id, span.attempt)
        self.processed[component] = self.processed.get(component, 0) + 1
        delta = tuple_id
        if emitted:
            self.emitted[component] = self.emitted.get(component, 0) + len(emitted)
            fan_out = 0
            try:
                for values_out in emitted:
                    delivered, anchor = self.route(component, values_out, root, trace)
                    fan_out += delivered
                    delta ^= anchor
            finally:
                emitted.clear()
                if span is not None:
                    span.fan_out = fan_out
        if root is not None:
            self.deltas[root] = self.deltas.get(root, 0) ^ delta
        return self.faults.note_processed()

    def flush(self, component: str, drain: Callable[[], object]) -> None:
        """End-of-stream flush of every owned task of *component*.

        Buffered output (windows etc.) is routed untracked, then the
        owner's *drain* runs the resulting cascade — all of it with fault
        injection suspended.
        """
        self._in_flush = True
        try:
            for (name, __), bolt in self.bolts.items():
                if name != component:
                    continue
                emitted = self._emitted
                try:
                    bolt.flush(self._emit)
                except Exception as exc:  # noqa: BLE001 - component errors are runtime
                    emitted.clear()
                    raise ExecutionError(
                        f"bolt {component!r} failed in flush: {exc!r}"
                    ) from exc
                try:
                    for values in emitted:
                        self.route(component, values, None, None)
                finally:
                    emitted.clear()
            drain()
        finally:
            self._in_flush = False

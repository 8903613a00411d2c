"""The cluster worker: one process, a shard of every bolt, a local loop.

A worker owns the bolt tasks its :class:`~repro.cluster.plan.ShardPlan`
assigned to it (Storm worker slots). Its life is a message loop over the
inbox queue:

``frames``
    A *doorbell*: batches of deliveries ``(component, task, values, root,
    tuple_id, trace)`` wait as columnar frames (:mod:`repro.cluster.columnar`)
    on the worker's shared-memory inbox ring (:mod:`repro.cluster.shm`).
    Each delivery runs through the worker's
    :class:`~repro.platform.runner.TaskRunner` — the same operator loop
    the local executor drives. The runner hands every routed copy to the
    worker's ``deliver``: targets the worker owns go onto the *local*
    deque (no process hop, the shard-affinity fast path), remote targets
    are buffered and leave on the outbox ring for the coordinator to
    forward. The reply carries the runner's XOR ack deltas per tuple
    tree, so the coordinator's acker tracks completion without per-hop
    round trips.
``snapshot`` / ``restore``
    Checkpoint capture/rollback: every owned bolt's ``snapshot()`` is
    shipped as :mod:`repro.core.stateship` bytes; restore rebuilds fresh
    bolts and applies the shipped state (or factory state when None).
``flush`` / ``query`` / ``stop``
    End-of-stream flushing per component (fault injection suspended, as in
    the local executor), merge-on-query state capture, and shutdown with a
    final forced telemetry flush.

A bolt that raises is not a crash: the runner's
:class:`~repro.common.exceptions.ExecutionError` goes home as a typed
``("error", worker_id, epoch, message)`` reply and the worker keeps
serving its inbox (so ``stop`` still reaps it).

Crash injection rides the same :class:`~repro.platform.faults.FaultInjector`
contract as the local executor: ``should_drop`` loses deliveries in
transit, ``note_processed`` fires a one-shot crash — realized here as a
hard ``os._exit``, so the parent sees a genuinely dead process, not an
exception.

Every message is epoch-tagged. After a rollback the coordinator bumps the
epoch; stale envelopes still sitting in a survivor's inbox are processed
(their replies are discarded upstream) and the subsequent ``restore``
overwrites any state they touched — the standard "ignore messages from a
previous incarnation" rule of checkpoint/rollback protocols.
"""

from __future__ import annotations

import os
import queue
import time
from collections import deque
from typing import Any

from repro.common.exceptions import ExecutionError
from repro.core import stateship
from repro.obs.live import DeltaExporter
from repro.obs.metrics import MetricRegistry
from repro.obs.tracing import Span
from repro.platform.faults import NO_FAULTS, FaultInjector
from repro.platform.runner import TaskRunner
from repro.platform.topology import Topology
from repro.platform.tuples import tuple_id_source

from repro.cluster import columnar
from repro.cluster.plan import ShardPlan

#: Exit code used by injected crashes (distinguishable from real faults).
CRASH_EXIT_CODE = 23


def _tuple_id_factory(worker_id: int):
    """Worker-salted unique tuple ids (no collisions across processes)."""
    return tuple_id_source(0xC1A57E50 ^ (worker_id + 1))


class ClusterWorker:
    """The in-process half of a worker; ``worker_main`` drives it."""

    def __init__(
        self,
        worker_id: int,
        topology: Topology,
        plan: ShardPlan,
        faults: FaultInjector | None = None,
        observe: bool = False,
        telemetry_interval: float | None = None,
        event_time_fn=None,
    ):
        self.worker_id = worker_id
        self.plan = plan
        self.telemetry_interval = telemetry_interval
        self.epoch = 0
        self._local: deque = deque()
        # Per-envelope reply state (the runner holds deltas and counts).
        self._remote: list[tuple] = []
        self._lost = 0
        # Observability (private plane, streamed home as telemetry).
        self.registry = MetricRegistry() if observe else None
        self.spans: list[Span] = []
        self._runner = TaskRunner(
            topology,
            plan.tasks_of(worker_id),
            next_tuple_id=_tuple_id_factory(worker_id),
            faults=faults or NO_FAULTS,
            deliver=self._deliver,
            on_lost=self._count_lost,
            record_span=self.spans.append,
        )
        # Live telemetry: change-only flushes plus per-component frontiers
        # (highest root id fully processed → offset-unit watermarks; an
        # event_time_fn lifts them into event-time units). All of it is
        # gated on the registry so unobserved runs pay nothing.
        self._exporter = DeltaExporter(self.registry) if observe else None
        self._event_time_fn = event_time_fn
        self._frontier: dict[str, float] = {}
        self._event_frontier: dict[str, float] = {}
        self._processed_total = 0
        self._telemetry_seq = 0
        self._last_telemetry = time.monotonic()
        #: Optional payload shipper (set by ``worker_main``). With it in
        #: place the drain loop ticks the flush gate every few entries, so
        #: the span-loss bound holds even when one envelope carries a whole
        #: checkpoint round's tuples.
        self.telemetry_sink: Any | None = None
        if self.registry is not None:
            self._m_processed = self.registry.counter(
                "repro_cluster_worker_tuples_processed_total",
                "Tuples processed by this worker",
                labelnames=("component",),
            )
            self._m_emitted = self.registry.counter(
                "repro_cluster_worker_tuples_emitted_total",
                "Tuples emitted by this worker's bolts",
                labelnames=("component",),
            )
            self._m_batch = self.registry.histogram(
                "repro_cluster_worker_batch_tuples",
                "Deliveries per inbox envelope",
            )

    # -- the runner's hooks -------------------------------------------------

    def _deliver(self, entry: tuple) -> None:
        dest = self.plan.worker_of(entry[0], entry[1])
        if dest == self.worker_id:
            self._local.append(entry)
        else:
            # Tagged with the destination so the coordinator can forward
            # whole frames without decoding (star transport's second hop
            # as a byte copy).
            self._remote.append((dest, entry))

    def _count_lost(self) -> None:
        self._lost += 1

    # -- processing -------------------------------------------------------

    def _track_frontier(self, entry: tuple) -> None:
        """Watermark inputs: root ids are coordinator-issued and monotone,
        so "highest root fully processed" is this shard's offset-unit
        frontier."""
        component, root = entry[0], entry[3]
        self._processed_total += 1
        if root is not None and root > self._frontier.get(component, 0):
            self._frontier[component] = root
        if self._event_time_fn is not None:
            event_time = self._event_time_fn(component, entry[2])
            if event_time is not None and event_time > self._event_frontier.get(
                component, float("-inf")
            ):
                self._event_frontier[component] = event_time

    def _drain_local(self) -> None:
        n = 0
        process = self._runner.process
        observed = self.registry is not None
        while self._local:
            entry = self._local.popleft()
            if process(entry):
                os._exit(CRASH_EXIT_CODE)  # injected crash: a genuinely dead process
            if observed:
                self._track_frontier(entry)
            n += 1
            # A single frame can hold thousands of small tuples: without
            # this mid-drain tick a worker could process (and crash
            # through) a whole flush interval's worth of work between
            # envelope boundaries. Every-128 keeps the per-tuple cost to
            # one modulo; the time check lives behind the gate.
            if n % 128 == 0 and self.telemetry_sink is not None:
                self.maybe_ship_telemetry()

    def maybe_ship_telemetry(self) -> None:
        """Gated flush straight to :attr:`telemetry_sink` (no-op without one)."""
        if self.telemetry_sink is not None:
            payload = self.maybe_flush_telemetry()
            if payload is not None:
                self.telemetry_sink(payload)

    def _reply_payload(self) -> dict[str, Any]:
        runner = self._runner
        reply = {
            "remote": self._remote,  # (dest_worker, entry) pairs
            "deltas": list(runner.deltas.items()),
            "lost": self._lost,
            "processed": runner.processed,
            "emitted": runner.emitted,
        }
        self._remote = []
        self._lost = 0
        runner.deltas = {}
        runner.processed = {}
        runner.emitted = {}
        return reply

    def clear_in_flight(self) -> None:
        """Forget queued work and half-built reply state (rollback, or an
        envelope abandoned to an operator error)."""
        self._local.clear()
        self._remote = []
        self._lost = 0
        self._runner.deltas = {}

    # -- message handlers -------------------------------------------------

    def handle_tuples(self, entries: list[tuple]) -> dict[str, Any]:
        """Process an inbox envelope and its whole local cascade."""
        if self.registry is not None:
            self._m_batch.observe(len(entries))
        self._local.extend(entries)
        self._drain_local()
        if self.registry is not None:
            for component, count in self._runner.processed.items():
                self._m_processed.labels(component=component).inc(count)
            for component, count in self._runner.emitted.items():
                self._m_emitted.labels(component=component).inc(count)
        return self._reply_payload()

    def handle_flush(self, component: str) -> dict[str, Any]:
        """End-of-stream flush of this worker's shards of *component*."""
        self._runner.flush(component, self._drain_local)
        return self._reply_payload()

    def handle_snapshot(self) -> dict[tuple[str, int], bytes | None]:
        """Capture every owned bolt's checkpoint state as shipped bytes."""
        return self._runner.capture()

    def handle_restore(self, states: dict[tuple[str, int], bytes | None]) -> None:
        """Roll every owned bolt back to the shipped checkpoint (fresh
        factory state when the checkpoint predates the bolt's first
        snapshot or no checkpoint exists)."""
        self.clear_in_flight()
        self._runner.build_bolts()  # fresh instances, factory-supplied callables
        for key, bolt in self._runner.bolts.items():
            payload = states.get(key)
            if payload is not None:
                bolt.restore(stateship.restore(payload)["state"])

    def handle_query(self, component: str | None) -> dict[tuple[str, int], bytes]:
        """Ship the requested shards' snapshot state (merge-on-query)."""
        out: dict[tuple[str, int], bytes] = {}
        for (name, task), bolt in self._runner.bolts.items():
            if component is not None and name != component:
                continue
            out[(name, task)] = stateship.capture({"state": bolt.snapshot()})
        return out

    def maybe_flush_telemetry(self, force: bool = False) -> dict[str, Any] | None:
        """Interval-gated delta telemetry flush; None when it is not time.

        This is the worker loop's only export path: the gate makes
        telemetry cost O(changed children / interval) instead of
        O(messages), so call sites may tick it freely. Returns the
        flush payload — change-only metric records, drained spans, the
        per-component frontiers — or None when the interval has not
        elapsed, telemetry is disabled, or nothing changed. Flushes ship
        *cumulative* state, so a skipped or lost flush only delays
        freshness. ``force`` bypasses the gate (shutdown path).
        """
        if self._exporter is None:
            return None
        if not force and self.telemetry_interval is None:
            return None
        now = time.monotonic()
        if (
            not force
            and now - self._last_telemetry < (self.telemetry_interval or 0.0)
        ):
            return None
        self._last_telemetry = now
        records = self._exporter.collect()
        spans = list(self.spans)
        self.spans.clear()  # in place: the runner holds this list's append
        if not records and not spans and not force:
            return None  # idle worker: don't spam the results queue
        self._telemetry_seq += 1
        return {
            "seq": self._telemetry_seq,
            "pid": os.getpid(),
            "metrics": records,
            "spans": spans,
            "frontier": dict(self._frontier),
            "event_frontier": dict(self._event_frontier),
            "processed_total": self._processed_total,
        }


def _push_outbox(ring, frame: bytes, deadline: float = 30.0) -> None:
    """Push one frame to the outbox ring, waiting out backpressure.

    The coordinator drains outbox rings eagerly (including while it is
    itself blocked on a full inbox ring), so a full outbox clears unless
    the coordinator is gone or wedged — hence the orphan check and the
    hard deadline (a dead worker is recoverable upstream; silent data
    loss is not).
    """
    start = time.monotonic()
    while not ring.try_push(frame):
        if os.getppid() == 1:  # coordinator gone; nobody will ever drain
            os._exit(0)
        if time.monotonic() - start > deadline:
            raise ExecutionError(
                f"outbox ring full for {deadline:.0f}s; coordinator stalled"
            )
        time.sleep(0.0005)  # streamlint: disable=SL010 - bounded backpressure wait


def worker_main(
    worker_id: int,
    topology: Topology,
    plan: ShardPlan,
    inbox,
    results,
    faults: FaultInjector | None = None,
    observe: bool = False,
    channel=None,
    max_frame: int = 1 << 18,
    telemetry_interval: float | None = None,
    event_time_fn=None,
) -> None:
    """Child-process entry point: loop over *inbox* until ``stop``.

    Replies go to this worker's *results* queue tagged with the worker id
    and the envelope's epoch, so the coordinator can discard replies from
    before a rollback. Tuple batches arrive as columnar frames on
    *channel*'s inbox ring (a :class:`repro.cluster.shm.ShmChannel`
    inherited through fork) — the queue message is just a doorbell — and
    remote re-route entries leave on its outbox ring.

    With *telemetry_interval* set (and observation on), the loop also
    streams interval-gated delta telemetry — changed metrics, buffered
    spans, watermark frontiers — as ``("telemetry", …)`` messages, so the
    coordinator's view is live instead of shutdown-only and a crash loses
    at most one interval of spans.
    """
    worker = ClusterWorker(
        worker_id,
        topology,
        plan,
        faults=faults,
        observe=observe,
        telemetry_interval=telemetry_interval,
        event_time_fn=event_time_fn,
    )
    comp_ids, comp_names = columnar.component_table(plan.components)

    def maybe_ship_telemetry(force: bool = False) -> None:
        # The interval gate lives in maybe_flush_telemetry; calling this
        # every loop turn is free.
        payload = worker.maybe_flush_telemetry(force=force)
        if payload is not None:
            results.put(("telemetry", worker_id, worker.epoch, payload))

    # Mid-drain flushes ship through the same queue, so the loss bound is
    # interval + a few tuples, not interval + a whole envelope.
    worker.telemetry_sink = lambda payload: results.put(
        ("telemetry", worker_id, worker.epoch, payload)
    )

    def ship_remote(reply: dict, epoch: int) -> None:
        """Move the reply's remote entries onto the outbox ring, with byte
        accounting (``out_bytes`` / ``out_pickled``) for the coordinator's
        transport stats.

        The entries are bucketed by destination worker and each frame is
        prefixed with a 2-byte dest id: the coordinator forwards the frame
        bytes straight into the destination's inbox ring — no decode, no
        re-encode, just a copy.
        """
        frames = out_bytes = out_pickled = 0
        by_dest: dict[int, list[tuple]] = {}
        for dest, entry in reply.pop("remote"):
            by_dest.setdefault(dest, []).append(entry)
        for dest, entries in by_dest.items():
            prefix = dest.to_bytes(2, "little")
            for frame, stats in columnar.encode_frames(
                entries, epoch, comp_ids, max_frame
            ):
                _push_outbox(channel.outbox, prefix + frame)
                frames += 1
                out_bytes += len(frame)
                out_pickled += stats.pickled_bytes
        reply["remote_frames"] = frames
        reply["out_bytes"] = out_bytes
        reply["out_pickled"] = out_pickled

    def run(kind: str, epoch: int, handler, argument) -> None:
        """One data-plane message: handle, ship re-routes, reply *kind*.

        A bolt that raised is a deterministic operator error, not a crash:
        report it typed and stay up for the coordinator's ``stop``.
        """
        try:
            reply = handler(argument)
        except ExecutionError as exc:
            worker.clear_in_flight()
            results.put(("error", worker_id, epoch, str(exc)))
            return
        ship_remote(reply, epoch)
        results.put((kind, worker_id, epoch, reply))

    while True:
        # bounded wait so the loop keeps coming around even if the
        # coordinator dies without sending "stop" (orphan check below)
        try:
            message = inbox.get(timeout=1.0)
        except queue.Empty:
            if os.getppid() == 1:  # coordinator gone; we were re-parented
                return
            maybe_ship_telemetry()  # idle tick: keep the health feed fresh
            continue
        kind, epoch = message[0], message[1]
        worker.epoch = max(worker.epoch, epoch)
        if kind == "frames":
            # Drain *everything* waiting, not just one frame: doorbell and
            # frame counts may skew around crash recovery (a reset ring
            # swallows frames, an aborted send leaves a doorbell-less
            # frame), and draining to empty re-aligns them — later
            # doorbells for frames already drained pop None and fall
            # through. One reply per frame keeps the credit accounting
            # exact.
            while (frame := channel.inbox.try_pop()) is not None:
                frame_epoch, entries, _khashes = columnar.decode_entries(
                    frame, comp_names
                )
                worker.epoch = max(worker.epoch, frame_epoch)
                run("done", frame_epoch, worker.handle_tuples, entries)
                # Tick the gate per frame, not per drain: a saturated ring
                # keeps this loop busy for whole checkpoint rounds, and
                # the span-loss bound (≤ one interval) holds only if the
                # flush clock keeps running *inside* the drain.
                maybe_ship_telemetry()
            maybe_ship_telemetry()
        elif kind == "flush":
            run("flush_ok", epoch, worker.handle_flush, message[2])
            maybe_ship_telemetry()
        elif kind == "snapshot":
            results.put(("snapshot_ok", worker_id, epoch, worker.handle_snapshot()))
        elif kind == "restore":
            worker.handle_restore(message[2])
            results.put(("restore_ok", worker_id, epoch, None))
        elif kind == "query":
            results.put(("query_ok", worker_id, epoch, worker.handle_query(message[2])))
        elif kind == "stop":
            # The final export rides the same gated telemetry path (the
            # delta exporter ships whatever changed since the last flush,
            # which with no prior flushes is everything).
            maybe_ship_telemetry(force=True)
            results.put(("stopped", worker_id, epoch, None))
            return
        else:  # pragma: no cover - defensive
            results.put(("error", worker_id, epoch, f"unknown message {kind!r}"))

"""The cluster coordinator: plan, feed, route, checkpoint, recover, merge.

:class:`ClusterExecutor` is the multi-process sibling of
:class:`~repro.platform.executor.LocalExecutor` — same topology contract,
same delivery-semantics ladder, N worker processes instead of one loop:

* **Planning** — :func:`~repro.cluster.plan.plan_topology` deals each
  bolt's tasks across workers (Storm executors → worker slots).
* **Feeding** — spouts run in the coordinator (single source of truth for
  offsets, like a consumer-group leader). Partitioned spouts
  (``parallelism > 1`` + :meth:`~repro.platform.topology.Spout.split`)
  are read round-robin. Spout edges are routed here with the topology's
  grouping instances; routed deliveries are batched into per-worker
  columnar frames so one ring push carries many tuples.
* **Routing** — bolts route their own emissions worker-side; only copies
  destined for shards on *other* workers come back (on the worker's
  outbox ring) for forwarding (star transport: simple, deterministic, and with
  field-grouped keys the large majority of traffic stays shard-local, so
  per-shard synopses see their keys in exact global stream order).
* **Reliability** — the :class:`~repro.platform.ack.RootLedger` that
  ``LocalExecutor`` also uses (roots, Storm's XOR acker, replay caps,
  traced roots, source offsets) lives here, fed by per-envelope ack
  deltas. Quiescence is credit-based: every envelope out is one reply in,
  so ``outstanding == 0`` means the whole cluster is idle — no probing
  rounds needed. Incomplete trees at idle are failed and replayed
  (at-least-once); under exactly-once the coordinator takes periodic
  cluster-wide checkpoints (drain → per-worker ``stateship`` snapshots +
  source offsets) and any loss or worker crash triggers a global
  rollback: respawn the dead worker, restore every worker from the last
  checkpoint, rewind the sources, bump the epoch so stale traffic is
  discarded.
* **Control** — each exchange has one path: every wait takes replies
  through ``_reply``; checkpoint, rollback, flush, query and rescale
  send through ``_broadcast``; other threads' captures and rescales go
  through one request queue (``_submit``); and ``_reshape`` starts,
  resizes and stops the worker set.
* **Merge-on-query** — :meth:`ClusterExecutor.merged_synopsis` ships each
  shard's partial synopsis back and folds them with
  ``SynopsisBase.merge``, task order, exactly the Lambda-architecture
  serving-layer move.

Workers stay alive after :meth:`run` so state can be queried; use the
executor as a context manager (or call :meth:`close`) to shut them down
and absorb their metrics/spans into the coordinator's ``repro.obs``
registry.
"""

from __future__ import annotations

import json
import multiprocessing
import queue as queue_mod
import threading
import time
from concurrent import futures
from multiprocessing import connection as mp_connection
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.common.exceptions import ExecutionError, ParameterError
from repro.common.mergeable import fold
from repro.core import stateship
from repro.obs.context import Observability
from repro.obs.flight import FlightRecorder
from repro.obs.health import HealthMonitor, HealthSnapshot
from repro.obs.live import DEFAULT_FLUSH_INTERVAL, TelemetryAbsorber
from repro.obs.metrics import RegistryRow
from repro.obs.tracing import event_span
from repro.platform.ack import RootLedger
from repro.platform.executor import _SEMANTICS, topological_bolt_order
from repro.platform.faults import FaultInjector
from repro.platform.metrics import ExecutionMetrics
from repro.platform.topology import Spout, Topology, is_partitionable
from repro.platform.tuples import next_tuple_id

from repro.cluster import columnar
from repro.cluster.plan import ShardPlan, plan_topology
from repro.cluster.shm import ShmChannel
from repro.cluster.worker import worker_main


class _FlushInterrupted(Exception):
    """A worker died mid-flush; recovery ran — re-enter the main pump."""


class _WorkerDied(ExecutionError):
    """Worker(s) died while the coordinator awaited their replies."""

    def __init__(self, dead: list[int], expected: str):
        super().__init__(f"worker(s) {dead} died while awaiting {expected}")
        self.dead = dead


class ClusterExecutor:
    """Run a :class:`Topology` across N worker processes.

    ``transport`` is vestigial: shared-memory rings are the only data
    plane, ``"shm"`` its only legal value. The argument stays until the
    benchmark harness (which passes it) stops doing so.
    """

    def __init__(
        self,
        topology: Topology,
        n_workers: int = 2,
        semantics: str = "at_most_once",
        checkpoint_interval: int = 2_000,
        batch_size: int = 512,
        max_outstanding: int = 8,
        worker_faults: dict[int, FaultInjector] | None = None,
        obs: Observability | None = None,
        max_replays_per_message: int = 16,
        reply_timeout: float = 30.0,
        transport: str = "shm",
        ring_capacity: int = 1 << 20,
        max_frame: int = 1 << 18,
        telemetry_interval: float | None = None,
        flight: FlightRecorder | None = None,
        flight_path: str | Path | None = None,
        health_log: str | Path | None = None,
        event_time_fn: Callable[[str, tuple], float | None] | None = None,
        autoscaler: Any = None,
    ):
        if semantics not in _SEMANTICS:
            raise ParameterError(f"semantics must be one of {_SEMANTICS}")
        if telemetry_interval is not None and telemetry_interval < 0:
            raise ParameterError("telemetry_interval must be >= 0")
        if n_workers <= 0:
            raise ParameterError("n_workers must be positive")
        if checkpoint_interval <= 0:
            raise ParameterError("checkpoint_interval must be positive")
        if batch_size <= 0:
            raise ParameterError("batch_size must be positive")
        if transport != "shm":
            raise ParameterError("transport must be 'shm' (the only data plane)")
        if max_frame + 8 > ring_capacity:
            raise ParameterError("ring_capacity must exceed max_frame (+ header)")
        self.topology = topology
        self.n_workers = n_workers
        self.semantics = semantics
        self.checkpoint_interval = checkpoint_interval
        self.batch_size = batch_size
        self.max_outstanding = max_outstanding
        self.worker_faults = dict(worker_faults or {})
        self.obs = obs
        self.reply_timeout = reply_timeout
        self.ring_capacity = ring_capacity
        self.max_frame = max_frame
        self.plan: ShardPlan = plan_topology(topology, n_workers)
        self._channels: list[ShmChannel] = []
        # Data-plane tallies (ring-full waits count in the metrics).
        self._data_bytes = self._data_frames = self._pickled_bytes = 0
        self.metrics = ExecutionMetrics(
            registry=obs.registry if obs is not None else None
        )
        self._sampler = obs.sampler if obs is not None else None
        self._spans = obs.collector if obs is not None else None
        if obs is not None:
            bytes_total = obs.registry.counter(
                "repro_cluster_transport_bytes_total",
                "Data-plane bytes moved over the shm rings",
            )
            frames_total = obs.registry.counter(
                "repro_cluster_transport_frames_total",
                "Data-plane frames/envelopes sent",
            )
            self._m_transport = RegistryRow((bytes_total, frames_total))
            self._m_ring_used = obs.registry.gauge(
                "repro_cluster_ring_used_bytes",
                "Bytes enqueued in a worker's shm ring",
                labelnames=("worker", "direction"),
            )

        # Live telemetry (tentpole of the obs plane): interval defaults on
        # whenever the run is observed, 0/None-without-obs disables it.
        if telemetry_interval is None:
            telemetry_interval = DEFAULT_FLUSH_INTERVAL if obs is not None else 0.0
        self.telemetry_interval = telemetry_interval if obs is not None else 0.0
        self.flight_path = Path(flight_path) if flight_path is not None else None
        self._health_log_path = Path(health_log) if health_log is not None else None
        self._health_log: Any = None
        self._event_time_fn = event_time_fn
        if obs is not None:
            self.flight = flight if flight is not None else FlightRecorder()
            self._absorber = TelemetryAbsorber(
                obs.registry, obs.collector, flight=self.flight
            )
            self._health: HealthMonitor | None = HealthMonitor(
                n_workers=n_workers,
                operators=self._operator_owners(),
                ring_capacity=ring_capacity,
                watermark_unit=(
                    "event_time" if event_time_fn is not None else "offset"
                ),
            )
        else:
            self.flight = flight
            self._absorber = None
            self._health = None
        self._last_health_publish = time.monotonic()

        # Spouts (partitioned when declared parallel and splittable).
        self._spouts: dict[str, list[Spout]] = {}
        for comp in topology.components.values():
            if comp.kind != "spout":
                continue
            spout = comp.factory()
            if comp.parallelism > 1:
                if not is_partitionable(spout):
                    raise ExecutionError(
                        f"spout {comp.name!r} declares parallelism "
                        f"{comp.parallelism} but does not implement split()"
                    )
                self._spouts[comp.name] = spout.split(comp.parallelism)
            else:
                self._spouts[comp.name] = [spout]
        self._ledger = RootLedger(
            self._spouts, semantics, self.metrics, max_replays_per_message, obs
        )

        try:
            self._mp = multiprocessing.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-POSIX platforms
            raise ExecutionError(
                "repro.cluster needs the fork start method (POSIX only): "
                "topology factories may close over non-picklable objects"
            ) from exc
        self._processes: list[Any] = []
        self._inboxes: list[Any] = []
        # One results queue *per worker*, not one shared queue: a worker
        # that hard-exits (injected os._exit crash, real SIGKILL) can die
        # while its queue feeder holds the shared write lock or is halfway
        # through a frame, and a shared queue turns that into a cluster-wide
        # wedge — every survivor's feeder blocks on a lock nobody will
        # release. Per-worker queues confine the damage: the crash path
        # salvages what the dead channel still holds and replaces it.
        self._results: list[Any] = []
        self._results_rr = 0
        self._closed = False

        # Run state.
        self.epoch = 0
        self._outstanding = 0
        self._buffers: list[list[tuple]] = [[] for __ in range(n_workers)]
        self._checkpoint: dict | None = None
        self._pulls_since_checkpoint = 0
        self._recover_requested = False
        #: A bolt raised in a worker: sticky, every later pump re-raises.
        self._worker_error: str | None = None

        # Snapshot captures and rescales requested by other threads, as
        # (call, future) pairs in arrival order, served at consistent
        # points of the pump loop (or inline under the control lock when
        # no pump is running); the future hands the outcome back.
        self._requests: queue_mod.SimpleQueue = queue_mod.SimpleQueue()
        self._control_lock = threading.Lock()
        self._pumping = False

        # Elastic runtime: the optional autoscaler is consulted every
        # `tick_every` pump iterations (workload-relative cadence).
        self.autoscaler = autoscaler
        self.rescale_reports: list[Any] = []
        self._spout_throttled = 0
        self._pump_iterations = 0

    @property
    def transport_stats(self) -> dict[str, Any]:
        """Data-plane accounting, keyed for the bench's byte columns:
        bytes moved over shm rings, frame count, bytes that fell back to
        pickle inside columnar frames, and how often a full ring forced
        the coordinator to wait (a fresh read-only copy)."""
        return {
            "transport": "shm",
            "data_bytes_shm": self._data_bytes,
            "data_frames": self._data_frames,
            "codec_pickled_bytes": self._pickled_bytes,
            "backpressure_waits": self.metrics.backpressure_waits,
        }

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "ClusterExecutor":
        self._ensure_started()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _spawn_worker(self, worker_id: int) -> None:
        """Start (or, after a crash, restart) worker *worker_id*."""
        channel = self._channels[worker_id]
        # A dead incarnation may have left a torn/partial write past
        # ``head`` and unread frames before it; both are dead traffic of a
        # discarded epoch. Reset before the fork so the new incarnation
        # inherits an empty ring.
        channel.reset()
        inbox = self._mp.Queue()
        # A dead incarnation's results queue may end in a frame its feeder
        # half-wrote at the crash (recv on it would block forever) and a
        # write lock that died held; _handle_crash salvaged it already, so
        # the new incarnation gets a fresh channel and the survivors'
        # queues are never touched.
        self._results[worker_id] = self._mp.Queue()
        process = self._mp.Process(
            target=worker_main,
            args=(
                worker_id,
                self.topology,
                self.plan,
                inbox,
                self._results[worker_id],
                self.worker_faults.get(worker_id),
                self.obs is not None,
                channel,
                self.max_frame,
                self.telemetry_interval or None,
                self._event_time_fn,
            ),
            daemon=True,
        )
        process.start()
        if self._inboxes[worker_id] is not None:
            # The old inbox may hold unread envelopes; detach its feeder
            # thread so dropping the queue can never block on join.
            self._inboxes[worker_id].cancel_join_thread()
        self._inboxes[worker_id] = inbox
        self._processes[worker_id] = process

    def _ensure_started(self) -> None:
        if self._closed:
            raise ExecutionError("executor already closed")
        if not self._processes:
            self._reshape(self.n_workers)

    def close(self) -> None:
        """Stop every worker, absorb its metrics/spans, reap processes and
        unlink every shared-memory segment."""
        if not self._closed:
            self._closed = True
            started = bool(self._processes)
            self._reshape(0)
            if started:
                self._publish_health(reason="final")
        if self._health_log is not None:
            self._health_log.close()
            self._health_log = None

    def _reshape(self, n_workers: int) -> None:
        """Stop the running worker set, if any, and start *n_workers*
        workers on a fresh plan (none: :meth:`close`).

        The one worker-set lifecycle: first start, rescale and close.
        Stopping absorbs each worker's final telemetry (queue FIFO puts
        its final forced flush ahead of its "stopped") and seals its
        incarnation, so a later set's fresh counters stack on the right
        base; it never raises — a worker that dies mid-stop is simply
        dropped, and an operator error reported now changes nothing. The
        epoch bump makes straggler traffic of the old set inert. Retired
        shm rings are unlinked *now* so ``leaked_segments()`` stays clean,
        and new ones are created before the forks: children inherit the
        mapped buffers, so no name handshake or handle pickling.
        """
        if self._processes:
            pending = {w for w, p in enumerate(self._processes) if p.is_alive()}
            for worker_id in pending:
                self._inboxes[worker_id].put(("stop", self.epoch))
            deadline = time.perf_counter() + self.reply_timeout
            while pending and time.perf_counter() < deadline:
                # Keep outbox rings flowing: a worker finishing its last
                # envelope may be blocked pushing re-route frames, and it
                # only sees "stop" after that push succeeds. The frames
                # are dropped unexamined.
                for channel in self._channels:
                    while channel.outbox.try_pop() is not None:
                        pass
                try:
                    reply = self._reply(0.1)
                except ExecutionError:
                    continue
                if reply is None:
                    pending = {w for w in pending if self._processes[w].is_alive()}
                elif reply and reply[0] == "stopped":
                    pending.discard(reply[1])
            for worker_id, process in enumerate(self._processes):
                process.join(timeout=2.0)
                if process.is_alive():  # pragma: no cover - defensive
                    process.terminate()
                    process.join(timeout=2.0)
                self._inboxes[worker_id].cancel_join_thread()
                if self._absorber is not None:
                    self._absorber.seal_worker(worker_id)
            self.epoch += 1
        for channel in self._channels[n_workers:]:
            channel.destroy()
        del self._channels[n_workers:]
        for worker_id in range(len(self._channels), n_workers):
            self._channels.append(ShmChannel(worker_id, self.ring_capacity))
        self._outstanding = 0
        if not n_workers:
            return
        self.n_workers = n_workers
        self.plan = plan_topology(self.topology, n_workers)
        self._comp_ids, self._comp_names = columnar.component_table(
            self.plan.components
        )
        self._buffers = [[] for __ in range(n_workers)]
        self._inboxes = [None] * n_workers
        self._processes = [None] * n_workers
        self._results = [None] * n_workers
        self._results_rr = 0
        for worker_id in range(n_workers):
            self._spawn_worker(worker_id)

    # -- routing -----------------------------------------------------------

    def _buffer_entry(self, entry: tuple, khash: int | None = None) -> None:
        component, task = entry[0], entry[1]
        self._buffers[self.plan.worker_of(component, task)].append((entry, khash))

    def _route_spout_batch(
        self, source: str, payloads: list[tuple], roots: list[int | None], traces
    ) -> int:
        """Route a batch of spout payloads; returns delivered copies."""
        delivered = 0
        acker = self._ledger.acker if self.semantics != "at_most_once" else None
        for consumer, grouping in self.topology.consumers_of(source):
            comp = self.topology.components[consumer]
            routes, khashes = grouping.route_batch(payloads, comp.parallelism)
            if khashes is None:
                khashes = [None] * len(payloads)
            for payload, root, trace, targets, khash in zip(
                payloads, roots, traces, routes, khashes
            ):
                for task in targets:
                    tuple_id = next_tuple_id()
                    if acker is not None:
                        acker.anchor(root, tuple_id)
                    self._buffer_entry(
                        (consumer, task, payload, root, tuple_id, trace), khash
                    )
                    delivered += 1
        return delivered

    def _flush_buffers(self) -> None:
        # Indexed through the attribute (not enumerate over a captured
        # list): crash recovery inside _send_frames rebinds self._buffers,
        # and the remaining iterations must see the post-recovery buffers.
        for worker_id in range(self.n_workers):
            buffer = self._buffers[worker_id]
            if not buffer:
                continue
            self._buffers[worker_id] = []
            self._send_frames(worker_id, buffer)

    def _send_frames(self, worker_id: int, buffer: list[tuple]) -> None:
        """Encode one worker's buffered deliveries into columnar frames,
        push them onto its inbox ring and ring the doorbell per frame."""
        entries = [entry for entry, __ in buffer]
        khashes: list[int | None] | None = [khash for __, khash in buffer]
        if not any(k is not None for k in khashes):
            khashes = None
        ring = self._channels[worker_id].inbox
        epoch = self.epoch
        pushed = 0
        for frame, stats in columnar.encode_frames(
            entries, epoch, self._comp_ids, self.max_frame, khashes=khashes
        ):
            self._push_frame(worker_id, ring, frame)
            if self.epoch != epoch:
                # Crash recovery ran inside the backpressure wait: the
                # rest of this buffer is a dead incarnation's traffic.
                # (The frame just pushed rides doorbell-less; the worker's
                # drain-to-empty pop absorbs and discards it.)
                return
            pushed += 1
            self._outstanding += 1
            self._account_data(len(frame))
            self._pickled_bytes += stats.pickled_bytes
        if pushed:
            # One doorbell covers the whole send: the worker drains its
            # ring to empty per wake-up, so later doorbells for frames it
            # already popped just fall through. Data rides the ring; the
            # control queue carries 2 small ints.
            self._inboxes[worker_id].put(("frames", epoch))

    def _push_frame(self, worker_id: int, ring, frame: bytes) -> None:
        """Push with blocking-with-deadline fallback on ring-full.

        While waiting the coordinator keeps draining outbox rings and
        replies — the worker may itself be blocked on a full outbox, and
        draining is what breaks that hold-and-wait cycle. A worker that
        died mid-backpressure is detected here (its ring is reset by
        recovery; the stale-epoch frame still goes through and is
        discarded by the reply filter).
        """
        if ring.try_push(frame):
            return
        self.metrics.backpressure_waits += 1
        # Ring the doorbell for the frames already pushed this send: the
        # worker only drains on a doorbell, so without this a ring that
        # fills mid-send would sit full until the worker's 1s control
        # timeout. A surplus doorbell is harmless (drain-to-empty pops
        # None and falls through).
        self._inboxes[worker_id].put(("frames", self.epoch))
        deadline = time.perf_counter() + self.reply_timeout
        while not ring.try_push(frame):
            self._drain_replies(block=False)  # also drains outbox rings
            if not self._processes[worker_id].is_alive():
                self._check_liveness()
                continue
            if time.perf_counter() > deadline:
                raise ExecutionError(
                    f"worker {worker_id} inbox ring full for "
                    f"{self.reply_timeout:.0f}s; worker wedged"
                )
            time.sleep(0.0005)  # streamlint: disable=SL010 - bounded backpressure wait

    def _account_data(self, nbytes: int, frames: int = 1) -> None:
        self._data_bytes += nbytes
        self._data_frames += frames

    # -- live telemetry ----------------------------------------------------

    def _absorb_telemetry(self, worker_id: int, payload: dict) -> None:
        """Fold one worker flush into the coordinator's registry/monitor.

        Flushes are pid-tagged: one from a *previous* incarnation (queued
        before a crash the coordinator has since sealed) must not stack
        its cumulative metrics on top of the sealed base, but its spans
        are real pre-crash history and are kept — that is precisely the
        span-loss fix.
        """
        if self._absorber is None:
            return
        process = (
            self._processes[worker_id]
            if worker_id < len(self._processes)
            else None
        )
        current_pid = process.pid if process is not None else None
        if payload.get("pid") != current_pid:
            self._absorber.absorb_spans_only(payload["spans"])
            return
        self._absorber.absorb(worker_id, payload["metrics"], payload["spans"])
        if self._health is not None:
            self._health.record_flush(
                worker_id,
                seq=payload["seq"],
                frontier=payload["frontier"],
                event_frontier=payload["event_frontier"],
                processed_total=payload["processed_total"],
            )
        self._maybe_publish_health()

    def _operator_owners(self) -> dict[str, tuple[str, tuple[int, ...]]]:
        """name -> (kind, owning workers) under the *current* plan.

        Built at construction for the health monitor and rebuilt after
        every elastic rescale (the plan, and with it the owner sets,
        changes shape).
        """
        operators: dict[str, tuple[str, tuple[int, ...]]] = {}
        for comp in self.topology.components.values():
            if comp.kind == "bolt":
                owners = tuple(
                    sorted(
                        {
                            self.plan.worker_of(comp.name, task)
                            for task in range(comp.parallelism)
                        }
                    )
                )
            else:
                owners = ()  # spouts run in the coordinator
            operators[comp.name] = (comp.kind, owners)
        return operators

    def _parallelism(self) -> dict[str, int]:
        """Each bolt's current task count."""
        return {
            comp.name: comp.parallelism
            for comp in self.topology.components.values()
            if comp.kind == "bolt"
        }

    def _component_counts(self) -> dict[str, tuple[int, int]]:
        counts: dict[str, tuple[int, int]] = {}
        for comp in self.topology.components.values():
            entry = self.metrics.components[f"{comp.kind}:{comp.name}"]
            counts[comp.name] = (entry.processed, entry.emitted)
        return counts

    def _publish_health(self, reason: str = "interval") -> HealthSnapshot | None:
        """Publish the run's counters into the registry and, when the run
        is observed, a health snapshot: sample rings, snapshot, record."""
        if self._health is None:
            self.metrics.publish()
            return None
        for worker_id in range(self.n_workers):
            alive = bool(
                worker_id < len(self._processes)
                and self._processes[worker_id].is_alive()
            )
            in_used = out_used = 0
            if self._channels:
                in_used = self._channels[worker_id].inbox.used_bytes()
                out_used = self._channels[worker_id].outbox.used_bytes()
                ring_used = self._m_ring_used.labels
                ring_used(worker=str(worker_id), direction="in").set(in_used)
                ring_used(worker=str(worker_id), direction="out").set(out_used)
            self._health.set_worker_io(worker_id, alive, in_used, out_used)
        snapshot = self._health.snapshot(
            reason=reason,
            counts=self._component_counts(),
            backpressure_waits=self.metrics.backpressure_waits,
            latency_p50_s=self.metrics.latency_quantile(0.5),
            latency_p99_s=self.metrics.latency_quantile(0.99),
            in_flight=self._outstanding,
            spout_throttled=self._spout_throttled,
            elastic=self._elastic_state(),
        )
        self.metrics.ring_occupancy = snapshot.max_ring_occupancy()
        self.metrics.publish()
        self._m_transport.advance((self._data_bytes, self._data_frames))
        if self.flight is not None:
            self.flight.record_snapshot(snapshot)
        if self._health_log_path is not None:
            if self._health_log is None:
                self._health_log = self._health_log_path.open(
                    "a", encoding="utf-8"
                )
            self._health_log.write(json.dumps(snapshot.to_dict()) + "\n")
            self._health_log.flush()
        return snapshot

    def _maybe_publish_health(self) -> None:
        """Interval-gated :meth:`_publish_health` (the steady-state tick)."""
        if self._health is None or not self.telemetry_interval:
            return
        now = time.monotonic()
        if now - self._last_health_publish < self.telemetry_interval:
            return
        self._last_health_publish = now
        self._publish_health(reason="interval")

    def _elastic_state(self) -> dict[str, Any]:
        """JSON-ready elastic-runtime state for health snapshots/the TUI."""
        last = self.rescale_reports[-1] if self.rescale_reports else None
        return {
            "workers": self.n_workers,
            "parallelism": self._parallelism(),
            "rescales": len(self.rescale_reports),
            "last_rescale": None if last is None else last.to_dict(),
            "autoscaler": (
                None if self.autoscaler is None else self.autoscaler.describe()
            ),
        }

    def health(self) -> HealthSnapshot | None:
        """A fresh typed health snapshot (None when the run is unobserved).

        This is the feed ROADMAP item 3's autoscaler consumes: per-operator
        watermarks and lag, per-worker ring occupancy and telemetry ages,
        ``backpressure_waits`` and end-to-end latency quantiles.
        """
        return self._publish_health(reason="query")

    @property
    def last_health(self) -> HealthSnapshot | None:
        """The most recently published snapshot (survives :meth:`close`)."""
        return self._health.last_snapshot if self._health is not None else None

    # -- spout side --------------------------------------------------------

    def _pull_spouts(self) -> bool:
        """Feed up to one batch per spout partition; True if anything fed."""
        if self._outstanding > self.max_outstanding:
            # Backpressure: let the workers catch up. The counter is the
            # autoscaler's primary "sources held back" signal — it moves
            # exactly when worker throughput lags the coordinator's
            # routing rate, independent of wall-clock.
            self._spout_throttled += 1
            return False
        pulled = False
        ledger = self._ledger
        reliable = self.semantics != "at_most_once"
        for flat, (name, spout) in enumerate(ledger.partitions):
            if not reliable:
                payloads = spout.next_batch(self.batch_size)
                roots: list[int | None] = [None] * len(payloads)
                traces: list = [None] * len(payloads)
            else:
                payloads, roots, traces = [], [], []
                for __ in range(self.batch_size):
                    payload = spout.next_tuple()
                    if payload is None:
                        break
                    local_msg = getattr(spout, "last_offset", None)
                    root = ledger.issue(flat, local_msg)
                    trace = None
                    if self._sampler is not None:
                        span = ledger.trace(flat, local_msg, root)
                        if span is not None:
                            self._spans.record(span)
                            trace = (span.trace_id, span.span_id, span.attempt)
                    payloads.append(payload)
                    roots.append(root)
                    traces.append(trace)
                self._pulls_since_checkpoint += len(payloads)
            if not payloads:
                continue
            pulled = True
            if self._health is not None:
                # The newest issued position is the source frontier the
                # watermarks chase.
                if self._event_time_fn is not None:
                    for payload in payloads:
                        event_time = self._event_time_fn(name, payload)
                        if event_time is not None:
                            self._health.set_source_frontier(event_time)
                elif reliable:
                    self._health.set_source_frontier(roots[-1])
            self.metrics.components[f"spout:{name}"].emitted += len(payloads)
            self._route_spout_batch(name, payloads, roots, traces)
        if (
            self.semantics == "exactly_once"
            and self._pulls_since_checkpoint >= self.checkpoint_interval
        ):
            self._take_checkpoint()
        return pulled

    # -- reply side --------------------------------------------------------

    def _drain_outbox_rings(self) -> bool:
        """Forward every waiting worker→worker re-route frame (star
        transport, second hop). Called eagerly — not just on replies — so
        a worker can never stay blocked on a full outbox while the
        coordinator waits on something else (deadlock freedom).

        Outbox packets are ``[u16 dest][columnar frame]``: the sender
        already bucketed by destination worker, so the fast path is a pure
        byte copy into the destination's inbox ring — no decode, no
        re-encode. Stale-epoch frames are dead traffic and dropped, like
        stale replies; a full destination ring falls back to
        decode-and-rebuffer (the frame re-ships with the next flush).
        """
        drained = False
        rang: set[int] = set()
        for channel in self._channels:
            while (packet := channel.outbox.try_pop()) is not None:
                drained = True
                frame = packet[2:]
                if columnar.frame_epoch(frame) != self.epoch:
                    continue
                dest = int.from_bytes(packet[:2], "little")
                if self._channels[dest].inbox.try_push(frame):
                    self._outstanding += 1
                    rang.add(dest)
                    self._account_data(len(frame))
                else:
                    __, entries, khashes = columnar.decode_entries(
                        frame, self._comp_names
                    )
                    for entry, khash in zip(entries, khashes):
                        self._buffer_entry(entry, khash)
        for dest in rang:
            self._inboxes[dest].put(("frames", self.epoch))
        return drained

    def _results_get(self, timeout: float) -> tuple:
        """One reply from any worker's results queue (fan-in, rotating).

        Waits up to *timeout* for any queue's pipe to become readable,
        then pops from the first ready queue at or after the rotation
        cursor (so a chatty worker cannot starve the others). Queues of
        *crashed* workers (dead with a nonzero exit code) are skipped:
        their tail may be a torn frame that would block ``recv`` forever,
        and the crash path salvages + replaces them. Cleanly-stopped
        workers flushed their feeder on exit, so their remaining messages
        (the final forced telemetry flush, ``stopped``) stay readable.

        Raises :class:`queue.Empty` when nothing is readable in time.
        """
        readers = [q._reader for q in self._results]
        ready = {id(c) for c in mp_connection.wait(readers, timeout=timeout)}
        n = len(readers)
        for off in range(n):
            wid = (self._results_rr + off) % n
            if id(readers[wid]) not in ready:
                continue
            process = self._processes[wid]
            if not process.is_alive() and process.exitcode != 0:
                continue
            self._results_rr = (wid + 1) % n
            try:
                return self._results[wid].get_nowait()
            except queue_mod.Empty:  # pragma: no cover - sole-reader guard
                continue
        raise queue_mod.Empty

    def _salvage_dead_results(self, worker_id: int) -> None:
        """Absorb what a crashed worker's results queue still holds.

        Telemetry flushes in flight at the crash are real data — dropping
        them would cost the flight recorder its freshest pre-crash
        snapshot — but the queue may end in a frame the dying feeder
        half-wrote, and ``recv`` on a torn frame blocks forever. A
        sacrificial daemon thread pulls until the queue is dry or it
        wedges on the torn tail; the queue is replaced at respawn either
        way, so an abandoned thread holds nothing anyone will miss.
        """
        dead_queue = self._results[worker_id]
        salvaged: list = []

        def pull() -> None:
            try:
                while True:
                    salvaged.append(dead_queue.get_nowait())
            except (queue_mod.Empty, OSError, EOFError):
                pass

        thread = threading.Thread(target=pull, daemon=True)
        thread.start()
        thread.join(timeout=1.0)
        for message in list(salvaged):
            kind, wid, __, payload = message
            if kind == "telemetry":
                self._absorb_telemetry(wid, payload)
            # "done"/"flush_ok" remnants belong to the dead epoch: the
            # recovery rolls the cluster back past them, exactly as the
            # epoch guard would have discarded them in-line.

    def _reply(self, timeout: float) -> tuple | None:
        """Take one worker reply and apply what every wait applies alike.

        Telemetry is absorbed whatever its epoch (cumulative state,
        pid-guarded against dead incarnations); any other reply from an
        earlier epoch belongs to a dead incarnation and is dropped;
        ``done`` returns a credit and is applied; ``error`` ends the run.
        Returns ``(kind, worker_id, payload)`` for any other current reply
        (the acks a caller awaits), ``()`` when the reply was consumed
        here, and None when nothing was readable within *timeout*.
        """
        try:
            kind, worker_id, epoch, payload = self._results_get(timeout)
        except queue_mod.Empty:
            return None
        if kind == "telemetry":
            self._absorb_telemetry(worker_id, payload)
        elif epoch != self.epoch:
            pass  # stale incarnation: discard, but it was progress
        elif kind == "done":
            self._outstanding -= 1
            self._apply_reply(payload)
        elif kind == "error":
            # An operator error is deterministic, so never a crash to
            # recover from or a message to replay: the run is over.
            self._worker_error = f"worker {worker_id}: {payload}"
            raise ExecutionError(self._worker_error)
        else:
            return kind, worker_id, payload
        return ()

    def _drain_replies(self, block: bool) -> bool:
        """Apply at most one worker reply; True when one was consumed."""
        self._drain_outbox_rings()
        reply = self._reply(0.05 if block else 0.0)
        if reply is None:
            if self._outstanding > 0:
                self._check_liveness()
            return False
        if reply and reply[0] != "stopped":  # pragma: no cover - defensive
            raise ExecutionError(f"unexpected worker reply {reply[0]!r} mid-run")
        return True

    def _apply_reply(self, payload: dict) -> None:
        for component, count in payload["processed"].items():
            self.metrics.components[f"bolt:{component}"].processed += count
        for component, count in payload["emitted"].items():
            self.metrics.components[f"bolt:{component}"].emitted += count
        # Remote entries arrived on the outbox ring and were forwarded by
        # _drain_outbox_rings already; the reply only accounts for them.
        if payload["out_bytes"]:
            self._account_data(payload["out_bytes"], frames=payload["remote_frames"])
            self._pickled_bytes += payload["out_pickled"]
        self._ledger.ack(payload["deltas"])
        if payload["lost"] and self.semantics == "exactly_once":
            # A lost delivery is unrecoverable forward progress loss under
            # exactly-once: roll the cluster back to the last checkpoint.
            self._recover_requested = True

    def _dead_workers(self) -> list[int]:
        return [
            worker_id
            for worker_id in range(self.n_workers)
            if not self._processes[worker_id].is_alive()
        ]

    def _check_liveness(self) -> None:
        dead = self._dead_workers()
        if dead:
            self._handle_crash(dead)

    # -- failure handling --------------------------------------------------

    def _event(self, kind: str) -> None:
        if self._spans is not None:
            self._spans.record(event_span("coordinator", kind, time.perf_counter()))

    def _handle_crash(self, dead: list[int]) -> None:
        """A worker process died (or a loss forced a rollback): respawn
        the dead and recover per the delivery semantics."""
        if dead:
            self._event("crash")
            # Seal *before* respawn: the dead incarnation's cumulative
            # telemetry stream has ended, so its last absorbed values
            # become the base under the new incarnation's fresh counters.
            # Salvage first — flushes still sitting in the dead channel
            # belong to the dying incarnation and must land pre-seal.
            for worker_id in dead:
                self._salvage_dead_results(worker_id)
                if self._absorber is not None:
                    self._absorber.seal_worker(worker_id)
                if self._health is not None:
                    self._health.note_respawn(worker_id)
        self.metrics.recoveries += 1
        self.epoch += 1
        self._outstanding = 0
        self._buffers = [[] for __ in range(self.n_workers)]
        for worker_id in dead:
            self._processes[worker_id].join(timeout=1.0)
            # The injected crash is one-shot *cluster-wide*: the respawned
            # process forks a pristine copy of the parent's injector, so
            # without this it would crash again after every rollback.
            injector = self.worker_faults.get(worker_id)
            if injector is not None:
                injector.crash_after = None
            self._spawn_worker(worker_id)
        if self.semantics == "exactly_once":
            self._rollback()
        else:
            # No checkpoints: the dead worker's state is gone (Storm
            # without Trident). Incomplete trees replay under
            # at-least-once; at-most-once issued no roots, so nothing
            # replays and lost trees are simply gone.
            self._ledger.fail_pending()
        self._recover_requested = False
        if dead and self._health is not None:
            # Post-mortem: a crash-reason snapshot (built from state that
            # is at most one flush interval stale) goes into the flight
            # recorder, and the whole black box hits disk if a dump path
            # was configured.
            self._publish_health(reason="crash")
            self.flight.record_event(
                "crash", {"workers": dead, "epoch": self.epoch}
            )
            if self.flight_path is not None:
                self.flight.dump(self.flight_path, reason="crash")

    def _rollback(self) -> None:
        """Restore every worker from the last checkpoint, rewind sources."""
        self._event("recovery")
        checkpoint = self._checkpoint or {}
        states = checkpoint.get("workers", {})
        self._broadcast("restore", lambda worker_id: states.get(worker_id, {}))
        self._ledger.rewind(checkpoint.get("offsets"))
        self._pulls_since_checkpoint = 0

    def _broadcast(
        self,
        kind: str,
        arg: Callable[[int], Any] | None = None,
        workers: Iterable[int] | None = None,
    ) -> dict[int, Any]:
        """Send ``(kind, epoch[, arg(worker)])`` to *workers* (default:
        every worker) and return each one's ``<kind>_ok`` payload."""
        workers = range(self.n_workers) if workers is None else workers
        for worker_id in workers:
            self._inboxes[worker_id].put(
                (kind, self.epoch)
                if arg is None
                else (kind, self.epoch, arg(worker_id))
            )
        return self._await_all(f"{kind}_ok", workers)

    def _await_all(self, expected: str, workers: Iterable[int]) -> dict[int, Any]:
        """Collect one *expected* reply per worker in *workers* for this
        epoch. The wait is deadline-bounded and crash-aware: on a quiet
        queue it drains outbox rings (a worker may be pushing re-route
        frames) and raises :class:`_WorkerDied` if any worker is dead."""
        pending = set(workers)
        payloads: dict[int, Any] = {}
        deadline = time.perf_counter() + self.reply_timeout
        while pending:
            if time.perf_counter() > deadline:
                raise ExecutionError(f"timed out awaiting {expected} replies")
            reply = self._reply(0.1)
            if reply is None:
                self._drain_outbox_rings()
                dead = self._dead_workers()
                if dead:
                    raise _WorkerDied(dead, expected)
                continue
            if not reply:
                continue
            kind, worker_id, payload = reply
            if kind != expected:
                raise ExecutionError(
                    f"expected {expected}, got {kind!r} from worker {worker_id}"
                )
            pending.discard(worker_id)
            payloads[worker_id] = payload
        return payloads

    # -- checkpointing -----------------------------------------------------

    def _drain_outstanding(self) -> None:
        """Block until every envelope has been processed cluster-wide.

        Quiescence needs a final outbox sweep: the reply that brings
        ``outstanding`` to zero was enqueued *after* its worker pushed its
        re-route frames, so those frames are guaranteed visible — but only
        if we look. Without the sweep a checkpoint could snapshot while
        second-hop tuples sit unread in a ring.
        """
        while True:
            if self._outstanding <= 0 and not any(self._buffers):
                if not self._drain_outbox_rings():
                    break  # no credits, no buffers, rings empty: idle
            self._flush_buffers()
            self._drain_replies(block=True)
            while self._drain_replies(block=False):
                pass
            if self._recover_requested:
                break

    def _quiesce(self, refused: str) -> None:
        """Drain every outstanding envelope; if a loss surfaced meanwhile,
        refuse with *refused* (the pump's recovery runs instead)."""
        self._drain_outstanding()
        if self._recover_requested:
            raise ExecutionError(f"cluster is recovering; {refused}")

    def _take_checkpoint(self) -> None:
        """Cluster-wide consistent snapshot: drain, snapshot, record."""
        self._drain_outstanding()
        if self._recover_requested:
            return  # a loss surfaced while draining; recover instead
        try:
            worker_states = self._broadcast("snapshot")
        except _WorkerDied as died:  # recover, checkpoint next round
            self._handle_crash(died.dead)
            return
        self._keep_checkpoint(worker_states)
        self.metrics.checkpoints += 1
        self._event("checkpoint")

    def _keep_checkpoint(self, worker_states: dict[int, Any]) -> None:
        """Make *worker_states*, at the sources' current offsets, the cut
        a rollback returns to."""
        self._checkpoint = {
            "workers": worker_states,
            "offsets": self._ledger.checkpoint(),
        }
        self._pulls_since_checkpoint = 0

    # -- main loop ---------------------------------------------------------

    def run(self) -> ExecutionMetrics:
        """Execute until sources are exhausted and all work has settled.

        Workers are left alive afterwards so shard state can be queried
        (:meth:`merged_synopsis`, :meth:`bolt_states`); :meth:`close`
        shuts them down.
        """
        started = time.perf_counter()
        with self._control_lock:
            self._pumping = True
            try:
                self._ensure_started()
                if self.semantics == "exactly_once" and self._checkpoint is None:
                    self._take_checkpoint()  # epoch-0 baseline to roll back to
                while True:
                    self._pump()
                    try:
                        self._flush_all_bolts()
                    except _FlushInterrupted:
                        # A worker died mid-flush: recovery already ran
                        # (respawn, rollback/replay, epoch bump). Re-enter
                        # the pump — under exactly-once the rewound sources
                        # re-feed from the last checkpoint — then flush
                        # again from the first bolt (state everywhere is
                        # post-recovery, so the re-flush is the first flush
                        # that incarnation sees).
                        continue
                    break
            finally:
                self._pumping = False
                # Serve any request that raced the shutdown of the pump:
                # after the flag flips, new requesters serve the queue
                # inline, so this drain closes the window.
                self._serve_requests()
        self.metrics.wall_seconds = time.perf_counter() - started
        self._publish_health(reason="final")
        return self.metrics

    def _pump(self) -> None:
        """Feed spouts and absorb replies until the cluster is quiescent."""
        while True:
            if self._worker_error is not None:
                raise ExecutionError(self._worker_error)
            if self._recover_requested:
                self._handle_crash([])  # loss-triggered rollback, no death
            self._maybe_publish_health()
            self._serve_requests()
            self._maybe_autoscale()
            progressed = self._pull_spouts()
            # Absorb every reply already waiting before shipping: remote
            # re-routes from several replies coalesce into fewer, larger
            # second-hop envelopes.
            drained = self._drain_replies(block=False)
            while self._drain_replies(block=False):
                pass
            if not drained and not progressed and self._outstanding > 0:
                drained = self._drain_replies(block=True)
            progressed |= drained
            self._flush_buffers()
            if progressed or self._outstanding > 0 or any(self._buffers):
                continue
            if not self._ledger.exhausted():
                continue
            if self._ledger.acker.n_pending:
                self._ledger.fail_pending()
                continue
            break

    def _flush_all_bolts(self) -> None:
        """End-of-stream flush, topological order, cluster-wide.

        A worker that dies mid-flush triggers recovery and a flush restart
        (:class:`_FlushInterrupted`) instead of a hang or an error.
        """
        for name in topological_bolt_order(self.topology):
            self._drain_outstanding()  # the upstream flush's cascade too
            if self._recover_requested:
                raise _FlushInterrupted(name)
            owners = self._operator_owners()[name][1]
            try:
                replies = self._broadcast("flush", lambda __: name, owners)
            except _WorkerDied as died:
                self._handle_crash(died.dead)
                raise _FlushInterrupted(name) from None
            for payload in replies.values():
                self._apply_reply(payload)
        self._drain_outstanding()
        if self._recover_requested:
            raise _FlushInterrupted

    # -- merge-on-query ----------------------------------------------------

    def _query_shards(self, name: str) -> list[bytes]:
        """Ship bolt *name*'s shard snapshots home as raw stateship payloads.

        Must run on the thread driving the worker queues (the pump loop,
        or the caller when no pump is active) with outstanding envelopes
        drained, so the shards form a tuple-consistent cut.
        """
        comp = self.topology.components[name]
        shards: dict[tuple[str, int], bytes] = {}
        for payload in self._broadcast("query", lambda __: name).values():
            shards.update(payload)
        return [shards[(name, task)] for task in range(comp.parallelism)]

    def _serve_requests(self) -> None:
        """Serve queued cross-thread requests in arrival order.

        Runs between pump rounds — and once more as the run winds down —
        so a requesting thread never touches the worker queues itself.
        Failures are handed back to the requester rather than raised
        here: a snapshot or rescale that cannot run (e.g. mid-recovery)
        must not kill ingest.
        """
        while True:
            try:
                call, future = self._requests.get_nowait()
            except queue_mod.Empty:
                return
            try:
                future.set_result(call())
            except BaseException as exc:  # hand the failure to the requester
                future.set_exception(exc)

    def _submit(
        self, call: Callable[[], Any], timeout: float | None, what: str
    ) -> Any:
        """Run *call* on the thread driving the workers; return its result.

        Safe from any thread: while :meth:`run` is pumping, the request
        queues up and the pump serves it at a consistent point; when no
        pump is active the caller serves the queue (its own request
        included) inline under the control lock.
        """
        future: futures.Future = futures.Future()
        self._requests.put((call, future))
        deadline = time.perf_counter() + (timeout or self.reply_timeout)
        while not futures.wait((future,), 0.0 if not self._pumping else 0.05).done:
            # Blocking briefly, not polling: another requester may be
            # serving the queue inline, and a 0 s retry would spin a core.
            if not self._pumping and self._control_lock.acquire(timeout=0.05):
                try:
                    self._ensure_started()
                    self._serve_requests()
                finally:
                    self._control_lock.release()
                continue
            if time.perf_counter() > deadline:
                raise ExecutionError(f"timed out {what}")
        return future.result()

    def capture_shards(self, name: str, timeout: float | None = None) -> list[bytes]:
        """Snapshot bolt *name*'s shard partials as stateship payloads.

        The serving layer's snapshot hook, safe to call from another
        thread while :meth:`run` is pumping (see :meth:`_submit`): the
        returned payloads are one frozen snapshot-isolated cut of the
        bolt's state, taken with outstanding envelopes drained — ingest
        proceeds underneath, and later queries against the restored
        payloads can never see a torn or moving view. Payloads are in
        task order; decode with :func:`repro.core.stateship.restore` (and
        merge for the merge-on-query fold).
        """
        comp = self.topology.components.get(name)
        if comp is None or comp.kind != "bolt":
            raise ParameterError(f"no bolt named {name!r}")

        def capture() -> list[bytes]:
            self._quiesce("snapshot capture retry needed")
            return self._query_shards(name)

        return self._submit(capture, timeout, f"capturing {name!r} shard snapshots")

    # -- elastic runtime ---------------------------------------------------

    def rescale(
        self,
        n_workers: int | None = None,
        parallelism: dict[str, int] | None = None,
        reason: str = "manual",
        timeout: float | None = None,
    ) -> Any:
        """Rescale the running cluster to *n_workers* / per-bolt
        *parallelism* without replaying the sources.

        Safe to call from any thread while :meth:`run` is pumping (see
        :meth:`_submit`); the pump serves it at a consistent point
        (quiescence barrier, capture, split/merge re-shard, reshape,
        restore — see :mod:`repro.cluster.elastic.migrate`). Returns the
        timed :class:`~repro.cluster.elastic.migrate.RescaleReport` (None
        for a no-op request).
        """
        from repro.cluster.elastic.migrate import perform_rescale

        return self._submit(
            lambda: perform_rescale(
                self,
                n_workers=n_workers,
                parallelism=parallelism,
                reason=reason,
                trigger="manual",
            ),
            timeout,
            "awaiting rescale",
        )

    def _maybe_autoscale(self) -> None:
        """Consult the autoscaler every ``tick_every`` pump iterations.

        The cadence is counted in pump rounds, not seconds, so decision
        sequences are workload-relative and reproducible. Decisions and
        applied rescales land as typed events in the flight recorder;
        a rescale refused because recovery is in flight simply retries
        at a later tick.
        """
        scaler = self.autoscaler
        if scaler is None or self._health is None:
            return
        self._pump_iterations += 1
        if self._pump_iterations % scaler.tick_every:
            return
        from repro.cluster.elastic.migrate import perform_rescale

        snapshot = self._publish_health(reason="autoscale")
        decision = scaler.observe(
            snapshot, n_workers=self.n_workers, parallelism=self._parallelism()
        )
        if decision.action == "hold":
            return
        if self.flight is not None:
            self.flight.record_event("autoscale", decision.to_dict())
        try:
            report = perform_rescale(
                self,
                n_workers=decision.n_workers,
                parallelism=decision.parallelism,
                reason=decision.reason,
                trigger=f"autoscale_{decision.action}",
            )
        except ExecutionError:
            return  # recovery owns the cluster right now; try next tick
        if report is not None:
            scaler.note_applied(decision, report, clock=snapshot.clock)

    def bolt_states(self, name: str) -> list[Any]:
        """Per-task snapshot state of bolt *name*, in task order.

        Ships each shard's ``snapshot()`` across the process boundary and
        decodes it here — the raw partials behind :meth:`merged_synopsis`.
        """
        return [
            stateship.restore(payload)["state"]
            for payload in self.capture_shards(name)
        ]

    def merged_synopsis(self, name: str) -> Any:
        """The bolt's shard-partial synopses folded into one (merge-on-query).

        Requires the bolt's snapshot state to be a mergeable synopsis
        (:class:`~repro.common.mergeable.SynopsisBase`), e.g.
        :class:`~repro.platform.operators.SynopsisBolt`. Partials merge in
        task order, so the result is reproducible run to run.
        """
        return fold(self.bolt_states(name))

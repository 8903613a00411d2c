"""Typed cluster health snapshots: the autoscaler-facing signal feed.

Every Table-2 system surfaces a *live* control view of a running topology
— Storm's UI, Heron's metrics manager, MillWheel's per-computation
watermarks. :class:`HealthSnapshot` is our typed equivalent, built by a
:class:`HealthMonitor` from the telemetry flushes the workers stream to
the coordinator (:mod:`repro.obs.live`) plus the coordinator's own
transport counters and shm ring occupancy. It is deliberately a frozen,
JSON-round-trippable schema (``repro.obs.health/v1``): ROADMAP item 3's
backpressure-driven autoscaler consumes exactly this object, and
``repro-obs top`` renders it.

**Watermark semantics.** Workers report, per operator, the highest source
*root id* they have fully processed (root ids are coordinator-issued and
monotone, so they are an offset-unit event clock — MillWheel's "low
watermark" over a trivially in-order source). The operator watermark is
the **min** across the workers owning its tasks: everything at or below it
has provably passed through every shard. ``lag`` is the distance from the
source frontier (the newest root the coordinator has issued) to that
watermark — the per-operator backlog the autoscaler watches. When the
topology carries real event times, an ``event_time_fn`` lifts both
frontier and watermarks into event-time units instead
(``watermark_unit == "event_time"``); in unreliable at-most-once runs no
root ids exist, so offset-unit watermarks stay at 0 and only throughput/
occupancy signals move.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable

#: Schema tag embedded in every snapshot dict (versioned for consumers).
HEALTH_SCHEMA = "repro.obs.health/v1"


@dataclass(frozen=True)
class OperatorHealth:
    """One operator's streaming health (cluster-wide, all shards folded)."""

    name: str
    kind: str  # "spout" | "bolt"
    processed: int
    emitted: int
    #: Highest source position fully processed by *every* owning shard.
    watermark: float
    #: ``source_frontier - watermark`` (>= 0): the operator's backlog.
    lag: float
    processed_rate: float  # tuples/s since the previous snapshot


@dataclass(frozen=True)
class WorkerHealth:
    """One worker process as seen through its telemetry stream."""

    worker: int
    alive: bool
    #: Process incarnation (0 for the original, +1 per respawn).
    incarnation: int
    #: Sequence number of the last absorbed flush (per incarnation).
    telemetry_seq: int
    #: Seconds since the last flush was absorbed (-1.0: never heard from).
    telemetry_age_s: float
    #: Total flushes absorbed across all incarnations.
    flushes: int
    ring_in_used: int
    ring_out_used: int
    ring_capacity: int
    processed_total: int

    @property
    def ring_in_occupancy(self) -> float:
        """Inbox ring fill fraction in [0, 1] (0 when no shm rings)."""
        return self.ring_in_used / self.ring_capacity if self.ring_capacity else 0.0

    @property
    def ring_out_occupancy(self) -> float:
        """Outbox ring fill fraction in [0, 1] (0 when no shm rings)."""
        return self.ring_out_used / self.ring_capacity if self.ring_capacity else 0.0


@dataclass(frozen=True)
class HealthSnapshot:
    """One point-in-time cluster health view (the item-3 autoscaler feed)."""

    seq: int
    clock: float  # monotonic seconds; ages/rates are deltas of this
    reason: str  # "interval" | "query" | "crash" | "mismatch" | "final"
    watermark_unit: str  # "offset" | "event_time"
    source_frontier: float
    backpressure_waits: int
    latency_p50_s: float
    latency_p99_s: float
    workers: tuple[WorkerHealth, ...] = field(default_factory=tuple)
    operators: tuple[OperatorHealth, ...] = field(default_factory=tuple)
    #: Serving-layer counters (epoch, cache hits/misses, …) when the
    #: snapshot comes from a query front-end; None for plain cluster runs.
    serving: dict[str, Any] | None = None
    #: Envelopes issued but not yet acknowledged at snapshot time — the
    #: tuples a migration barrier would have to drain.
    in_flight: int = 0
    #: Cumulative spout-pull rounds skipped because ``outstanding``
    #: exceeded the credit cap. Like ``backpressure_waits`` this is a
    #: monotone counter; the autoscaler watches its *delta* between
    #: ticks as the "sources are being held back" pressure signal.
    spout_throttled: int = 0
    #: Elastic-runtime state (current parallelism, last rescale decision,
    #: autoscaler cooldown) when the run has an elastic coordinator;
    #: None otherwise. See ``repro.cluster.elastic``.
    elastic: dict[str, Any] | None = None
    schema: str = HEALTH_SCHEMA

    def worker(self, worker_id: int) -> WorkerHealth | None:
        """The entry for *worker_id*, or None."""
        for entry in self.workers:
            if entry.worker == worker_id:
                return entry
        return None

    def operator(self, name: str) -> OperatorHealth | None:
        """The entry for operator *name*, or None."""
        for entry in self.operators:
            if entry.name == name:
                return entry
        return None

    def max_ring_occupancy(self) -> float:
        """The fullest ring across all workers and directions, in [0, 1]."""
        peaks = [
            max(w.ring_in_occupancy, w.ring_out_occupancy) for w in self.workers
        ]
        return max(peaks, default=0.0)

    def max_lag(self) -> float:
        """The laggiest operator's backlog (the autoscale-up trigger)."""
        return max((op.lag for op in self.operators), default=0.0)

    def to_dict(self) -> dict[str, Any]:
        """Plain JSON-ready dict (``workers``/``operators`` as lists)."""
        out = asdict(self)
        out["workers"] = [asdict(w) for w in self.workers]
        out["operators"] = [asdict(op) for op in self.operators]
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "HealthSnapshot":
        """Rebuild a snapshot from :meth:`to_dict` output."""
        payload = dict(data)
        payload["workers"] = tuple(
            WorkerHealth(**w) for w in payload.get("workers", ())
        )
        payload["operators"] = tuple(
            OperatorHealth(**op) for op in payload.get("operators", ())
        )
        return cls(**payload)


class _WorkerState:
    """Mutable per-worker accumulation between snapshots."""

    __slots__ = (
        "alive",
        "incarnation",
        "seq",
        "flushes",
        "last_flush_clock",
        "frontier",
        "event_frontier",
        "processed_total",
        "ring_in_used",
        "ring_out_used",
    )

    def __init__(self) -> None:
        self.alive = True
        self.incarnation = 0
        self.seq = 0
        self.flushes = 0
        self.last_flush_clock: float | None = None
        self.frontier: dict[str, float] = {}
        self.event_frontier: dict[str, float] = {}
        self.processed_total = 0
        self.ring_in_used = 0
        self.ring_out_used = 0


class HealthMonitor:
    """Folds telemetry flushes + transport state into health snapshots.

    Deliberately knows nothing about the cluster executor: it is fed
    primitives (flush payload fields, ring byte counts, operator → owner
    maps) so it can be unit-tested with a fake clock and reused by any
    runtime that can produce the same signals.
    """

    def __init__(
        self,
        n_workers: int,
        operators: dict[str, tuple[str, tuple[int, ...]]],
        ring_capacity: int = 0,
        watermark_unit: str = "offset",
        clock: Callable[[], float] = time.monotonic,
    ):
        self.n_workers = n_workers
        #: name -> (kind, worker ids owning at least one task of it).
        self.operators = operators
        self.ring_capacity = ring_capacity
        self.watermark_unit = watermark_unit
        self._clock = clock
        self._workers = {w: _WorkerState() for w in range(n_workers)}
        self._seq = 0
        self._source_frontier = 0.0
        self._last_counts: dict[str, int] = {}
        self._last_clock: float | None = None
        self.last_snapshot: HealthSnapshot | None = None

    # -- signal intake -----------------------------------------------------

    def record_flush(
        self,
        worker: int,
        seq: int,
        frontier: dict[str, float],
        event_frontier: dict[str, float] | None = None,
        processed_total: int = 0,
    ) -> None:
        """Absorb one telemetry flush's health fields from *worker*."""
        state = self._workers.get(worker)
        if state is None:
            # A worker id the monitor no longer tracks: the last flush of
            # an incarnation retired by an elastic scale-down can trail
            # the reconfigure. Stale by construction — drop it.
            return
        state.seq = seq
        state.flushes += 1
        state.last_flush_clock = self._clock()
        state.frontier.update(frontier)
        if event_frontier:
            state.event_frontier.update(event_frontier)
        state.processed_total = processed_total
        state.alive = True

    def note_respawn(self, worker: int) -> None:
        """A worker died and is being replaced: reset its stream state.

        The dead incarnation's frontiers are dropped — after rollback the
        new incarnation re-earns its watermark, which correctly *lowers*
        the operator watermark until replayed work catches back up.
        """
        state = self._workers[worker]
        state.incarnation += 1
        state.seq = 0
        state.last_flush_clock = None
        state.frontier = {}
        state.event_frontier = {}

    def reconfigure(
        self,
        n_workers: int,
        operators: dict[str, tuple[str, tuple[int, ...]]],
    ) -> None:
        """Re-shape the monitor after an elastic rescale.

        Worker ids retained across the rescale keep their cumulative
        totals (flush counts survive, like a respawn) but start a new
        incarnation with cleared frontiers — post-restore they re-earn
        their watermarks exactly as a crash-respawned worker does.
        Retired ids are dropped; grown ids start fresh.
        """
        survivors: dict[int, _WorkerState] = {}
        for worker in range(n_workers):
            state = self._workers.get(worker)
            if state is not None:
                state.incarnation += 1
                state.seq = 0
                state.last_flush_clock = None
                state.frontier = {}
                state.event_frontier = {}
                state.ring_in_used = 0
                state.ring_out_used = 0
                survivors[worker] = state
            else:
                survivors[worker] = _WorkerState()
        self._workers = survivors
        self.n_workers = n_workers
        self.operators = operators

    def set_source_frontier(self, value: float) -> None:
        """Newest source position issued (same unit as the watermarks)."""
        self._source_frontier = max(self._source_frontier, float(value))

    def set_worker_io(
        self, worker: int, alive: bool, ring_in_used: int, ring_out_used: int
    ) -> None:
        """Point-in-time liveness + shm ring fill for *worker*."""
        state = self._workers.get(worker)
        if state is None:  # retired by a rescale (see record_flush)
            return
        state.alive = alive
        state.ring_in_used = ring_in_used
        state.ring_out_used = ring_out_used

    # -- derived -----------------------------------------------------------

    def _watermark(self, name: str, owners: tuple[int, ...]) -> float:
        """Min over owning workers of their reported frontier for *name*."""
        event_time = self.watermark_unit == "event_time"
        values = []
        for worker in owners:
            state = self._workers.get(worker)
            if state is None:
                return 0.0
            front = state.event_frontier if event_time else state.frontier
            values.append(front.get(name, 0.0))
        return min(values, default=0.0)

    def snapshot(
        self,
        reason: str = "interval",
        counts: dict[str, tuple[int, int]] | None = None,
        backpressure_waits: int = 0,
        latency_p50_s: float = 0.0,
        latency_p99_s: float = 0.0,
        in_flight: int = 0,
        spout_throttled: int = 0,
        elastic: dict[str, Any] | None = None,
    ) -> HealthSnapshot:
        """Build (and remember) the next snapshot.

        *counts* maps operator name to cluster-wide ``(processed,
        emitted)`` totals — the coordinator supplies them from its run
        counters so the monitor needs no registry access.
        """
        self._seq += 1
        now = self._clock()
        elapsed = (
            now - self._last_clock if self._last_clock is not None else None
        )
        workers = []
        for worker_id in sorted(self._workers):
            state = self._workers[worker_id]
            age = (
                now - state.last_flush_clock
                if state.last_flush_clock is not None
                else -1.0
            )
            workers.append(
                WorkerHealth(
                    worker=worker_id,
                    alive=state.alive,
                    incarnation=state.incarnation,
                    telemetry_seq=state.seq,
                    telemetry_age_s=age,
                    flushes=state.flushes,
                    ring_in_used=state.ring_in_used,
                    ring_out_used=state.ring_out_used,
                    ring_capacity=self.ring_capacity,
                    processed_total=state.processed_total,
                )
            )
        operators = []
        for name, (kind, owners) in sorted(self.operators.items()):
            processed, emitted = (counts or {}).get(name, (0, 0))
            if kind == "spout":
                watermark = self._source_frontier
            else:
                watermark = self._watermark(name, owners)
            lag = max(0.0, self._source_frontier - watermark)
            previous = self._last_counts.get(name)
            rate = 0.0
            if previous is not None and elapsed and elapsed > 0:
                rate = max(0.0, (processed - previous) / elapsed)
            self._last_counts[name] = processed
            operators.append(
                OperatorHealth(
                    name=name,
                    kind=kind,
                    processed=processed,
                    emitted=emitted,
                    watermark=watermark,
                    lag=lag,
                    processed_rate=round(rate, 3),
                )
            )
        self._last_clock = now
        snapshot = HealthSnapshot(
            seq=self._seq,
            clock=now,
            reason=reason,
            watermark_unit=self.watermark_unit,
            source_frontier=self._source_frontier,
            backpressure_waits=backpressure_waits,
            latency_p50_s=latency_p50_s,
            latency_p99_s=latency_p99_s,
            workers=tuple(workers),
            operators=tuple(operators),
            in_flight=in_flight,
            spout_throttled=spout_throttled,
            elastic=elastic,
        )
        self.last_snapshot = snapshot
        return snapshot

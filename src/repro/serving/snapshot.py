"""Snapshot-isolated reads for the serving layer.

A query must see one consistent frozen view of the stream — never a
synopsis mid-update, never shard A at tuple 900 merged with shard B at
tuple 1100 — and taking that view must not stall ingest. Both executors
already have the machinery:

* :class:`~repro.platform.executor.LocalExecutor` runs cooperatively
  (:meth:`run_some` bursts share the event loop with queries), so a
  capture between bursts is automatically tuple-consistent.
* :class:`~repro.cluster.coordinator.ClusterExecutor.capture_shards`
  queues a capture request that the pump services at a drained,
  consistent point while ingest proceeds underneath.

Either way the shards cross into the serving layer as
:mod:`repro.core.stateship` payloads — the same self-describing bytes
checkpoints and recovery use — and are folded merge-on-query into one
queryable synopsis. The payload bytes are kept on the
:class:`Snapshot`, so a test (or an auditor) can re-query the captured
state offline and demand bit-identical answers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.common.mergeable import fold
from repro.core import stateship
from repro.obs.metrics import MetricRegistry, NULL_REGISTRY


def capture_payloads(executor: Any, bolt: str) -> list[bytes]:
    """Bolt *bolt*'s shard snapshots as stateship payloads, task order.

    Cluster executors ship them from the workers via
    ``capture_shards``; local executors capture in-process — each
    payload is ``stateship.capture({"state": shard_snapshot})``, the
    exact framing the cluster workers use, so downstream handling is
    executor-agnostic.
    """
    if hasattr(executor, "capture_shards"):
        return executor.capture_shards(bolt)
    return [
        stateship.capture({"state": instance.snapshot()})
        for instance in executor.bolt_instances(bolt)
    ]


def merge_payloads(payloads: list[bytes]) -> Any:
    """Fold shard payloads into one queryable synopsis (merge-on-query)."""
    return fold([stateship.restore(payload)["state"] for payload in payloads])


@dataclass(frozen=True)
class Snapshot:
    """One frozen, epoch-stamped view of a bolt's merged state."""

    epoch: int
    captured_at: float  # clock seconds (monotonic unless a clock is injected)
    payloads: tuple[bytes, ...]  # per-shard stateship bytes, task order
    synopsis: Any  # the merged, queryable fold of `payloads`

    def age(self, now: float) -> float:
        """Seconds since capture, given the store's current clock."""
        return max(0.0, now - self.captured_at)


class SnapshotStore:
    """Epoch-stamped snapshot captures of one bolt on one executor.

    The store owns the serving layer's epoch counter: every
    :meth:`refresh` captures a new frozen view and bumps the epoch,
    which (via epoch-keyed caching) atomically invalidates every result
    computed from the previous view.
    """

    def __init__(
        self,
        executor: Any,
        bolt: str,
        clock: Callable[[], float] | None = None,
        registry: MetricRegistry | None = None,
    ):
        self.executor = executor
        self.bolt = bolt
        self._clock = clock if clock is not None else time.monotonic
        self._current: Snapshot | None = None
        registry = registry if registry is not None else NULL_REGISTRY
        self._captures = registry.counter(
            "serving_snapshots_total", "Snapshot captures taken."
        )
        self._epoch_gauge = registry.gauge(
            "serving_snapshot_epoch", "Current snapshot epoch."
        )
        self._age_gauge = registry.gauge(
            "serving_snapshot_age_seconds",
            "Age of the served snapshot at last refresh check.",
        )

    @property
    def epoch(self) -> int:
        """The current snapshot's epoch (0 before the first capture)."""
        return self._current.epoch if self._current is not None else 0

    def current(self) -> Snapshot | None:
        """The live snapshot, if one has been captured."""
        return self._current

    def age(self) -> float:
        """Seconds since the current snapshot was captured (inf if none)."""
        if self._current is None:
            return float("inf")
        age = self._current.age(self._clock())
        self._age_gauge.set(age)
        return age

    def refresh(self) -> Snapshot:
        """Capture a fresh frozen view and advance the epoch."""
        payloads = tuple(capture_payloads(self.executor, self.bolt))
        snapshot = Snapshot(
            epoch=self.epoch + 1,
            captured_at=self._clock(),
            payloads=payloads,
            synopsis=merge_payloads(list(payloads)),
        )
        self._current = snapshot
        self._captures.inc()
        self._epoch_gauge.set(snapshot.epoch)
        self._age_gauge.set(0.0)
        return snapshot

    def ensure(self, max_age: float) -> Snapshot:
        """The current snapshot, refreshed if older than *max_age*."""
        if self._current is None or self.age() > max_age:
            return self.refresh()
        return self._current

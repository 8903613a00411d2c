"""Live state migration: rescale a running cluster without replay.

The rescale protocol is a checkpoint-restore specialised to *resizing*.
Heron's and Storm's answer to a hot topology that outgrows its container
plan is "kill it, resubmit with more parallelism, replay from the source"
— minutes of downtime and a full re-read of retained history. Here the
coordinator already owns everything a faster answer needs: a quiescence
barrier (credit-based drain), per-shard state capture (``stateship``
snapshots), an epoch fence that makes old-incarnation traffic inert, and
— new in this subsystem — a ``split`` contract on every mergeable synopsis
(:meth:`repro.common.mergeable.SynopsisBase.split`) that is the exact
inverse of the merge the serving layer already trusts.

The protocol, in barrier order:

1. **Barrier** — drain every outstanding envelope (the same quiescence
   predicate checkpoints use). At the barrier the cluster state *is* a
   consistent cut: nothing is in flight, every buffer is empty.
2. **Capture** — snapshot every ``(bolt, task)`` shard on every worker
   through the coordinator's ``_broadcast("snapshot")``, exactly the
   checkpoint capture path.
3. **Re-shard** — for each bolt whose parallelism changes, fold its task
   partials with ``merge`` and deal them back out with ``split(new_p)``.
   Synopses without a mathematically valid split
   (:class:`~repro.common.exceptions.SplitUnsupported`) fall back to
   *drain-and-restart*: task 0 parks the fully merged state, sibling
   tasks start factory-fresh — correct for anything mergeable, since
   partitioned accumulation + merge-on-query is the library's core
   equivalence. Bolts with unchanged parallelism move their payloads
   byte-for-byte (any state shape, synopsis or not).
4. **Rewire** — apply the new parallelism and credit window, then let
   the coordinator's ``_reshape`` (the worker-set lifecycle that also
   starts and closes the cluster) stop the old worker set cleanly
   (sealing each telemetry incarnation), re-plan over the new worker
   count, reset retained shm rings / destroy retired ones / create fresh
   ones for growth, bump the epoch, and fork the new worker set.
5. **Restore** — deal the re-sharded payloads by the new plan and restore
   each worker, exactly the rollback path. Under exactly-once the restore
   set becomes the new checkpoint baseline with the *current* spout
   offsets, so the sources never rewind: no replay, no duplicates, and a
   later crash rolls back to post-rescale state.

Everything that touches captured state runs inside
:func:`migration_barrier` — streamlint's SL016 rule enforces that
discipline statically. This module drives the protocol through the
executor's methods and assigns none of its private state.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Iterator

from repro.common.exceptions import (
    ExecutionError,
    ParameterError,
    SplitUnsupported,
)
from repro.common.mergeable import SynopsisBase, fold
from repro.core import stateship

#: Re-shard strategies recorded per resized bolt (surfaced in the
#: rescale report, the flight recorder and ``repro-obs top``).
STRATEGY_SPLIT = "split"
STRATEGY_DRAIN_RESTART = "drain_restart"
STRATEGY_STATELESS = "stateless"


@dataclass
class RescaleReport:
    """One completed rescale, timed phase by phase.

    ``lag_recovery_s`` is filled in *after* the fact by the autoscaler
    (the first post-rescale health tick whose lag is back under target);
    it stays None for manual rescales nobody is watching.
    """

    seq: int
    reason: str
    trigger: str  # "manual" | "autoscale_up" | "autoscale_down"
    from_workers: int
    to_workers: int
    parallelism_before: dict[str, int] = field(default_factory=dict)
    parallelism_after: dict[str, int] = field(default_factory=dict)
    #: bolt -> STRATEGY_* for every bolt whose parallelism changed.
    strategies: dict[str, str] = field(default_factory=dict)
    in_flight_at_request: int = 0
    barrier_s: float = 0.0
    capture_s: float = 0.0
    restore_s: float = 0.0
    total_s: float = 0.0
    moved_state_bytes: int = 0
    epoch: int = 0
    lag_recovery_s: float | None = None

    def to_dict(self) -> dict[str, Any]:
        """Plain JSON-ready dict (flight-recorder event payload)."""
        return asdict(self)


@contextmanager
def migration_barrier(executor: Any) -> Iterator[None]:
    """Quiesce the cluster and hold it quiet for the body of the ``with``.

    Entering drains every outstanding envelope (the checkpoint barrier);
    once it yields, no tuple is in flight, every routing buffer is empty
    and every worker is idle, so captured state forms a consistent cut.
    If a loss surfaced while draining the rescale must not proceed on a
    torn cut — the barrier raises and the pump's recovery path runs
    instead.

    The body must not feed spouts or flush buffers; it may stop, spawn
    and message workers. All migration state surgery (``merge``,
    ``split``, ``restore``) belongs inside this block — SL016 checks
    exactly that.
    """
    executor._quiesce("rescale aborted before the barrier")
    yield


def reshard_states(
    topology: Any,
    states: dict[tuple[str, int], bytes | None],
    new_parallelism: dict[str, int],
) -> tuple[dict[tuple[str, int], bytes | None], dict[str, str]]:
    """Re-deal captured shard payloads onto the new task sets.

    *states* maps every current ``(bolt, task)`` to its stateship payload
    (None for stateless shards). Bolts absent from *new_parallelism* pass
    through untouched; resized bolts are merged and re-split (or parked
    on task 0 when the synopsis cannot split). Returns the new payload
    map plus the strategy chosen per resized bolt.
    """
    out = dict(states)
    strategies: dict[str, str] = {}
    for name, new_p in new_parallelism.items():
        old_p = topology.components[name].parallelism
        payloads = [out.pop((name, task), None) for task in range(old_p)]
        partials = [
            stateship.restore(payload)["state"]
            for payload in payloads
            if payload is not None
        ]
        partials = [state for state in partials if state is not None]
        if not partials:
            # Stateless (or never-snapshotted) bolt: every new task
            # starts fresh, which is what its old tasks were.
            for task in range(new_p):
                out[(name, task)] = None
            strategies[name] = STRATEGY_STATELESS
            continue
        if not all(isinstance(state, SynopsisBase) for state in partials):
            raise ExecutionError(
                f"cannot rescale bolt {name!r}: its snapshot state is not "
                "a mergeable synopsis (change worker count instead, which "
                "moves shards without re-sharding them)"
            )
        merged = fold(partials)
        try:
            shards: list[SynopsisBase | None] = list(merged.split(new_p))
            strategies[name] = STRATEGY_SPLIT
        except SplitUnsupported:
            # Drain-and-restart: the merged history parks on task 0 and
            # the siblings accumulate fresh — merge-on-query folds both
            # back together, so queries stay exact for anything mergeable.
            shards = [merged] + [None] * (new_p - 1)
            strategies[name] = STRATEGY_DRAIN_RESTART
        for task, shard in enumerate(shards):
            out[(name, task)] = (
                None if shard is None else stateship.capture({"state": shard})
            )
    return out, strategies


def _rewire(
    executor: Any, new_workers: int, new_parallelism: dict[str, int]
) -> None:
    """Apply the new parallelism and credit window, then restart the
    worker set on the new shape (:meth:`ClusterExecutor._reshape`). A
    worker that dies while stopping loses nothing: its state was
    captured at the barrier."""
    old_workers = executor.n_workers
    for name, parallelism in new_parallelism.items():
        executor.topology.components[name].parallelism = parallelism
    # The credit window bounds *frames* in flight, and every spout batch
    # fans into ~one frame per destination worker — so the window is
    # per-worker capacity in disguise. Scale it with the worker count,
    # or a grown cluster throttles its sources on routing fan-out alone
    # and the autoscaler reads its own scale-up as sustained pressure.
    executor.max_outstanding = max(
        1, round(executor.max_outstanding * new_workers / old_workers)
    )
    executor._reshape(new_workers)


def _restore_all(
    executor: Any, states: dict[tuple[str, int], bytes | None]
) -> tuple[dict[int, dict[tuple[str, int], bytes | None]], int]:
    """Deal payloads by the new plan and restore every worker."""
    per_worker: dict[int, dict[tuple[str, int], bytes | None]] = {
        worker_id: {} for worker_id in range(executor.n_workers)
    }
    moved = 0
    for (name, task), payload in states.items():
        per_worker[executor.plan.worker_of(name, task)][(name, task)] = payload
        if payload is not None:
            moved += len(payload)
    executor._broadcast("restore", per_worker.__getitem__)
    return per_worker, moved


def perform_rescale(
    executor: Any,
    n_workers: int | None = None,
    parallelism: dict[str, int] | None = None,
    reason: str = "manual",
    trigger: str = "manual",
) -> RescaleReport | None:
    """Rescale *executor* to *n_workers* / per-bolt *parallelism*, live.

    Must run on the thread driving the worker queues (the pump loop, or
    the caller under the control lock when no pump is active) — use
    :meth:`ClusterExecutor.rescale` from other threads. Returns the
    timed :class:`RescaleReport`, or None when the request is a no-op.
    Raises :class:`ExecutionError` if the cluster is mid-recovery (the
    caller retries after recovery completes).
    """
    new_workers = executor.n_workers if n_workers is None else n_workers
    if new_workers <= 0:
        raise ParameterError("n_workers must be positive")
    requested = dict(parallelism or {})
    for name, new_p in requested.items():
        comp = executor.topology.components.get(name)
        if comp is None or comp.kind != "bolt":
            raise ParameterError(f"no bolt named {name!r}")
        if new_p <= 0:
            raise ParameterError(f"parallelism for {name!r} must be positive")
    changed = {
        name: new_p
        for name, new_p in requested.items()
        if executor.topology.components[name].parallelism != new_p
    }
    if new_workers == executor.n_workers and not changed:
        return None
    executor._ensure_started()
    report = RescaleReport(
        seq=len(executor.rescale_reports) + 1,
        reason=reason,
        trigger=trigger,
        from_workers=executor.n_workers,
        to_workers=new_workers,
        parallelism_before=executor._parallelism(),
        in_flight_at_request=executor._outstanding,
    )
    started = time.perf_counter()
    with migration_barrier(executor):
        report.barrier_s = time.perf_counter() - started
        mark = time.perf_counter()
        states: dict[tuple[str, int], bytes | None] = {}
        for shards in executor._broadcast("snapshot").values():
            states.update(shards)
        states, report.strategies = reshard_states(
            executor.topology, states, changed
        )
        report.capture_s = time.perf_counter() - mark
        _rewire(executor, new_workers, changed)
        mark = time.perf_counter()
        per_worker, report.moved_state_bytes = _restore_all(executor, states)
        report.restore_s = time.perf_counter() - mark
        if executor.semantics == "exactly_once":
            # Re-baseline: the restored cut is the new checkpoint, taken
            # at the *current* offsets — the sources never rewind, so the
            # rescale replays nothing, and a later crash rolls back to
            # post-rescale state.
            executor._keep_checkpoint(per_worker)
    report.parallelism_after = executor._parallelism()
    report.epoch = executor.epoch
    report.total_s = time.perf_counter() - started
    executor.rescale_reports.append(report)
    executor._event("rescale")
    if executor.flight is not None:
        executor.flight.record_event("rescale", report.to_dict())
    if executor._health is not None:
        executor._health.reconfigure(
            executor.n_workers, executor._operator_owners()
        )
        executor._publish_health(reason="rescale")
    return report

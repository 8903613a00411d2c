"""Single-process topology executor with selectable delivery semantics.

This is the library's stand-in for the clusters of Table 2, built so the
*semantics* of those systems can be exercised and measured in isolation:

* ``at_most_once``  — fire and forget (a dropped tuple is simply lost).
* ``at_least_once`` — Storm's model: XOR acker tracks each spout message's
  tuple tree; incomplete trees are failed and replayed, so every message is
  processed, possibly more than once.
* ``exactly_once``  — MillWheel/Flink's model: periodic consistent
  checkpoints of all operator state plus the source offset; any loss or
  crash triggers restore + replay from the last checkpoint, so observable
  state reflects each message exactly once.

The executor is deterministic (seeded shuffles, single-threaded), which
makes delivery-semantics experiments reproducible — the property the
bench suite depends on.

Observability (``repro.obs``) threads through as a single optional
``obs=`` bundle: the run's plain counters
(:class:`~repro.platform.metrics.ExecutionMetrics`) publish into its
registry at each ``run_some``/``finish``/``run`` and — when a
:class:`~repro.obs.tracing.TraceSampler` is configured — a deterministic
sample of spout messages is traced end-to-end. Each hop of a traced
tuple records a span (component, queue wait, process time, emit fan-out)
into the bundle's :class:`~repro.obs.tracing.SpanCollector`;
ack/fail/replay and checkpoint/recovery/crash lifecycle events are
recorded too. The collector lives outside checkpointed state, so spans
survive crash recovery, and because sampling is keyed on the spout
message id, replayed messages resume the *same* trace with a bumped
attempt number.
"""

from __future__ import annotations

import time
from collections import deque

from repro.common.exceptions import ExecutionError, ParameterError
from repro.core import stateship
from repro.obs.context import Observability
from repro.obs.tracing import event_span
from repro.platform.ack import RootLedger
from repro.platform.faults import FaultInjector, NO_FAULTS
from repro.platform.metrics import ExecutionMetrics
from repro.platform.runner import TaskRunner
from repro.platform.topology import Topology
from repro.platform.tuples import next_tuple_id

_SEMANTICS = ("at_most_once", "at_least_once", "exactly_once")


def topological_bolt_order(topology) -> list[str]:
    """Bolts in dependency order (upstream first).

    The builder rejects cyclic topologies, but a hand-constructed
    :class:`~repro.platform.topology.Topology` can smuggle one in — and a
    DFS that only tracks *visited* would silently emit a wrong order for
    it. Track the recursion stack separately and fail loudly instead.
    Shared by the local executor and the cluster coordinator (flush
    ordering must agree between them).
    """
    order: list[str] = []
    done: set[str] = set()
    in_progress: set[str] = set()
    bolt_names = set(topology.bolt_names)

    def visit(name: str, path: list[str]) -> None:
        if name in done:
            return
        if name in in_progress:
            cycle = " -> ".join(path[path.index(name) :] + [name])
            raise ExecutionError(f"topology contains a cycle through bolts: {cycle}")
        in_progress.add(name)
        comp = topology.components[name]
        for src, __ in comp.inputs:
            if src in bolt_names:
                visit(src, path + [name])
        in_progress.discard(name)
        done.add(name)
        order.append(name)

    for name in topology.bolt_names:
        visit(name, [])
    return order


def _lost_in_transit() -> None:
    """Without checkpoints a dropped copy is simply gone; the acker (if
    any) times its tree out."""


class _RecoveryTriggered(Exception):
    """Internal control flow: a loss forced checkpoint recovery, so all
    in-flight work for the current message must be abandoned (it will be
    replayed from the checkpointed source offset)."""


class LocalExecutor:
    """Runs a :class:`~repro.platform.topology.Topology` to completion.

    Owns one :class:`~repro.platform.runner.TaskRunner` holding every
    bolt task and one :class:`~repro.platform.ack.RootLedger` (roots,
    acks, replays, traced roots, source offsets); what stays here is
    pulling spouts one record at a time, choosing which queue runs next
    (round-robin over the non-empty ones) and the checkpoint/recover/crash
    policy.
    """

    def __init__(
        self,
        topology: Topology,
        semantics: str = "at_most_once",
        faults: FaultInjector | None = None,
        checkpoint_interval: int = 500,
        max_queue: int = 10_000,
        max_replays_per_message: int = 16,
        obs: Observability | None = None,
    ):
        if semantics not in _SEMANTICS:
            raise ParameterError(f"semantics must be one of {_SEMANTICS}")
        if checkpoint_interval <= 0:
            raise ParameterError("checkpoint_interval must be positive")
        if max_queue <= 0:
            raise ParameterError("max_queue must be positive")
        self.topology = topology
        self.semantics = semantics
        self._reliable = semantics != "at_most_once"  # the acker is in use
        self.faults = faults or NO_FAULTS
        self.checkpoint_interval = checkpoint_interval
        self.max_queue = max_queue
        self.obs = obs
        self.metrics = ExecutionMetrics(
            registry=obs.registry if obs is not None else None
        )
        # Tracing shortcuts: both None when observability is off.
        self._sampler = obs.sampler if obs is not None else None
        self._spans = obs.collector if obs is not None else None
        self._ledger = RootLedger(
            {
                comp.name: [comp.factory()]
                for comp in topology.components.values()
                if comp.kind == "spout"
            },
            semantics,
            self.metrics,
            max_replays_per_message,
            obs,
        )
        self._queues: dict[tuple[str, int], deque] = {
            (comp.name, task): deque()
            for comp in topology.components.values()
            if comp.kind == "bolt"
            for task in range(comp.parallelism)
        }
        #: The non-empty queues, each once, in the order they next run.
        self._ready: deque[deque] = deque()
        self._high_water: dict[str, int] = dict.fromkeys(topology.bolt_names, 0)
        self._runner = TaskRunner(
            topology,
            self._queues,
            next_tuple_id=next_tuple_id,
            faults=self.faults,
            deliver=self._deliver,
            on_lost=self._abandon if semantics == "exactly_once" else _lost_in_transit,
            record_span=self._spans.record if self._spans is not None else None,
        )
        self._checkpoint: dict | None = None
        self._source_pulls = 0

    # -- the runner's hooks --------------------------------------------------

    def _deliver(self, entry: tuple) -> None:
        consumer = entry[0]
        queue = self._queues[(consumer, entry[1])]
        if not queue:
            self._ready.append(queue)
        queue.append(entry)
        if len(queue) > self._high_water[consumer]:
            self._high_water[consumer] = len(queue)

    def _abandon(self) -> None:
        """A loss is a task failure under exactly-once: restore the last
        checkpoint and abandon the in-flight message (the rewound source
        replays it)."""
        self._recover()
        raise _RecoveryTriggered

    def _fold_counts(self) -> None:
        """Fold the runner's counts into the metrics and publish them."""
        runner, components = self._runner, self.metrics.components
        for name, count in runner.processed.items():
            components[f"bolt:{name}"].processed += count
        for name, count in runner.emitted.items():
            components[f"bolt:{name}"].emitted += count
        runner.processed.clear()
        runner.emitted.clear()
        for name, depth in self._high_water.items():
            if depth:
                components[f"bolt:{name}"].queue_high_water = depth
        self.metrics.publish()

    # -- spout side ----------------------------------------------------------

    def _pull_spout(self) -> bool:
        """Pull one payload from each non-throttled spout; True if any."""
        pulled = False
        # Only a non-empty queue can be full, and those are the ready ones.
        if any(len(q) >= self.max_queue for q in self._ready):
            return False
        ledger = self._ledger
        reliable = self._reliable
        for flat, (name, spout) in enumerate(ledger.partitions):
            payload = spout.next_tuple()
            if payload is None:
                continue
            pulled = True
            self._source_pulls += 1
            self.metrics.components[f"spout:{name}"].emitted += 1
            local_msg = getattr(spout, "last_offset", self._source_pulls)
            root = ledger.issue(flat, local_msg) if reliable else None
            trace = root_span = None
            if self._sampler is not None:
                root_span = ledger.trace(flat, local_msg, root)
                if root_span is not None:
                    trace = (root_span.trace_id, root_span.span_id, root_span.attempt)
            try:
                fan_out, anchor = self._runner.route(name, payload, root, trace)
            except _RecoveryTriggered:
                continue
            finally:
                if root_span is not None:
                    # fan_out stays 0 when routing aborted into recovery.
                    root_span.duration = time.perf_counter() - root_span.start
                    self._spans.record(root_span)
            if reliable:
                # Registered with 0, then anchoring the copies: the value
                # tracks exactly the set of live descendants.
                ledger.acker.anchor(root, anchor)
            if root_span is not None:
                root_span.fan_out = fan_out
            if (
                self.semantics == "exactly_once"
                and self._source_pulls % self.checkpoint_interval == 0
            ):
                self._take_checkpoint()
        return pulled

    # -- bolt side -----------------------------------------------------------

    def _process_one(self) -> bool:
        """Process one queued entry; True if any.

        Queues take turns, FIFO over the ready ones: the head of
        ``_ready`` gives up one entry and, if it still holds more, goes
        to the back before the entry runs. A queue is in ``_ready``
        exactly while it is non-empty, so between two turns of one queue
        every other queue runs at most once.
        """
        ready = self._ready
        if not ready:
            return False
        queue = ready.popleft()
        entry = queue.popleft()
        if queue:
            ready.append(queue)
        try:
            crashed = self._runner.process(entry)
        except _RecoveryTriggered:
            return True
        if self._reliable:
            deltas = self._runner.deltas
            self._ledger.ack(deltas.items())
            deltas.clear()
        if crashed:
            self._crash()
        return True

    # -- failure handling ------------------------------------------------

    def _event(self, kind: str) -> None:
        """Record a trace-less lifecycle event (checkpoint/recovery/crash)."""
        if self._spans is not None:
            self._spans.record(event_span("executor", kind, time.perf_counter()))

    def _take_checkpoint(self) -> None:
        """Consistent snapshot: drain in-flight work, then capture every
        bolt's state once, as stateship bytes (like the cluster's)."""
        self._drain()
        self._checkpoint = {
            "bolts": self._runner.capture(),
            "offsets": self._ledger.checkpoint(),
        }
        self.metrics.checkpoints += 1
        self._event("checkpoint")

    def _clear_in_flight(self) -> None:
        for queue in self._queues.values():
            queue.clear()
        self._ready.clear()
        self._runner.deltas.clear()

    def _recover(self) -> None:
        """Restore the last checkpoint and rewind sources."""
        self.metrics.recoveries += 1
        self._event("recovery")
        self._clear_in_flight()
        states = self._checkpoint["bolts"] if self._checkpoint else {}
        for key, bolt in self._runner.bolts.items():
            payload = states.get(key)
            bolt.restore(None if payload is None else stateship.restore(payload)["state"])
        self._ledger.rewind(self._checkpoint["offsets"] if self._checkpoint else None)

    def _crash(self) -> None:
        """Simulated worker crash."""
        self._event("crash")
        if self.semantics == "exactly_once":
            self._recover()
        else:
            # Without checkpoints, a crash loses all in-flight tuples; bolt
            # state is assumed externally durable (e.g. a store), as in
            # Storm without Trident.
            self._clear_in_flight()
            self._ledger.fail_pending()

    # -- main loop -----------------------------------------------------------

    def run_some(self, budget: int = 256) -> bool:
        """Advance the topology by a bounded burst of work (cooperative run).

        Pulls spouts and processes queued tuples until roughly *budget*
        tuples of work are done. Returns True while the run may still have
        work; False once sources are exhausted, queues are empty and
        reliability state has settled — after which :meth:`finish` flushes
        buffered bolt output exactly as :meth:`run` would.

        This is the serving layer's ingest path: queries interleave
        *between* bursts on one thread, so a snapshot capture always sees
        tuple-complete state — snapshot isolation by construction, with no
        locks on the hot path.
        """
        if budget <= 0:
            raise ParameterError("budget must be positive")
        pending = self._ledger.acker.n_pending
        work = self._settle(budget, budget)
        if work or pending:  # idle: nothing pulled, processed or failed
            self._fold_counts()
        return work >= budget

    def _settle(self, budget: float, burst: float) -> int:
        """Pull and process until *budget* units of work are done or
        nothing is left to pull, process or replay; each pull is followed
        by at most *burst* processed entries. Returns the work done."""
        work = 0
        idle_rounds = 0
        while work < budget:
            progressed = self._pull_spout()
            if progressed:
                work += 1
            limit = min(budget, work + burst)
            while work < limit and self._process_one():
                progressed = True
                work += 1
            if progressed:
                idle_rounds = 0
                continue
            # Nothing to pull, nothing queued: settle reliability state.
            if self._ledger.acker.n_pending:
                self._ledger.fail_pending()
                idle_rounds += 1
                if idle_rounds > 3:
                    return work
                continue
            return work
        return work

    def finish(self) -> ExecutionMetrics:
        """End-of-stream flush for a stepped (:meth:`run_some`) run."""
        # Topological order, so downstream bolts see upstream output.
        for name in topological_bolt_order(self.topology):
            self._runner.flush(name, self._drain)
        self._fold_counts()
        return self.metrics

    def _drain(self) -> None:
        while self._process_one():
            pass

    def run(self) -> ExecutionMetrics:
        """Execute until sources are exhausted and all work has settled."""
        started = time.perf_counter()
        # Interleave: drain a burst of 8 queued entries per pull.
        self._settle(float("inf"), 8)
        self.finish()
        self.metrics.wall_seconds = time.perf_counter() - started
        self.metrics.publish()
        return self.metrics

    # -- inspection ------------------------------------------------------

    def bolt_instances(self, name: str) -> list:
        """The live bolt instances for component *name* (post-run state)."""
        comp = self.topology.components.get(name)
        if comp is None or comp.kind != "bolt":
            raise ParameterError(f"no bolt named {name!r}")
        return [self._runner.bolts[(name, task)] for task in range(comp.parallelism)]

    def merged_synopsis(self, name: str):
        """Bolt *name*'s per-task synopses folded into one (merge-on-query).

        The single-process mirror of
        :meth:`repro.cluster.coordinator.ClusterExecutor.merged_synopsis`:
        each task's ``snapshot()`` view merges in task order into a fresh
        copy of the first, so the live bolts are untouched. Requires the
        bolt's snapshot state to be a mergeable synopsis, e.g.
        :class:`~repro.platform.operators.SynopsisBolt`.
        """
        from repro.common.mergeable import SynopsisBase, fold

        first, *rest = [bolt.snapshot() for bolt in self.bolt_instances(name)]
        if isinstance(first, SynopsisBase):
            first = stateship.restore(stateship.capture(first))
        return fold([first, *rest])

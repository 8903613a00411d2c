"""The measured part of one run of one workload, in an interpreter of its own.

Usage: ``passes.py <workload> <seed> <divisor> <trace 0|1> <seconds>``

It generates the seed's inputs and their reference outputs once, warms the
code paths up on a small slice, then repeats *rounds* of frozen size until
``seconds`` seconds have been measured. A round sets the system up,
measures, and checks the outputs against an oracle that shares no engine
code with the run. Throughput and latency are then read off the rounds
position by position (see ``fastest``). Afterwards it times COLD_STARTS cold
starts of the same system, each in a fresh interpreter, for ``setup_s``
(their median). The last line printed is one JSON object with every metric;
``run.py`` adds the hygiene checks and the contract line.

A traced or ``--smoke`` (divisor > 1) pass makes exactly one round.

Failures count units of output: word occurrences missing from the final
state beyond what the delivery semantics allows, events that never
reached the sink, queries that were not answered 200/ok or were wrong.
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import subprocess
import sys
from array import array
from collections import Counter
from time import perf_counter
from typing import Callable

import common
from common import (
    CLUSTER_OPTIONS,
    COLD_STARTS,
    HERE,
    LATE_SEND_MS,
    N_SHARDS,
    N_USERS,
    N_WORKERS,
    OUT_DIR,
    SIZES,
    STAIR_BACKLOG_LIMIT,
    STAIR_LATENCY_STEP,
    STAIR_P95_LIMIT_MS,
    STAIR_RATES,
    STAIR_UNIT_S,
    STAIR_UNITS,
    THINK_MAX_S,
    WORDS_PER_SENTENCE,
    cpu_seconds,
    median,
    peak_rss_mb,
    percentile,
)

#: A pass never makes more rounds than this, however fast they are.
MAX_ROUNDS = 24
#: A run's timeline is cut every this many records (see Pass.timeline).
SLICE_RECORDS = 10


def fastest(rows: list[list[float]]) -> list[float]:
    """Position by position, the shortest time any round took.

    Every round does the same work on the same input, so what the program
    spends at a position (a slice of the run, the *i*-th latency sample)
    is there in every round: a collection, a checkpoint, a slow key. What
    the host adds, taking the processor away for a millisecond some tens
    to hundreds of times a second, for minutes on end (README, "The host"),
    lands on other positions each round and only ever adds. The minimum at
    each position keeps the first and drops the second. A median of whole
    rounds drops neither: every round of a disturbed minute is slow.
    """
    return [min(column) for column in zip(*rows)]


class Pass:
    """What one pass found: per-round samples, failures, per-layer numbers."""

    def __init__(self, workload: str, seed: int, trace: bool, single: bool):
        from ledger import Ledger

        self.workload = workload
        self.seed = seed
        self.ledger = Ledger(f"{workload}-{seed}") if trace else None
        self.single = single or trace
        self.samples: dict[str, list[float]] = {}
        self.timelines: list[list[float]] = []
        self.latency_rounds: list[list[float]] = []
        self.work: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.layers: dict[str, float] = {}
        self.extras: dict[str, float] = {}
        self.measured_s = 0.0
        self.latency_samples = 0
        self.gen_s = 0.0
        #: Set by the workload: one cold start of its system, in seconds.
        self.cold_start: Callable[[], float] | None = None

    def rounds(self, one_round: Callable[[], tuple[float, float]], seconds: float) -> None:
        """Repeat ``one_round() -> (measured seconds, seconds the fixed work
        took)`` until *seconds* have been measured.

        What the harness holds between rounds (inputs, references, earlier
        rounds' samples) is frozen out of the garbage collector's sight for
        the round, so a collection during it costs what the system's own
        objects cost, not what the harness keeps.
        """
        while True:
            gc.collect()
            gc.freeze()
            try:
                measured, work = one_round()
            finally:
                gc.unfreeze()
            self.measured_s += measured
            self.work.append(work)
            if self.single or self.measured_s >= seconds or len(self.work) >= MAX_ROUNDS:
                return

    def sample(self, name: str, value: float) -> None:
        """One round's value of a metric; the pass reports the median."""
        self.samples.setdefault(name, []).append(value)

    def timeline(self, marks: list[float]) -> None:
        """One round's run as the instants it began, reached each next slice
        of its input, and ended. ``records_per_s`` is the input size over
        the sum of the slices' durations, each the ``fastest`` of the rounds."""
        self.timelines.append([later - earlier for earlier, later in zip(marks, marks[1:])])

    def latencies(self, seconds: list[float]) -> None:
        """One round's latencies, in an order that repeats from round to
        round; the percentiles are taken over the ``fastest`` of each."""
        self.latency_rounds.append(seconds)

    def finish(self, kind: str, items: int = 0, pooled: bool = False) -> None:
        """After the last round: the latency percentiles and, given the
        *items* a round's timeline covers, ``records_per_s``.

        *kind* says what the latencies timed (``workloads.event_latency``,
        ``serving.server.query``, ``core.query``). The gated pair
        ``latency_p50_ms``/``latency_p95_ms`` is the workload's own kind; the
        per-layer list carries the same numbers under the kind's name, so
        event and query latency are never read as one thing. *pooled*
        latencies come in no repeating order (a closed loop beside ingest):
        all rounds' samples then count together.
        """
        if pooled:
            seconds = [s for round_ in self.latency_rounds for s in round_]
        else:
            seconds = fastest(self.latency_rounds)
        self.latency_samples = len(seconds)
        for suffix, q in (("p50_ms", 0.50), ("p95_ms", 0.95)):
            value = 1e3 * percentile(seconds, q)
            self.samples[f"latency_{suffix}"] = self.samples[f"{kind}_{suffix}"] = [value]
        if items:
            self.sample("records_per_s", items / sum(fastest(self.timelines)))

    def fail(self, count: int, what: str) -> None:
        if count:
            self.failed += count
            self.notes.append(f"{count} x {what}")

    def generate(self, fn, *args):
        """Make inputs; the time goes to ``workloads.gen_s``, not to any metric."""
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self.gen_s += perf_counter() - start

    def span(self, name: str, fn, *args):
        """``fn(*args)``, inside a ledger span when this pass is traced."""
        if self.ledger is None:
            return fn(*args)
        return self.ledger.call(name, fn, *args)

    def to_json(self) -> dict:
        end_to_end = [metric["name"] for metric in common.load_spec()["end_to_end"]]
        medians = {name: median(values) for name, values in self.samples.items()}
        layers = {name: value for name, value in medians.items() if name not in end_to_end}
        layers.update(self.layers)
        layers["workloads.gen_s"] = self.gen_s
        return {
            "workload": self.workload,
            # A traced pass makes no cold start: set-up comes from the plain one.
            "metrics": {name: medians[name] for name in end_to_end if name in medians},
            "layers": layers,
            "extras": self.extras,
            "attempted": self.attempted,
            "failed": self.failed,
            "notes": self.notes,
            "rounds": len(self.work),
            "measured_s": self.measured_s,
            "work_s": median(self.work),
            "latency_samples": self.latency_samples,
        }


def _size(workload: str, key: str, divisor: int) -> int:
    return max(SIZES[workload][key] // divisor, 50)


def _check_counts(p: Pass, got: dict, expected: Counter) -> None:
    """Keyed counts against ``collections.Counter`` over the same words."""
    got = Counter(got)
    p.attempted += sum(expected.values())
    p.fail(sum((expected - got).values()), "word occurrence missing from the counts")
    p.fail(sum((got - expected).values()), "word occurrence counted twice")


def _cold_start(workload: str, records: list) -> float:
    """Seconds one fresh interpreter takes from holding *records* to being
    ready for the first of them (``coldstart.py``)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "coldstart.py"), workload],
        input=json.dumps(records) + "\n",
        stdout=subprocess.PIPE,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.split()[-1])


def _reference_summary(words: list[str]):
    """The served summary after one pass over *words*: no executor, no bolt,
    no grouping."""
    from repro.serving.demo import serving_summary

    summary = serving_summary()
    summary.update_many(words)
    return summary


def _check_merged_summary(p: Pass, merged, words: list[str], exact: Counter, reference) -> None:
    """A summary merged from shards against a single pass over *words*.

    However the words were dealt to the shards, the item count and the
    three exactly-mergeable children (HyperLogLog, Count-Min,
    ExactQuantiles) must ship (``stateship.capture``) to the single pass's
    bytes. SpaceSaving merges approximately and depends on the dealing, so
    it and the estimates are held to their declared bounds against *exact*.
    """
    from repro.core import stateship

    n = len(words)
    top = exact.most_common(20)
    p.attempted += 3 + 1 + 1 + 2 * len(top)
    for name in ("uniques", "freq", "lengths"):
        p.fail(
            stateship.capture(merged[name]) != stateship.capture(reference[name]),
            f"merged {name} differs from a single pass",
        )
    p.fail(merged.count != n, "merged summary lost or repeated items")
    # HyperLogLog declares a standard error, not a bound: over seeds the error
    # is normal with that deviation (measured: 1.2-1.5 %, declared 1.6 %), so
    # one seed in two hundred lies outside 3 sigma and none outside 5.
    p.fail(
        abs(merged["uniques"].estimate() - len(exact)) / len(exact)
        > 5 * merged["uniques"].relative_error(),
        "HyperLogLog estimate outside 5 sigma",
    )
    cms_slack = math.e / 1024 * n
    p.fail(
        sum(not 0 <= merged["freq"].estimate(w) - true <= cms_slack for w, true in top),
        "Count-Min estimate outside [true, true + eN/w]",
    )
    kept = dict(merged["topk"].top(64))
    p.fail(
        sum(not 0 <= kept.get(w, true) - true <= n / 64 for w, true in top),
        "SpaceSaving estimate outside [true, true + N/k]",
    )


def _engine_layers(p: Pass, wall: float, summary: dict, count_seen: list[int]) -> None:
    """Shares of a traced engine run, from the ledger and the run's counters;
    *count_seen* is how many tuples each ``count`` task got."""
    ledger = p.ledger
    components = summary["components"]
    processed = sum(c["processed"] for name, c in components.items() if name.startswith("bolt:"))
    p.layers["platform.topology.spout_busy_share"] = ledger.busy("platform.topology.spout") / wall
    p.layers["platform.groupings.busy_share"] = (
        ledger.busy("platform.groupings.targets")
        + ledger.busy("platform.groupings.targets_batch")
    ) / wall
    p.layers["platform.groupings.skew"] = max(count_seen) / (sum(count_seen) / len(count_seen))
    p.layers["platform.executor.tuples_per_s"] = processed / wall
    p.layers["platform.executor.queue_high_water"] = max(
        c["queue_high_water"] for c in components.values()
    )
    p.layers["platform.ack.replays"] = summary["replays"]
    p.layers["platform.operators.tuples_in"] = ledger.count("platform.operators.process")


# -- wordcount-local ----------------------------------------------------


def wordcount_local(p: Pass, divisor: int, seconds: float) -> None:
    """``LocalExecutor.run()``, at_most_once: split -> count x4."""
    import inputs
    from repro.platform import LocalExecutor
    from stages import unwrap_state, wordcount_topology

    records = p.generate(inputs.sentences, p.seed, _size("wordcount-local", "records", divisor))
    expected = Counter(inputs.words_of(records))
    start = perf_counter()
    Counter(word for record in records for word in record[0].split())
    bare_counter_s = perf_counter() - start
    LocalExecutor(wordcount_topology(records[: len(records) // 20 + 1], [])).run()
    p.cold_start = lambda: _cold_start("wordcount-local", records)

    def one_round() -> tuple[float, float]:
        stamps: list[float] = []
        executor = LocalExecutor(
            wordcount_topology(records, stamps, p.ledger), semantics="at_most_once"
        )
        start = perf_counter()
        metrics = p.span("platform.executor.run", executor.run)
        end = perf_counter()
        wall = end - start
        p.timeline([start, *stamps[SLICE_RECORDS::SLICE_RECORDS], end])
        p.sample("workloads.wall_records_per_s", len(records) / wall)
        p.sample("platform.executor.overhead_x", wall / bare_counter_s)

        bolts = executor.bolt_instances("count")
        states = [unwrap_state(bolt.snapshot()) for bolt in bolts]
        p.latencies([s for state in states for s in state["latencies"]])
        counts: dict[str, int] = {}
        for state in states:
            counts.update(state["counts"])
        _check_counts(p, counts, expected)
        if p.ledger is not None:
            _engine_layers(p, wall, metrics.summary(), [state["seen"] for state in states])
            p.layers["platform.operators.process_busy_share"] = (
                p.ledger.busy("platform.operators.process") / wall
            )
            p.layers["platform.operators.tuples_out"] = sum(
                bolt.tuples_out
                for name in ("split", "count")
                for bolt in executor.bolt_instances(name)
            )
            p.layers["platform.executor.self_share"] = (
                p.ledger.self_time("platform.executor.run") / wall
            )
        return wall, wall

    p.rounds(one_round, seconds)
    p.finish("workloads.event_latency", items=len(records))


# -- sketch-kernels -------------------------------------------------------


def sketch_kernels(p: Pass, divisor: int, seconds: float) -> None:
    """No engine: four StreamSummary shards, shipped, merged, queried."""
    import inputs
    from repro.core import stateship
    from repro.serving import parse_query
    from repro.serving.demo import serving_summary

    n = _size("sketch-kernels", "tokens", divisor)
    words = p.generate(inputs.tokens, p.seed, n)
    n_queries = _size("sketch-kernels", "queries", divisor)
    queries = [
        parse_query(doc) for doc in p.generate(inputs.warm_queries, p.seed, 0, n_queries)
    ]
    reference = _reference_summary(words)
    exact = Counter(words)
    warm = serving_summary()
    warm.update_many(words[:2000])
    stateship.restore(stateship.capture(warm))
    p.cold_start = lambda: _cold_start("sketch-kernels", [])

    def one_round() -> tuple[float, float]:
        shards = [serving_summary() for _ in range(N_SHARDS)]
        marks = [perf_counter()]

        def step(name: str, fn, *args):
            """One call into the synopsis layer: a span, and a slice of the timeline."""
            out = p.span(name, fn, *args)
            marks.append(perf_counter())
            return out

        def ingest() -> object:
            for index, shard in enumerate(shards):
                part = words[index::N_SHARDS]
                for at in range(0, len(part), 4096):
                    step("core.summary.update_many", shard.update_many, part[at : at + 4096])
            payloads = [step("core.stateship.capture", stateship.capture, s) for s in shards]
            restored = [step("core.stateship.restore", stateship.restore, b) for b in payloads]
            merged = restored[0]
            for other in restored[1:]:
                step("core.merge", merged.merge, other)
            return merged

        merged = p.span("workloads.ingest", ingest)
        p.timeline(marks)
        p.sample("workloads.wall_records_per_s", n / (marks[-1] - marks[0]))
        times = []
        for query in queries:
            sent = perf_counter()
            p.span("serving.query.resolve", query.resolve, merged)
            times.append(perf_counter() - sent)
        measured = perf_counter() - marks[0]
        p.latencies(times)
        _check_merged_summary(p, merged, words, exact, reference)
        return measured, measured

    p.rounds(one_round, seconds)
    p.finish("core.query", items=n)


# -- cluster-exactly-once --------------------------------------------------


def cluster_exactly_once(p: Pass, divisor: int, seconds: float) -> None:
    """``ClusterExecutor(2 workers, exactly_once, shm)``: split -> {count, sketch}."""
    import inputs
    from repro.cluster import ClusterExecutor, leaked_segments
    from stages import cluster_topology, unwrap_state

    records = p.generate(
        inputs.sentences, p.seed, _size("cluster-exactly-once", "records", divisor)
    )
    words = inputs.words_of(records)
    expected_counts = Counter(words)
    reference = _reference_summary(words)
    warm_records = records[: len(records) // 20 + 1]
    with ClusterExecutor(cluster_topology(warm_records, []), **CLUSTER_OPTIONS) as warm:
        warm.run()
    p.cold_start = lambda: _cold_start("cluster-exactly-once", records)

    def one_round() -> tuple[float, float]:
        spawned = perf_counter()
        stamps: list[float] = []
        # __enter__ spawns the workers: spawn is set-up, not run().
        with ClusterExecutor(
            cluster_topology(records, stamps, p.ledger), **CLUSTER_OPTIONS
        ) as executor:
            cpu_self = cpu_seconds(resource.RUSAGE_SELF)
            start = perf_counter()
            metrics = p.span("cluster.coordinator.run", executor.run)
            end = perf_counter()
            wall = end - start
            p.timeline([start, *stamps[SLICE_RECORDS::SLICE_RECORDS], end])
            cpu_self = cpu_seconds(resource.RUSAGE_SELF) - cpu_self
            start = perf_counter()
            # What merged_synopsis does, kept apart so a traced bolt's
            # envelope can be taken off the shard states first.
            sketch_states = p.span(
                "cluster.coordinator.merge_query", executor.bolt_states, "sketch"
            )
            partials = [unwrap_state(state) for state in sketch_states]
            merged = partials[0]
            for partial in partials[1:]:
                merged.merge(partial)
            merge_query_s = perf_counter() - start
            count_states = executor.bolt_states("count")
            split_states = executor.bolt_states("split") if p.ledger is not None else []
            transport = dict(executor.transport_stats)
            cpu_children = cpu_seconds(resource.RUSAGE_CHILDREN)
            start = perf_counter()
        close_s = perf_counter() - start
        lifetime = perf_counter() - spawned
        cpu_children = cpu_seconds(resource.RUSAGE_CHILDREN) - cpu_children
        p.sample("workloads.wall_records_per_s", len(records) / wall)

        counts: dict[str, int] = {}
        plain_counts = [unwrap_state(state) for state in count_states]
        for state in plain_counts:
            counts.update(state["counts"])
        p.latencies([s for state in plain_counts for s in state["latencies"]])
        _check_counts(p, counts, expected_counts)
        _check_merged_summary(p, merged, words, expected_counts, reference)
        p.attempted += 2
        p.fail(len(leaked_segments()), "leaked shared-memory segment")
        p.fail(transport["codec_pickled_bytes"] > 0, "data-plane bytes fell back to pickle")

        p.extras["cluster.coordinator.merge_query_ms"] = 1e3 * merge_query_s
        p.extras["cluster.coordinator.close_ms"] = 1e3 * close_s
        if p.ledger is not None:
            ledger = p.ledger
            summary = metrics.summary()
            ledger.absorb(
                [state["ledger"] for state in sketch_states + count_states + split_states]
            )
            _engine_layers(p, wall, summary, [state["seen"] for state in plain_counts])
            p.layers["platform.operators.tuples_out"] = sum(
                state["tuples_out"] for state in split_states
            )
            p.layers["cluster.columnar.pickled_bytes"] = transport["codec_pickled_bytes"]
            p.layers["cluster.shm.bytes"] = transport["data_bytes_shm"]
            p.layers["cluster.shm.frames"] = transport["data_frames"]
            p.layers["cluster.shm.backpressure_waits"] = transport["backpressure_waits"]
            p.layers["cluster.coordinator.cpu_share"] = cpu_self / wall
            p.layers["cluster.coordinator.checkpoints"] = summary["checkpoints"]
            p.layers["cluster.coordinator.leaked_segments"] = len(leaked_segments())
            # Children's CPU is known once they are reaped: over their lifetime.
            p.layers["cluster.worker.cpu_share"] = cpu_children / (lifetime * N_WORKERS)
            p.layers["cluster.worker.process_busy_share"] = ledger.busy(
                "platform.operators.process"
            ) / (wall * N_WORKERS)
        return wall + merge_query_s, wall

    p.rounds(one_round, seconds)
    p.finish("workloads.event_latency", items=len(records))


# -- paced-staircase ------------------------------------------------------


def paced_staircase(p: Pass, divisor: int, seconds: float) -> None:
    """Open loop on ``LocalExecutor(at_least_once)`` through ``run_some(256)``."""
    import inputs
    from repro.platform import LocalExecutor
    from stages import paced_topology

    unit_s = STAIR_UNIT_S / divisor
    rates = tuple(rate * common.CAPACITY_RPS for rate in STAIR_RATES)
    lengths = tuple(units * unit_s for units in STAIR_UNITS)
    step_ends = [sum(lengths[: step + 1]) for step in range(len(lengths))]
    offsets, steps = p.generate(inputs.poisson_schedule, p.seed, rates, lengths)
    records = p.generate(inputs.sentences, p.seed, len(offsets))

    warm = LocalExecutor(
        paced_topology(records[:500], [0.0] * 500, array("d")), semantics="at_least_once"
    )
    while warm.run_some(256):
        pass
    p.cold_start = lambda: _cold_start("paced-staircase", records)

    def one_round() -> tuple[float, float]:
        due = [0.0] * len(offsets)  # filled in below, once the clock starts
        lags = array("d")
        executor = LocalExecutor(
            paced_topology(records, due, lags, p.ledger), semantics="at_least_once"
        )
        sink = executor.bolt_instances("sink")[0]
        sink = getattr(sink, "inner", sink)

        t0 = perf_counter() + 0.01
        due[:] = [t0 + offset for offset in offsets]

        def drive() -> None:
            """Run bursts until one begun after the last due time finds
            nothing to do. With no work, run_some() comes straight back and
            is called again: the generator polls, it does not sleep, so the
            processor is as warm for an event after a gap as after a burst."""
            while True:
                began = perf_counter()
                if not executor.run_some(256) and began > due[-1]:
                    return

        p.span("platform.executor.run_some", drive)
        end = perf_counter()
        metrics = executor.finish()

        # Per event: complete when its last word reached the sink.
        done_at: dict[int, float] = {}
        seen: Counter = Counter(sink.events)
        for event, arrived in zip(sink.events, sink.arrived):
            if arrived > done_at.get(event, 0.0):
                done_at[event] = arrived
        latency = {event: arrived - due[event] for event, arrived in done_at.items()}
        p.attempted += len(records)
        p.fail(
            sum(seen[event] < WORDS_PER_SENTENCE for event in range(len(records))),
            "event never (fully) seen at the sink",
        )
        by_step: list[list[float]] = [[] for _ in rates]
        backlog = [0] * len(rates)
        for event, step in enumerate(steps):
            if event in latency:
                by_step[step].append(latency[event])
            if done_at.get(event, math.inf) > t0 + step_ends[step]:
                backlog[step] += 1
        # The low step's events in due order: the same schedule every round.
        p.latencies(
            [
                latency.get(event, math.inf)
                for event, step in enumerate(steps)
                if step == STAIR_LATENCY_STEP
            ]
        )
        sustained = 0.0
        for step, rate in enumerate(rates):
            p95_ms = 1e3 * percentile(by_step[step], 0.95) if by_step[step] else math.inf
            p.extras[f"workloads.step{step}.rate_rps"] = rate
            p.extras[f"workloads.step{step}.p95_ms"] = p95_ms
            p.extras[f"workloads.step{step}.backlog"] = backlog[step]
            if p95_ms <= STAIR_P95_LIMIT_MS and backlog[step] <= STAIR_BACKLOG_LIMIT * len(
                by_step[step]
            ):
                sustained = rate
        # Throughput: the drain rate once the source outruns the engine. The
        # last step sends at 2.8 C, so the engine is saturated from its first
        # event to the end; the sink sees tuples in (nearly) the order of
        # their events, so its last arrivals are that step's, and they are
        # the timeline.
        flood = steps.count(len(rates) - 1)
        tail = sink.arrived[-WORDS_PER_SENTENCE * flood :]
        p.timeline(list(tail[:: WORDS_PER_SENTENCE * SLICE_RECORDS]))
        drain_s = tail[-1] - tail[0]
        p.sample("workloads.wall_records_per_s", flood / drain_s)
        # How late the generator ran, where the engine was not the reason:
        # on the low step.
        low = [lag for lag, step in zip(lags, steps) if step == STAIR_LATENCY_STEP]
        late_sends = sum(lag > LATE_SEND_MS / 1e3 for lag in low)
        if late_sends:
            p.notes.append(f"flag: {late_sends} records left later than {LATE_SEND_MS} ms")
        p.sample("workloads.late_sends", late_sends)
        p.sample("workloads.sustained_rps", sustained)
        p.extras["workloads.sendlag_p95_ms"] = 1e3 * percentile(low, 0.95)
        if p.ledger is not None:
            wall = end - t0
            seen_by_task = [
                sum(bolt.inner.counts.values()) for bolt in executor.bolt_instances("count")
            ]
            _engine_layers(p, wall, metrics.summary(), seen_by_task)
            p.layers["platform.operators.process_busy_share"] = (
                p.ledger.busy("platform.operators.process") / wall
            )
            p.layers["platform.operators.tuples_out"] = sum(
                bolt.tuples_out
                for name in ("split", "count", "sink")
                for bolt in executor.bolt_instances(name)
            )
        return end - t0, drain_s

    p.rounds(one_round, seconds)
    # Whole slices of the drain only: what the timeline covers.
    slices = min(len(row) for row in p.timelines)
    p.finish("workloads.event_latency", items=slices * SLICE_RECORDS)


# -- serving ------------------------------------------------------------


def _serving_pass(p: Pass, workload: str, divisor: int, seconds: float, preload: bool) -> None:
    import inputs
    from httpload import Connection, ServerChild, User, run_users
    from repro.serving import parse_query

    n_records = _size(workload, "records", divisor)
    records = p.generate(inputs.sentences, p.seed, n_records)
    if preload:
        make, n_queries = inputs.cold_queries, _size(workload, "queries_per_user", divisor)
    else:
        # More than any user can issue before ingest completes.
        make, n_queries = inputs.warm_queries, n_records
    queries = [p.generate(make, p.seed, user, n_queries) for user in range(N_USERS)]
    think_max = 0.0 if preload else THINK_MAX_S
    thinks = [inputs.think_times(p.seed, user, n_queries, think_max) for user in range(N_USERS)]
    # Oracle: offline Query.resolve on a single pass over the same words.
    reference = _reference_summary(inputs.words_of(records))
    verification = [
        (doc, json.loads(json.dumps(parse_query(doc).resolve(reference))))
        for doc in inputs.verification_queries(p.seed)
    ]
    # Server and load generator each get a core of their own where there are
    # two: left to the scheduler, whether a wake-up crosses cores changes from
    # minute to minute, and the sub-millisecond round trips change with it.
    cpus = sorted(os.sched_getaffinity(0))
    server_cpu = cpus[-1] if len(cpus) > 1 else -1
    if server_cpu >= 0:
        os.sched_setaffinity(0, {cpus[0]})

    def ready(port: int) -> Connection:
        """A control connection to a server that answers."""
        control = Connection(port)
        status, _ = control.request("GET", "/healthz")
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}")
        if preload:
            # Ready for queries means the one snapshot is taken.
            control.request("POST", "/query", {"op": "cardinality", "synopsis": "uniques"})
        return control

    def cold_start() -> float:
        """A fresh server process, from holding the records to answering."""
        fresh = ServerChild(records, preload, False, server_cpu)
        try:
            port, _, born = fresh.start_round()
            ready(port).close()
            took = perf_counter() - born
            fresh.stop_round()
        finally:
            fresh.close()
        return took

    p.cold_start = cold_start
    child = ServerChild(records, preload, p.ledger is not None, server_cpu)

    def one_round() -> tuple[float, float]:
        port, t0, _ = child.start_round()
        control = ready(port)
        try:
            users = [User(port, *per_user) for per_user in zip(queries, thinks)]
            ingest_done = [preload]

            def keep_going(done: int, conn: Connection) -> bool:
                if done % 100 == 99 and not ingest_done[0]:
                    _, stats = conn.request("GET", "/stats")
                    ingest_done[0] = bool(stats["ingest"]["done"])
                return preload or not ingest_done[0]

            start = perf_counter()
            run_users(users, keep_going)
            end = perf_counter()
            rtts = []
            for _ in range(100):
                sent = perf_counter()
                control.request("GET", "/healthz")
                rtts.append(perf_counter() - sent)
            # After ingest is done and a forced refresh, every op must
            # answer exactly what the reference state answers.
            status, _ = control.request("POST", "/refresh")
            p.attempted += 1 + len(verification)
            p.fail(status != 200, "POST /refresh refused")
            for doc, expected in verification:
                status, reply = control.request("POST", "/query", doc)
                p.fail(
                    status != 200 or not reply.get("ok") or reply.get("result") != expected,
                    f"wrong answer to {doc['op']}",
                )
        finally:
            control.close()
        report = child.stop_round()

        ingest_done_at = report["ingest_done_at"]
        window_start = start if preload else t0
        window_end = end if preload else min(end, ingest_done_at)
        window = window_end - window_start
        log = [e for user in users for e in user.log if e[0] + e[1] <= window_end]
        p.attempted += len(log) + n_records
        p.fail(sum(not entry[2] for entry in log), "query not answered 200/ok")
        p.fail(n_records - report["acked"], "record never acked by the topology")
        p.fail(len(report["leaked_tasks"]), "asyncio task survived server.stop()")
        # Quiesced, every round asks the same questions in the same order.
        p.latencies([entry[1] for entry in log])
        if preload:
            p.timeline(report["bursts"])
        else:
            p.sample("records_per_s", n_records / (ingest_done_at - t0))
        p.sample("serving.server.queries_per_s", len(log) / window)
        p.sample("serving.cache.hit_ratio", sum(entry[3] for entry in log) / len(log))
        p.sample(
            "serving.server.bytes_per_response",
            sum(u.bytes_in for u in users) / max(sum(len(u.log) for u in users), 1),
        )
        p.layers["serving.snapshot.epochs"] = report["epochs"] - 1  # minus the forced refresh
        p.layers["platform.ack.replays"] = report["replays"]
        ages = [entry[4] for entry in log]
        p.extras["serving.server.http_rtt_us"] = 1e6 * median(rtts)
        p.extras["serving.server.query_p99_ms"] = 1e3 * percentile([e[1] for e in log], 0.99)
        p.extras["serving.snapshot.age_p50_ms"] = 1e3 * median(ages)
        p.extras["serving.snapshot.age_max_ms"] = 1e3 * max(ages)
        if p.ledger is not None:
            ledger = p.ledger
            ledger.absorb([report["ledger"]])
            n_handled = max(ledger.count("serving.runtime.handle"), 1)
            n_resolved = max(ledger.count("serving.query.resolve"), 1)
            n_refreshed = max(ledger.count("serving.snapshot.refresh"), 1)
            refresh_s = ledger.busy("serving.snapshot.refresh")
            p.layers["serving.runtime.handle_share"] = (
                ledger.busy("serving.runtime.handle") / window
            )
            p.layers["serving.snapshot.refresh_share"] = refresh_s / window
            p.layers["platform.executor.busy_share"] = ledger.busy(
                "platform.executor.run_some"
            ) / (ingest_done_at - t0)
            p.extras["serving.snapshot.refresh_ms"] = 1e3 * refresh_s / n_refreshed
            # A hit pays handle's own time, the parse and the cache lookup;
            # a miss pays the resolve and the cache insert on top.
            hit_s = (
                ledger.self_time("serving.runtime.handle")
                + ledger.busy("serving.query.parse")
                + ledger.busy("serving.cache.get")
            ) / n_handled
            miss_s = (
                ledger.busy("serving.query.resolve") + ledger.busy("serving.cache.put")
            ) / n_resolved
            p.extras["serving.runtime.handle_hit_us"] = 1e6 * hit_s
            p.extras["serving.runtime.handle_miss_us"] = 1e6 * (hit_s + miss_s)
        # The preload is measured too (it gives the quiesced records_per_s).
        return window_end - t0, window_end - t0

    try:
        p.rounds(one_round, seconds)
    finally:
        child.close()
    p.finish("serving.server.query", items=n_records if preload else 0, pooled=not preload)


def serve_under_ingest(p: Pass, divisor: int, seconds: float) -> None:
    """Two closed-loop users with the Zipf mix while ingest runs underneath."""
    _serving_pass(p, "serve-under-ingest", divisor, seconds, preload=False)


def serve_quiesced_cold(p: Pass, divisor: int, seconds: float) -> None:
    """Preloaded and quiet; queries that bypass the cache."""
    _serving_pass(p, "serve-quiesced-cold", divisor, seconds, preload=True)


RUNNERS = {
    "wordcount-local": wordcount_local,
    "sketch-kernels": sketch_kernels,
    "cluster-exactly-once": cluster_exactly_once,
    "paced-staircase": paced_staircase,
    "serve-under-ingest": serve_under_ingest,
    "serve-quiesced-cold": serve_quiesced_cold,
}


def main(argv: list[str]) -> int:
    workload, seed, divisor, trace, seconds = argv
    common.use_repo_source()
    import inputs
    from repro.cluster import leaked_segments

    p = Pass(workload, int(seed), trace=bool(int(trace)), single=int(divisor) > 1)
    RUNNERS[workload](p, int(divisor), float(seconds))
    # The pass's interpreter plus its largest reaped child (workers, server);
    # read before the cold starts, whose interpreters are children too.
    p.sample("peak_rss_mb", peak_rss_mb())
    if p.ledger is None:
        for _ in range(1 if int(divisor) > 1 else COLD_STARTS):
            p.sample("setup_s", p.cold_start())
    p.attempted += 1
    p.fail(len(leaked_segments()), "shared-memory segment left behind")
    if p.ledger is not None:
        from replays import SAMPLE_TOKENS, replay_layers

        words = inputs.tokens(p.seed, SAMPLE_TOKENS)
        p.layers.update(replay_layers(words, inputs.warm_queries(p.seed, 0, 500)))
        p.ledger.write_jsonl(OUT_DIR / f"trace-{workload}.jsonl")
        for line in p.ledger.table(p.measured_s):
            print(line)
    print(json.dumps(p.to_json()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

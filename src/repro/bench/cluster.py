"""The cluster-scaling bench: does sharding a stateful topology pay?

``repro-bench --cluster`` builds a keyed-analytics topology over the
seeded demo word stream::

    sentences ──shuffle──> split ──fields──> count   (parallelism 2)
                                └──fields──> quantile (parallelism = N)

and runs it once per configuration: single-process
:class:`LocalExecutor` as the baseline, then
:class:`~repro.cluster.coordinator.ClusterExecutor` at each worker count,
best-of-*repeats* over identical records. (The committed
``BENCH_cluster.json`` also carries rows for a pickled-batch ``queue``
data plane; shm matched or beat it at every worker count, which is why
that plane was deleted. Those rows are its record.)

**Why this workload scales even on one core.** The ``quantile`` stage is
an :class:`~repro.quantiles.exact.ExactQuantiles` — a sorted buffer whose
per-insert cost grows with the buffer (``bisect`` + list shift). Its
parallelism tracks the worker count, so sharding by key divides every
shard's buffer — and therefore the stage's *total* maintenance work — by
~N. That is the partitioned-state payoff the paper's Section 2 scale-out
contract describes: the gain is real work reduction, not just parallel
wall-clock, so it is measurable even when every worker multiplexes one
CPU. What eats the gain is transport overhead, which the byte and frame
columns account for. ``n_cores`` is recorded in the
config; on real cores the same sweep additionally buys wall-clock
parallelism.

Results use the ``repro.bench/v2`` row shape: the v1 timing columns
(``seq_*`` = single-process baseline, ``batch_*`` = sharded run,
``speedup`` = their ratio) plus the transport columns — ``transport``,
``n_workers``, ``data_bytes_shm``, ``data_frames``,
``codec_pickled_bytes``, ``backpressure_waits`` — taken from the
executor's ``transport_stats``. A ``codec_pickled_bytes`` of 0 is the
"pickle-free data plane" proof the transport work promised.

``equivalent`` asserts bit-identical answers: the merged quantile shard
partials (a sorted-multiset union, so *exactly* the single-process
buffer) and the per-task count tables must fingerprint-match the
baseline. Scaling out must not change the answer.
"""

from __future__ import annotations

import time

from repro.bench.fingerprint import state_fingerprint
from repro.bench.runner import BENCH_SCHEMA_V2, available_cpu_count
from repro.cluster.coordinator import ClusterExecutor
from repro.common.exceptions import ParameterError
from repro.obs.demo import demo_records
from repro.platform.executor import LocalExecutor
from repro.platform.operators import CountBolt, FlatMapBolt, SynopsisBolt
from repro.platform.topology import ListSpout, Topology, TopologyBuilder
from repro.quantiles.exact import ExactQuantiles

#: Worker counts measured by default: baseline parity, then doubling.
DEFAULT_WORKERS = (1, 2, 4, 8)


def build_cluster_topology(
    records: list[tuple[str]], quantile_parallelism: int = 1
) -> Topology:
    """words → split → {count (keyed), exact quantiles (keyed, par=N)}.

    ``quantile_parallelism`` tracks the worker count in the sharded runs
    (one shard per worker) and is 1 in the single-process baseline; the
    merged shard partials are partition-independent, so every
    configuration must produce the same answer.
    """
    builder = TopologyBuilder()
    builder.set_spout("sentences", lambda: ListSpout(records))
    builder.set_bolt(
        "split",
        lambda: FlatMapBolt(lambda v: [(w,) for w in v[0].split()]),
    ).shuffle("sentences")
    builder.set_bolt(
        "count", lambda: CountBolt(0, emit_updates=False), parallelism=2
    ).fields("split", 0)
    builder.set_bolt(
        "quantile",
        lambda: SynopsisBolt(ExactQuantiles, batch_size=256),
        parallelism=quantile_parallelism,
    ).fields("split", 0)
    return builder.build()


def _fingerprints(quantile_state, count_states) -> tuple:
    return (state_fingerprint(quantile_state), state_fingerprint(count_states))


def _baseline(records: list, repeats: int, semantics: str) -> tuple[float, tuple]:
    """Best-of-*repeats* single-process wall time + reference fingerprints."""
    best = float("inf")
    reference: tuple = ()
    for __ in range(repeats):
        executor = LocalExecutor(
            build_cluster_topology(records), semantics=semantics
        )
        start = time.perf_counter()
        executor.run()
        best = min(best, time.perf_counter() - start)
        reference = _fingerprints(
            executor.bolt_instances("quantile")[0].synopsis,
            [dict(bolt.counts) for bolt in executor.bolt_instances("count")],
        )
    return best, reference


def _cluster_run(
    records: list,
    n_workers: int,
    repeats: int,
    semantics: str,
    reference: tuple,
) -> tuple[float, bool, dict]:
    """Best-of-*repeats* sharded wall time + equivalence + transport stats."""
    best = float("inf")
    equivalent = True
    stats: dict = {}
    for __ in range(repeats):
        executor = ClusterExecutor(
            build_cluster_topology(records, quantile_parallelism=n_workers),
            n_workers=n_workers,
            semantics=semantics,
        )
        with executor:
            start = time.perf_counter()
            executor.run()
            best = min(best, time.perf_counter() - start)
            fingerprints = _fingerprints(
                executor.merged_synopsis("quantile"),
                executor.bolt_states("count"),
            )
            equivalent = equivalent and fingerprints == reference
            stats = dict(executor.transport_stats)
    return best, equivalent, stats


def run_cluster_bench(
    n_items: int = 60_000,
    repeats: int = 3,
    seed: int = 7,
    smoke: bool = False,
    workers: tuple[int, ...] = DEFAULT_WORKERS,
    semantics: str = "at_most_once",
) -> dict:
    """Measure cluster scaling; returns a ``repro.bench/v2`` payload."""
    if n_items <= 0:
        raise ParameterError("n_items must be positive")
    if repeats <= 0:
        raise ParameterError("repeats must be positive")
    if not workers or any(w <= 0 for w in workers):
        raise ParameterError("workers must be positive counts")
    records = demo_records(n_items, seed)
    base_seconds, reference = _baseline(records, repeats, semantics)
    results = []
    for n_workers in workers:
        seconds, equivalent, stats = _cluster_run(
            records, n_workers, repeats, semantics, reference
        )
        results.append(
            {
                "synopsis": f"cluster[w{n_workers}]",
                "workload": f"cluster-scaling/{semantics}",
                "n_items": len(records),
                # seq_* = single-process baseline, batch_* = sharded
                # run (see module docstring); speedup = their ratio.
                "seq_seconds": base_seconds,
                "batch_seconds": seconds,
                "seq_items_per_s": len(records) / base_seconds,
                "batch_items_per_s": len(records) / seconds,
                "speedup": base_seconds / seconds,
                "equivalent": equivalent,
                "transport": stats["transport"],
                "n_workers": n_workers,
                "data_bytes_shm": stats["data_bytes_shm"],
                "data_frames": stats["data_frames"],
                "codec_pickled_bytes": stats["codec_pickled_bytes"],
                "backpressure_waits": stats["backpressure_waits"],
                # Cores this row actually had (affinity-aware), so a
                # committed speedup is interpretable on any host.
                "n_cores": available_cpu_count(),
            }
        )
    return {
        "schema": BENCH_SCHEMA_V2,
        "config": {
            "n_items": n_items,
            "repeats": repeats,
            "seed": seed,
            "smoke": smoke,
            "mode": "cluster-scaling",
            "workers": list(workers),
            "semantics": semantics,
            "n_cores": available_cpu_count(),
        },
        "results": results,
    }

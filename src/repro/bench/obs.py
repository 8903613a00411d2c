"""The observability-overhead bench: is the obs plane honest about cost?

An observability layer that taxes the hot path defeats its purpose
(Heron's motivation paper is one long complaint about exactly this), so
``repro-bench --obs`` measures it: the demo topology runs **bare**
(``obs=None``) and **instrumented** (metrics + tracing at a given sample
rate + an instrumented synopsis), best-of-*repeats* each, over identical
seeded records. Results reuse the ``repro.bench/v2`` row shape with the
two timed columns mapped as

* ``seq_*``   → the uninstrumented baseline,
* ``batch_*`` → the instrumented run,

so ``speedup`` is the instrumented/baseline throughput **ratio** — 1.0
means free, 0.9 means 10% throughput loss (the acceptance floor for the
default ≤1% sampling). ``equivalent`` asserts the observed sink payloads
are identical with observability on and off: watching the stream must
not change the stream.

The **cluster rows** extend the same question to live telemetry
(:mod:`repro.obs.live`): the demo topology sharded over worker processes
on the shm data plane, telemetry off (one-shot shutdown flush) vs
streaming at the default flush interval. Here ``seq_*`` is telemetry-off
and ``batch_*`` telemetry-on, so the ≤10% streaming-telemetry budget
reads straight off ``speedup``; ``equivalent`` fingerprint-compares the
merged sketch state across the two runs. Extra v2 columns carry the
transport accounting plus ``telemetry_interval`` / ``telemetry_flushes``.
"""

from __future__ import annotations

import time
from typing import Any

from repro.bench.fingerprint import state_fingerprint
from repro.bench.runner import BENCH_SCHEMA_V2
from repro.common.exceptions import ParameterError
from repro.obs.context import Observability
from repro.obs.demo import build_demo_topology, demo_records
from repro.obs.live import DEFAULT_FLUSH_INTERVAL
from repro.platform.executor import LocalExecutor

#: Sampling rates measured by default: off, the 1% default, full firehose.
DEFAULT_RATES = (0.0, 0.01, 1.0)

#: Telemetry flush periods measured in the cluster rows (the default
#: interval is the one the ≤10% acceptance bound applies to).
DEFAULT_TELEMETRY_INTERVALS = (DEFAULT_FLUSH_INTERVAL,)


def _time_run(
    records: list,
    repeats: int,
    seed: int,
    sample_rate: float | None,
    semantics: str,
) -> tuple[float, list, Any]:
    """Best-of-*repeats* wall time for one configuration.

    ``sample_rate=None`` runs bare (``obs=None``); otherwise an
    :class:`Observability` bundle with that trace rate is threaded
    through (0.0 = metrics only). Returns (seconds, sink payload counts,
    last obs bundle)."""
    best = float("inf")
    results: list = []
    obs = None
    for __ in range(repeats):
        if sample_rate is None:
            obs = None
            topology = build_demo_topology(records, None)
        else:
            obs = Observability.create(sample_rate=sample_rate, seed=seed)
            topology = build_demo_topology(records, obs)
        executor = LocalExecutor(topology, semantics=semantics, obs=obs)
        start = time.perf_counter()
        executor.run()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        results = _observable_state(executor)
    return best, results, obs


def _observable_state(executor: LocalExecutor) -> list:
    """The run's observable output: final counts + sketch cardinality."""
    counts: dict = {}
    for bolt in executor.bolt_instances("count"):
        counts.update(bolt.counts)
    (sketch_bolt,) = executor.bolt_instances("sketch")
    summary = sketch_bolt.synopsis
    return [sorted(counts.items()), round(summary["uniques"].estimate())]


def _time_cluster_run(
    records: list,
    repeats: int,
    seed: int,
    interval: float,
    n_workers: int,
    semantics: str,
) -> tuple[float, tuple, dict, int]:
    """Best-of-*repeats* cluster wall time at one telemetry *interval*.

    ``interval=0.0`` is telemetry-off (the one-shot shutdown flush only).
    Returns (seconds, merged-sketch fingerprint, transport stats, flushes
    absorbed) — the fingerprint is the state-equivalence check: streaming
    telemetry must not change the answer.
    """
    from repro.cluster.coordinator import ClusterExecutor

    best = float("inf")
    fingerprint: tuple = ()
    stats: dict = {}
    flushes = 0
    for __ in range(repeats):
        obs = Observability.create(sample_rate=0.0, seed=seed)
        executor = ClusterExecutor(
            build_demo_topology(records),
            n_workers=n_workers,
            semantics=semantics,
            obs=obs,
            telemetry_interval=interval,
        )
        with executor:
            start = time.perf_counter()
            executor.run()
            best = min(best, time.perf_counter() - start)
            fingerprint = state_fingerprint(executor.merged_synopsis("sketch"))
            stats = dict(executor.transport_stats)
        health = executor.last_health
        flushes = sum(w.flushes for w in health.workers) if health else 0
    return best, fingerprint, stats, flushes


def run_obs_bench(
    n_items: int = 20_000,
    repeats: int = 3,
    seed: int = 7,
    smoke: bool = False,
    rates: tuple[float, ...] = DEFAULT_RATES,
    semantics: str = "at_least_once",
    cluster: bool = True,
    cluster_workers: int = 2,
    telemetry_intervals: tuple[float, ...] = DEFAULT_TELEMETRY_INTERVALS,
) -> dict:
    """Measure instrumentation overhead; returns a ``repro.bench/v2`` payload."""
    if n_items <= 0:
        raise ParameterError("n_items must be positive")
    if repeats <= 0:
        raise ParameterError("repeats must be positive")
    records = demo_records(n_items, seed)
    base_seconds, base_state, __ = _time_run(
        records, repeats, seed, sample_rate=None, semantics=semantics
    )
    results = []
    for rate in rates:
        obs_seconds, obs_state, __ = _time_run(
            records, repeats, seed, sample_rate=rate, semantics=semantics
        )
        label = "metrics" if rate == 0.0 else f"metrics+trace@{rate:g}"
        results.append(
            {
                "synopsis": f"demo_topology[{label}]",
                "workload": f"obs-overhead/{semantics}",
                "n_items": len(records),
                # seq_* = bare baseline, batch_* = instrumented (see module
                # docstring); speedup = instrumented throughput ratio.
                "seq_seconds": base_seconds,
                "batch_seconds": obs_seconds,
                "seq_items_per_s": len(records) / base_seconds,
                "batch_items_per_s": len(records) / obs_seconds,
                "speedup": base_seconds / obs_seconds,
                "equivalent": obs_state == base_state,
            }
        )
    if cluster:
        # Cluster rows: shm data plane with live telemetry off (the
        # one-shot baseline) vs streaming at each interval. seq_* is the
        # telemetry-off cluster run, batch_* the streamed one — the ≤10%
        # acceptance bound reads straight off ``speedup``.
        off_seconds, off_fp, __, __ = _time_cluster_run(
            records, repeats, seed, 0.0, cluster_workers, semantics
        )
        for interval in telemetry_intervals:
            on_seconds, on_fp, stats, flushes = _time_cluster_run(
                records, repeats, seed, interval, cluster_workers, semantics
            )
            results.append(
                {
                    "synopsis": (
                        f"cluster_demo[w{cluster_workers}|shm|"
                        f"telemetry@{interval:g}s]"
                    ),
                    "workload": f"obs-overhead-cluster/{semantics}",
                    "n_items": len(records),
                    "seq_seconds": off_seconds,
                    "batch_seconds": on_seconds,
                    "seq_items_per_s": len(records) / off_seconds,
                    "batch_items_per_s": len(records) / on_seconds,
                    "speedup": off_seconds / on_seconds,
                    # Watching the cluster must not change its answer.
                    "equivalent": on_fp == off_fp,
                    "transport": stats.get("transport", "shm"),
                    "n_workers": cluster_workers,
                    "telemetry_interval": interval,
                    "telemetry_flushes": flushes,
                    "data_bytes_shm": stats.get("data_bytes_shm", 0),
                    "data_frames": stats.get("data_frames", 0),
                    "codec_pickled_bytes": stats.get("codec_pickled_bytes", 0),
                    "backpressure_waits": stats.get("backpressure_waits", 0),
                }
            )
    return {
        "schema": BENCH_SCHEMA_V2,
        "config": {
            "n_items": n_items,
            "repeats": repeats,
            "seed": seed,
            "smoke": smoke,
            "mode": "obs-overhead",
            "rates": list(rates),
            "semantics": semantics,
            "cluster": cluster,
            "cluster_workers": cluster_workers if cluster else 0,
            "telemetry_intervals": list(telemetry_intervals) if cluster else [],
        },
        "results": results,
    }


def overhead_at_default_rate(payload: dict) -> float:
    """Fractional throughput loss of the ≤1% default-sampling row."""
    for entry in payload["results"]:
        if "trace@0.01" in entry["synopsis"]:
            return 1.0 - entry["speedup"]
    raise ParameterError("payload has no default-rate (0.01) row")


def cluster_overhead(payload: dict) -> float:
    """Fractional cluster throughput loss of streaming telemetry at the
    default flush interval (the ≤10% acceptance bound)."""
    tag = f"telemetry@{DEFAULT_FLUSH_INTERVAL:g}s"
    for entry in payload["results"]:
        if tag in entry["synopsis"]:
            return 1.0 - entry["speedup"]
    raise ParameterError("payload has no default-interval cluster row")

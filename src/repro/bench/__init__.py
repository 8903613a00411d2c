"""The ``repro.bench`` measurement harness (the ``BENCH_*.json`` trajectories).

The paper's premise is that synopses must keep up with stream *velocity*;
this package measures whether ours do. Three suites share one schema
(``repro.bench/v3``: rows are named arms of a case, median + IQR over
repeats, one ``env`` stamp) and one timing helper
(:func:`~repro.bench.runner.measure`):

* synopsis kernels — sequential ``update`` vs. batched ``update_many``
  per hot-path synopsis, verified bit-identical (``BENCH_synopses.json``);
* streamlint — full-tree analysis cold vs. warm cache × 1 vs. auto jobs
  (:mod:`repro.bench.lint`, ``BENCH_lint.json``);
* elasticity — the spike workload on a fixed vs. an autoscaled cluster
  (:mod:`repro.bench.elastic`, ``BENCH_elastic.json``).

Engine, cluster, serving and tracing throughput and latency are measured
by the gated end-to-end benchmark in ``benchmarks/e2e/`` instead.

Run it with ``python -m repro.bench [--lint | --elastic]`` or the
``repro-bench`` console script.
"""

from repro.bench.fingerprint import state_fingerprint
from repro.bench.runner import (
    BENCH_SCHEMA,
    BenchCase,
    default_cases,
    format_table,
    measure,
    ratio,
    run_bench,
    validate_payload,
)

__all__ = [
    "BENCH_SCHEMA",
    "BenchCase",
    "default_cases",
    "format_table",
    "measure",
    "ratio",
    "run_bench",
    "state_fingerprint",
    "validate_payload",
]

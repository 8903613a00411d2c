"""The serving layer: a real-time query front-end over live topologies.

The Lambda Architecture's third box (PAPER.md Figure 1): batch and speed
layers maintain views, the *serving layer* answers low-latency queries
against them for many concurrent users. Here the views are the
topology's merged synopses, and the pieces are:

* :mod:`repro.serving.query` — the JSON query model: point / range /
  top-k / cardinality / quantile lookups resolved against a synopsis.
* :mod:`repro.serving.snapshot` — snapshot-isolated reads: shard state
  captured through :mod:`repro.core.stateship` into a frozen epoch so
  queries never block or tear concurrent ingest.
* :mod:`repro.serving.cache` — the TTL+LRU result cache keyed on
  (query, snapshot epoch), the Snippet-1 "Redis-style" cache stage.
* :mod:`repro.serving.runtime` — ties executor + snapshots + cache +
  metrics into one query-handling runtime.
* :mod:`repro.serving.server` — the asyncio HTTP/JSON server
  (stdlib streams only) with ``/query``, ``/metrics``, ``/healthz``.
* :mod:`repro.serving.cli` — ``repro-serving`` / ``python -m
  repro.serving``.
"""

from repro.common.lazy import lazy_exports

# Each name loads its submodule on first use: the serving demo topology
# and the query model must not pull in asyncio and the HTTP server.
__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.serving.cache": ("MISS", "ResultCache"),
        "repro.serving.query": ("Query", "QueryError", "parse_query"),
        "repro.serving.runtime": ("ServingRuntime",),
        "repro.serving.server": ("ServingServer",),
        "repro.serving.snapshot": (
            "Snapshot",
            "SnapshotStore",
            "capture_payloads",
            "merge_payloads",
        ),
    },
)

__all__ = [
    "MISS",
    "Query",
    "QueryError",
    "ResultCache",
    "ServingRuntime",
    "ServingServer",
    "Snapshot",
    "SnapshotStore",
    "capture_payloads",
    "merge_payloads",
    "parse_query",
]

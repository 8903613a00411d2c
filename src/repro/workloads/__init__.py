"""Synthetic workload generators standing in for production streams.

The paper motivates its algorithm taxonomy with Twitter-scale workloads
(tweets/hashtags, site audiences, sensor telemetry, click streams, web
graphs). Those traces are proprietary, so this package provides seeded
generators whose *distributional shape* — skew, cardinality, drift,
burstiness — is explicitly controlled, which is what the algorithms'
accuracy/space trade-offs actually depend on.
"""

from repro.common.lazy import lazy_exports

# Each name loads its submodule on first use: a Zipf stream must not pull
# in the serving client's asyncio.
__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.workloads.graphs": ("edge_stream", "power_law_edge_stream"),
        "repro.workloads.sensors": (
            "random_walk_series",
            "seasonal_series",
            "sensor_stream_with_anomalies",
            "series_with_missing_values",
        ),
        "repro.workloads.serving": (
            "WorkloadResult",
            "query_stream",
            "run_closed_loop",
            "run_closed_loop_sync",
        ),
        "repro.workloads.spike": (
            "SPIKE_TRACKED_BOLTS",
            "build_spike_topology",
            "spike_records",
        ),
        "repro.workloads.text": ("hashtag_stream", "zipf_stream"),
        "repro.workloads.web": ("click_stream", "session_stream", "visitor_stream"),
    },
)

__all__ = [
    "SPIKE_TRACKED_BOLTS",
    "WorkloadResult",
    "build_spike_topology",
    "click_stream",
    "edge_stream",
    "hashtag_stream",
    "power_law_edge_stream",
    "query_stream",
    "random_walk_series",
    "run_closed_loop",
    "run_closed_loop_sync",
    "seasonal_series",
    "sensor_stream_with_anomalies",
    "series_with_missing_values",
    "session_stream",
    "spike_records",
    "visitor_stream",
    "zipf_stream",
]

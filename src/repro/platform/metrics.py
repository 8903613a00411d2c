"""Execution metrics: plain run counters, published to a registry on fold.

Counting is a plain int increment (``metrics.components["bolt:x"].processed
+= 1``); :meth:`ExecutionMetrics.publish` writes the counters into a
:class:`~repro.obs.metrics.MetricRegistry` where the owner already folds
(``LocalExecutor.run_some``/``finish``/``run``; the coordinator's health
publish, end of ``run()`` and ``close()``). The registry is current as of
the owner's last fold; :meth:`ExecutionMetrics.summary` always is.
"""

from __future__ import annotations

from collections import defaultdict
from operator import attrgetter
from repro.obs.metrics import MetricRegistry, RegistryRow

_COUNTERS = ("emitted", "processed", "acked", "failed")
_TOTALS = (  # ExecutionMetrics attribute, registry counter, its help
    ("replays", "repro_replays_total", "Spout messages replayed after failure."),
    ("checkpoints", "repro_checkpoints_total", "Consistent checkpoints taken."),
    ("recoveries", "repro_recoveries_total", "Checkpoint recoveries performed."),
    ("backpressure_waits", "repro_transport_backpressure_waits_total",
     "Times a full transport buffer made the sender wait."),
)
_GAUGES = (
    ("wall_seconds", "repro_wall_seconds", "Wall-clock duration of the run (seconds)."),
    ("ring_occupancy", "repro_transport_ring_occupancy",
     "Fullest shm ring fraction observed at last sample (0..1)."),
)
_component_row = attrgetter(*_COUNTERS, "queue_high_water")
_run_row = attrgetter(*(attr for attr, *__ in _TOTALS + _GAUGES))


class ComponentMetrics:
    """Counters for one component."""

    __slots__ = (*_COUNTERS, "queue_high_water")

    def __init__(self) -> None:
        self.emitted = self.processed = self.acked = self.failed = 0
        self.queue_high_water = 0

    def as_dict(self) -> dict[str, int]:
        """Flat counter snapshot (reports)."""
        return {field: getattr(self, field) for field in self.__slots__}

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"ComponentMetrics({inner})"


class ExecutionMetrics:
    """Aggregated metrics for one topology run, published into *registry*
    (a private one unless given, e.g. an ``Observability``'s)."""

    def __init__(self, registry: MetricRegistry | None = None):
        self.registry = reg = registry if registry is not None else MetricRegistry()
        self.components: dict[str, ComponentMetrics] = defaultdict(ComponentMetrics)
        # backpressure_waits and ring_occupancy (the cluster transport's)
        # stay 0 under LocalExecutor.
        self.replays = self.checkpoints = self.recoveries = self.backpressure_waits = 0
        self.ring_occupancy = self.wall_seconds = 0.0
        self.latency = reg.histogram(
            "repro_latency_seconds",
            "End-to-end tuple-tree completion latency (seconds).",
        )
        self._families = [
            reg.counter(
                f"repro_component_{field}_total",
                f"Tuples {field} per component.",
                labelnames=("component",),
            )
            for field in _COUNTERS
        ]
        self._high_water = reg.gauge(
            "repro_component_queue_high_water",
            "Deepest input queue observed per component (backpressure).",
            labelnames=("component",),
        )
        # Every unlabeled child exists from the start: the families export 0.
        self._run = RegistryRow(
            [reg.counter(name, help).labels() for __, name, help in _TOTALS],
            [reg.gauge(name, help).labels() for __, name, help in _GAUGES],
        )
        self._rows: dict[str, RegistryRow] = {}  # per component

    def publish(self) -> None:
        """Write every counter and gauge into :attr:`registry` in one pass."""
        for name, entry in list(self.components.items()):
            row = self._rows.get(name)
            if row is None:
                row = self._rows[name] = RegistryRow(
                    [family.labels(component=name) for family in self._families],
                    [self._high_water.labels(component=name)],
                )
            row.advance(_component_row(entry))
        self._run.advance(_run_row(self))

    def record_latency(self, seconds: float) -> None:
        """Add one end-to-end latency sample (seconds)."""
        self.latency.observe(seconds)

    def latency_quantile(self, q: float) -> float:
        """Latency quantile in seconds (0 when nothing completed)."""
        return self.latency.quantile(q)

    def throughput(self) -> float:
        """Source tuples per wall-clock second."""
        components = list(self.components.items())
        emitted = sum(m.emitted for name, m in components if name.startswith("spout:"))
        return emitted / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def summary(self) -> dict:
        """Flat dict for reports, per-component counters included."""
        return {
            "throughput_tps": round(self.throughput(), 1),
            "latency_p50_ms": round(self.latency_quantile(0.5) * 1e3, 3),
            "latency_p99_ms": round(self.latency_quantile(0.99) * 1e3, 3),
            "replays": self.replays,
            "checkpoints": self.checkpoints,
            "recoveries": self.recoveries,
            "backpressure_waits": self.backpressure_waits,
            "ring_occupancy": round(self.ring_occupancy, 4),
            "components": {
                name: m.as_dict() for name, m in sorted(self.components.items())
            },
        }

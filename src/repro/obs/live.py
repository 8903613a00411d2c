"""Live delta telemetry: periodic, change-only metric/span shipping.

The Heron metrics-manager move: each worker keeps a :class:`DeltaExporter` over its private registry
and, at every interval tick, ships only the children whose values changed
since the last flush. Counters and histograms ship *cumulative* state
(counters their running value, histograms their full t-digest bytes), so
any single flush makes the coordinator's view exact again — a lost or
reordered flush degrades freshness, never correctness.

The coordinator side is :class:`TelemetryAbsorber`: records land in the
shared registry under a ``worker`` label with **replace** semantics (the
shipped value *is* the worker's truth). Histograms are replaced with
``TDigest.from_bytes`` of the shipped bytes — and since
``from_bytes(to_bytes())`` round-trips bit-identically, the coordinator's
per-worker tail quantiles are *exactly* the worker's own, not an estimate
of an estimate. When a worker dies and is respawned,
:meth:`TelemetryAbsorber.seal_worker` folds the dead incarnation's last
known values into per-child bases so the new incarnation's cumulative
stream stacks on top instead of erasing history.

Spans ride the same flushes: a crashed worker loses at most one flush
interval of spans (whatever it recorded after its last shipped flush).
"""

from __future__ import annotations

from typing import Any

from repro.obs.metrics import Counter, Gauge, Histogram, MetricRegistry
from repro.obs.tracing import Span, SpanCollector
from repro.quantiles.tdigest import TDigest

#: Default worker flush period (seconds). Chosen so a live dashboard feels
#: live while the per-flush work (a registry walk + a few pickles) stays
#: far off the per-tuple hot path; the bench's telemetry-overhead row
#: guards the budget.
DEFAULT_FLUSH_INTERVAL = 0.25


class DeltaExporter:
    """Change-only exporter over one registry (the worker half).

    :meth:`collect` walks the registry and returns plain, picklable
    records for every child whose value moved since the previous call.
    Counters/gauges ship their current value; histograms ship their full
    t-digest bytes plus count/sum. Shipping cumulative state (not diffs)
    keeps the protocol idempotent — absorbing the same flush twice, or
    skipping one, converges to the same registry.
    """

    def __init__(self, registry: MetricRegistry):
        self.registry = registry
        self.seq = 0
        self._shipped: dict[tuple[str, tuple[str, ...]], Any] = {}

    def collect(self) -> list[dict[str, Any]]:
        """Records for every child that changed since the last collect."""
        self.seq += 1
        records: list[dict[str, Any]] = []
        for family in self.registry.families():
            base = {
                "name": family.name,
                "kind": family.kind,
                "help": family.help,
                "labelnames": list(family.labelnames),
            }
            for labels, child in family._label_tuples():
                key = (family.name, tuple(v for __, v in labels))
                if isinstance(family, Histogram):
                    fingerprint: Any = (child.count, child.sum)
                else:
                    fingerprint = child.value
                if self._shipped.get(key) == fingerprint:
                    continue
                self._shipped[key] = fingerprint
                record = dict(base)
                record["labels"] = dict(labels)
                if isinstance(family, Histogram):
                    record["count"] = child.count
                    record["sum"] = child.sum
                    record["digest"] = child.digest.to_bytes()
                    record["delta"] = family.delta
                else:
                    record["value"] = child.value
                records.append(record)
        return records


class TelemetryAbsorber:
    """Replace-semantics absorption of cumulative per-worker telemetry.

    The mirror of :class:`DeltaExporter`: each record overwrites the
    ``worker``-labeled child in the target registry. Sealed bases (from
    dead incarnations, see :meth:`seal_worker`) are added back on top so
    a respawned worker's fresh-from-zero counters don't erase the work
    its predecessor already reported.
    """

    def __init__(
        self,
        registry: MetricRegistry,
        collector: SpanCollector | None = None,
        flight: Any | None = None,
    ):
        self.registry = registry
        self.collector = collector
        self.flight = flight
        #: Flushes absorbed per worker (respawns keep counting up).
        self.flushes: dict[int, int] = {}
        # Last applied record per (worker, name, labelvalues) — what
        # seal_worker folds into the bases when an incarnation dies.
        self._live: dict[int, dict[tuple, tuple]] = {}
        # (worker, name, labelvalues) -> sealed cumulative state:
        # counters a float, histograms (digest_bytes, count, sum).
        self._counter_bases: dict[tuple, float] = {}
        self._digest_bases: dict[tuple, tuple[bytes, int, float]] = {}

    def absorb(
        self,
        worker: int,
        records: list[dict[str, Any]],
        spans: list[Span] = (),
    ) -> None:
        """Apply one flush from *worker*: metrics replace, spans append."""
        self.flushes[worker] = self.flushes.get(worker, 0) + 1
        live = self._live.setdefault(worker, {})
        for record in records:
            labelnames = ["worker", *record["labelnames"]]
            labels = {"worker": str(worker), **record["labels"]}
            key = (
                worker,
                record["name"],
                tuple(str(record["labels"][n]) for n in record["labelnames"]),
            )
            if record["kind"] == Counter.kind:
                family = self.registry.counter(
                    record["name"], record["help"], labelnames
                )
                # Replace semantics on a monotonic total: one incarnation's
                # flushes only grow, and a sealed base covers the last one.
                child = family.labels(**labels)
                base = self._counter_bases.get(key, 0.0)
                child.inc(base + record["value"] - child.value)
                live[key] = (Counter.kind, record["value"])
            elif record["kind"] == Gauge.kind:
                family = self.registry.gauge(
                    record["name"], record["help"], labelnames
                )
                family.labels(**labels).set(record["value"])
            elif record["kind"] == Histogram.kind:
                family = self.registry.histogram(
                    record["name"], record["help"], labelnames,
                    delta=record["delta"],
                )
                child = family.labels(**labels)
                sealed = self._digest_bases.get(key)
                if sealed is None:
                    # The common case: the shipped digest *is* the child.
                    # from_bytes(to_bytes()) round-trips bit-identically,
                    # so coordinator quantiles == worker quantiles.
                    child.digest = TDigest.from_bytes(record["digest"])
                    child.count = record["count"]
                    child.sum = record["sum"]
                else:
                    base_bytes, base_count, base_sum = sealed
                    digest = TDigest.from_bytes(base_bytes)
                    digest.merge(TDigest.from_bytes(record["digest"]))
                    child.digest = digest
                    child.count = base_count + record["count"]
                    child.sum = base_sum + record["sum"]
                live[key] = (
                    Histogram.kind,
                    record["digest"],
                    record["count"],
                    record["sum"],
                )
            # Unknown kinds are dropped silently: a newer worker build
            # must not wedge an older coordinator.
        for span in spans:
            if self.collector is not None:
                self.collector.record(span)
            if self.flight is not None:
                self.flight.record_span(span)

    def absorb_spans_only(self, spans: list[Span]) -> None:
        """Record *spans* without touching metrics — the path for flushes
        from an already-sealed (dead) incarnation, whose metric state is
        covered by the seal but whose spans are still real history."""
        for span in spans:
            if self.collector is not None:
                self.collector.record(span)
            if self.flight is not None:
                self.flight.record_span(span)

    def seal_worker(self, worker: int) -> None:
        """Fold *worker*'s last absorbed values into its bases.

        Called when an incarnation dies: its cumulative stream has ended,
        so its final values become the floor under the respawned
        incarnation's fresh-from-zero stream. Gauges need no base — the
        new incarnation's first flush simply overwrites the stale point
        value.
        """
        for key, state in self._live.pop(worker, {}).items():
            if state[0] == Counter.kind:
                self._counter_bases[key] = (
                    self._counter_bases.get(key, 0.0) + state[1]
                )
            elif state[0] == Histogram.kind:
                __, digest_bytes, count, total = state
                sealed = self._digest_bases.get(key)
                if sealed is not None:
                    base = TDigest.from_bytes(sealed[0])
                    base.merge(TDigest.from_bytes(digest_bytes))
                    digest_bytes = base.to_bytes()
                    count += sealed[1]
                    total += sealed[2]
                self._digest_bases[key] = (digest_bytes, count, total)

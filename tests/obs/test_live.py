"""Delta telemetry: change-only export, replace-semantics absorption,
bit-identical tail quantiles, and seal-on-respawn accounting."""

import random

from repro.obs.live import DEFAULT_FLUSH_INTERVAL, DeltaExporter, TelemetryAbsorber
from repro.obs.metrics import MetricRegistry
from repro.obs.tracing import Span, SpanCollector


def make_span(span_id, component="split"):
    return Span(
        trace_id=1, span_id=span_id, parent_id=None, component=component, kind="process"
    )


class TestDeltaExporter:
    def test_first_collect_ships_everything(self):
        reg = MetricRegistry()
        reg.counter("a_total").inc(3)
        reg.gauge("b").set(7)
        reg.histogram("c_seconds").observe(0.5)
        exporter = DeltaExporter(reg)
        records = exporter.collect()
        assert {r["name"] for r in records} == {"a_total", "b", "c_seconds"}
        assert exporter.seq == 1

    def test_unchanged_children_are_suppressed(self):
        reg = MetricRegistry()
        counter = reg.counter("a_total")
        counter.inc(3)
        reg.gauge("b").set(7)
        exporter = DeltaExporter(reg)
        exporter.collect()
        assert exporter.collect() == []  # nothing moved
        counter.inc()
        records = exporter.collect()
        assert [r["name"] for r in records] == ["a_total"]
        assert records[0]["value"] == 4  # cumulative, not a diff
        assert exporter.seq == 3

    def test_per_label_granularity(self):
        reg = MetricRegistry()
        family = reg.counter("a_total", labelnames=["op"])
        family.labels(op="x").inc()
        family.labels(op="y").inc()
        exporter = DeltaExporter(reg)
        exporter.collect()
        family.labels(op="y").inc()
        records = exporter.collect()
        assert [r["labels"] for r in records] == [{"op": "y"}]

    def test_histogram_ships_full_digest_bytes(self):
        reg = MetricRegistry()
        hist = reg.histogram("lat_seconds")
        hist.observe(1.0)
        exporter = DeltaExporter(reg)
        first = exporter.collect()[0]
        hist.observe(2.0)
        second = exporter.collect()[0]
        assert second["count"] == 2  # cumulative digest, not the delta
        assert isinstance(second["digest"], bytes)
        assert len(second["digest"]) >= len(first["digest"])


class TestTelemetryAbsorber:
    def test_counter_replace_semantics(self):
        source, target = MetricRegistry(), MetricRegistry()
        counter = source.counter("a_total")
        exporter, absorber = DeltaExporter(source), TelemetryAbsorber(target)
        counter.inc(5)
        absorber.absorb(0, exporter.collect())
        counter.inc(5)
        absorber.absorb(0, exporter.collect())
        # Accumulate semantics would read 15 here; replace reads the truth.
        assert target.counter("a_total", labelnames=["worker"]).labels(
            worker="0"
        ).value == 10
        assert absorber.flushes == {0: 2}

    def test_absorbing_same_flush_twice_is_idempotent(self):
        source, target = MetricRegistry(), MetricRegistry()
        source.counter("a_total").inc(5)
        absorber = TelemetryAbsorber(target)
        records = DeltaExporter(source).collect()
        absorber.absorb(1, records)
        absorber.absorb(1, records)
        assert target.counter("a_total", labelnames=["worker"]).labels(
            worker="1"
        ).value == 5

    def test_tail_quantiles_bit_identical_across_flushes(self):
        # The satellite-4 pin: after each of >= 3 flush intervals the
        # coordinator's per-worker histogram quantiles equal the worker's
        # own exactly (replace + from_bytes/to_bytes round-trip), at every
        # probed q including the tails.
        rng = random.Random(42)
        source, target = MetricRegistry(), MetricRegistry()
        hist = source.histogram("lat_seconds")
        exporter, absorber = DeltaExporter(source), TelemetryAbsorber(target)
        mirror = target.histogram("lat_seconds", labelnames=["worker"]).labels(
            worker="0"
        )
        for __ in range(4):
            for __ in range(500):
                hist.observe(rng.expovariate(1.0))
            absorber.absorb(0, exporter.collect())
            assert mirror.count == hist.count
            assert mirror.sum == hist.sum
            for q in (0.01, 0.5, 0.9, 0.99, 0.999):
                assert mirror.quantile(q) == hist.quantile(q)

    def test_gauge_lands_under_worker_label(self):
        source, target = MetricRegistry(), MetricRegistry()
        source.gauge("depth").set(7.5)
        TelemetryAbsorber(target).absorb(0, DeltaExporter(source).collect())
        (sample,) = target.get("depth").samples()
        assert sample.value == 7.5
        assert ("worker", "0") in sample.labels

    def test_same_metric_from_two_workers_stays_apart(self):
        target = MetricRegistry()
        absorber = TelemetryAbsorber(target)
        for worker, offset in ((0, 0.0), (1, 100.0)):
            source = MetricRegistry()
            family = source.counter("m_total", labelnames=("component",))
            family.labels(component="a").inc(3 + worker)
            hist = source.histogram("lat_seconds")
            for i in range(50):
                hist.observe(offset + i)
            absorber.absorb(worker, DeltaExporter(source).collect())
        values = {s.labels: s.value for s in target.get("m_total").samples()}
        assert values[(("worker", "0"), ("component", "a"))] == 3
        assert values[(("worker", "1"), ("component", "a"))] == 4
        children = dict(target.get("lat_seconds")._label_tuples())
        assert children[(("worker", "0"),)].count == 50
        # the digest really crossed: worker 1's quantiles live in its range
        assert children[(("worker", "1"),)].digest.quantile(0.5) >= 100.0

    def test_unknown_kind_dropped_silently(self):
        target = MetricRegistry()
        TelemetryAbsorber(target).absorb(
            0,
            [{"name": "m", "kind": "summary", "help": "", "labelnames": [], "labels": {}}],
        )
        assert "m" not in target.names()

    def test_spans_ride_flushes(self):
        collector = SpanCollector()
        absorber = TelemetryAbsorber(MetricRegistry(), collector)
        absorber.absorb(0, [], spans=[make_span(1), make_span(2)])
        absorber.absorb_spans_only([make_span(3)])
        assert len(collector.spans) == 3


class TestSealOnRespawn:
    def run_incarnations(self, absorber, target):
        # Incarnation 0 does 10 units of work across two flushes, dies,
        # incarnation 1 starts from zero and does 7 more.
        source = MetricRegistry()
        counter = source.counter("done_total")
        hist = source.histogram("lat_seconds")
        exporter = DeltaExporter(source)
        counter.inc(4)
        hist.observe(1.0)
        absorber.absorb(0, exporter.collect())
        counter.inc(6)
        hist.observe(3.0)
        absorber.absorb(0, exporter.collect())
        absorber.seal_worker(0)

        respawned = MetricRegistry()
        counter2 = respawned.counter("done_total")
        hist2 = respawned.histogram("lat_seconds")
        exporter2 = DeltaExporter(respawned)
        counter2.inc(7)
        hist2.observe(5.0)
        absorber.absorb(0, exporter2.collect())

    def test_counter_base_stacks_incarnations(self):
        target = MetricRegistry()
        absorber = TelemetryAbsorber(target)
        self.run_incarnations(absorber, target)
        child = target.counter("done_total", labelnames=["worker"]).labels(worker="0")
        assert child.value == 17  # 10 sealed + 7 fresh, no double count

    def test_histogram_base_merges_incarnations(self):
        target = MetricRegistry()
        absorber = TelemetryAbsorber(target)
        self.run_incarnations(absorber, target)
        child = target.histogram("lat_seconds", labelnames=["worker"]).labels(
            worker="0"
        )
        assert child.count == 3
        assert child.sum == 9.0

    def test_stale_incarnation_flush_keeps_spans_only(self):
        # The span-loss fix path: a flush raced from a dead pid still
        # contributes its spans, while the sealed base covers its metrics.
        collector = SpanCollector()
        target = MetricRegistry()
        absorber = TelemetryAbsorber(target, collector)
        source = MetricRegistry()
        source.counter("done_total").inc(4)
        absorber.absorb(0, DeltaExporter(source).collect())
        absorber.seal_worker(0)
        absorber.absorb_spans_only([make_span(9)])
        assert [s.span_id for s in collector.spans] == [9]
        child = target.counter("done_total", labelnames=["worker"]).labels(worker="0")
        assert child.value == 4  # untouched by the stale flush


def test_default_interval_is_sane():
    assert 0.0 < DEFAULT_FLUSH_INTERVAL <= 1.0

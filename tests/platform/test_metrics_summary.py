"""ExecutionMetrics pressure signals: backpressure waits + ring occupancy
surface in summary() and reach the shared registry on publish()."""

from repro.platform.metrics import ExecutionMetrics


class TestPressureSignals:
    def test_defaults_are_zero(self):
        metrics = ExecutionMetrics()
        assert metrics.backpressure_waits == 0
        assert metrics.ring_occupancy == 0.0

    def test_summary_carries_pressure_keys(self):
        metrics = ExecutionMetrics()
        metrics.backpressure_waits = 17
        metrics.ring_occupancy = 0.62505
        summary = metrics.summary()
        assert summary["backpressure_waits"] == 17
        assert summary["ring_occupancy"] == 0.625  # rounded for the report

    def test_values_live_in_the_registry(self):
        # Counting is plain ints; publish() (called where the owner folds)
        # writes them, so exporters and `repro-obs` see summary()'s numbers.
        metrics = ExecutionMetrics()
        metrics.backpressure_waits = 3
        metrics.ring_occupancy = 0.25
        metrics.publish()
        waits = metrics.registry.get("repro_transport_backpressure_waits_total")
        ring = metrics.registry.get("repro_transport_ring_occupancy")
        assert waits.samples()[0].value == 3
        assert ring.samples()[0].value == 0.25

    def test_attribute_increment_api(self):
        metrics = ExecutionMetrics()
        metrics.backpressure_waits += 2
        metrics.backpressure_waits += 5
        assert metrics.summary()["backpressure_waits"] == 7

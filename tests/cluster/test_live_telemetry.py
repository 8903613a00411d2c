"""Live telemetry end-to-end: streamed flushes land exactly, watermarks
settle, crashes leave a flight dump, span loss is bounded."""

import pytest

from repro.bench.fingerprint import state_fingerprint
from repro.cluster.coordinator import ClusterExecutor
from repro.obs.context import Observability
from repro.obs.demo import build_demo_topology, demo_records
from repro.obs.flight import FlightRecorder, read_flight
from repro.platform.faults import FaultInjector

INTERVAL = 0.02  # fast flushes so short test runs span several intervals


def absorbed_processed(registry):
    """Per-worker absorbed ``tuples_processed_total`` from live telemetry."""
    family = registry.get("repro_cluster_worker_tuples_processed_total")
    if family is None:
        return {}
    totals: dict[str, float] = {}
    for sample in family.samples():
        worker = dict(sample.labels)["worker"]
        totals[worker] = totals.get(worker, 0.0) + sample.value
    return totals


def coordinator_bolt_processed(metrics):
    return sum(
        component.processed
        for name, component in metrics.components.items()
        if name.startswith("bolt:")
    )


class TestDeltaAbsorption:
    def test_streamed_counters_settle_exactly(self):
        # Satellite 4, in vivo: across many flush intervals plus the final
        # forced flush, the coordinator's absorbed per-worker counters sum
        # to exactly its own processing totals — replace semantics never
        # double- or under-counts.
        records = demo_records(3_000, 7)
        obs = Observability.create(sample_rate=0.05, seed=7)
        executor = ClusterExecutor(
            build_demo_topology(records),
            n_workers=2,
            semantics="at_least_once",
            obs=obs,
            telemetry_interval=INTERVAL,
        )
        with executor:
            metrics = executor.run()
        health = executor.last_health
        totals = absorbed_processed(obs.registry)
        assert set(totals) == {"0", "1"}
        assert sum(totals.values()) == coordinator_bolt_processed(metrics)
        # The run streamed, not one-shot: several flushes were absorbed
        # along the way (at least the final forced one per worker).
        assert sum(w.flushes for w in health.workers) >= 3
        assert all(w.flushes >= 1 for w in health.workers)

    def test_worker_spans_reach_the_coordinator_collector(self):
        records = demo_records(300, 7)
        obs = Observability.create(sample_rate=1.0, seed=7)
        executor = ClusterExecutor(
            build_demo_topology(records),
            n_workers=2,
            semantics="at_least_once",  # tracing rides the reliable path
            obs=obs,
            telemetry_interval=INTERVAL,
        )
        with executor:
            executor.run()
        process_spans = [s for s in obs.collector.spans if s.kind == "process"]
        assert {s.component for s in process_spans} >= {"bolt:split", "bolt:count"}
        # Every process span hangs off a span the collector also holds.
        known = {s.span_id for s in obs.collector.spans}
        assert all(s.parent_id in known for s in process_spans)

    def test_final_snapshot_is_settled(self):
        records = demo_records(1_000, 11)
        obs = Observability.create(sample_rate=0.0, seed=11)
        executor = ClusterExecutor(
            build_demo_topology(records),
            n_workers=2,
            semantics="at_least_once",
            obs=obs,
            telemetry_interval=INTERVAL,
        )
        with executor:
            executor.run()
        health = executor.last_health
        assert health.reason == "final"
        assert health.watermark_unit == "offset"
        assert health.source_frontier == float(len(records))
        # Every watermark has caught up: zero lag everywhere at shutdown.
        assert health.max_lag() == 0.0
        for op in health.operators:
            assert op.watermark == health.source_frontier
        # Shm transport: ring capacity known, occupancy is a fraction.
        assert 0.0 <= health.max_ring_occupancy() <= 1.0

    def test_health_query_mid_run_shape(self):
        records = demo_records(500, 3)
        obs = Observability.create(sample_rate=0.0, seed=3)
        executor = ClusterExecutor(
            build_demo_topology(records),
            n_workers=2,
            semantics="at_most_once",
            obs=obs,
            telemetry_interval=INTERVAL,
        )
        with executor:
            executor.run()
            snap = executor.health()
        assert snap.reason == "query"
        assert {op.kind for op in snap.operators} == {"spout", "bolt"}
        assert len(snap.workers) == 2
        # at-most-once issues no root ids: offset watermarks stay 0 and
        # only throughput/occupancy signals move.
        assert snap.source_frontier == 0.0

    def test_telemetry_off_falls_back_to_one_shot(self):
        # interval 0 disables *streaming*; each worker still force-flushes
        # once at shutdown so cluster-wide metric aggregation stays whole
        # (the obsbridge-equivalent baseline).
        records = demo_records(300, 5)

        def run(interval):
            obs = Observability.create(sample_rate=0.0, seed=5)
            executor = ClusterExecutor(
                build_demo_topology(records),
                n_workers=2,
                semantics="at_most_once",
                obs=obs,
                telemetry_interval=interval,
            )
            with executor:
                metrics = executor.run()
                sketch = state_fingerprint(executor.merged_synopsis("sketch"))
            return executor.last_health, obs, metrics, sketch

        health, obs, metrics, one_shot_sketch = run(0.0)
        assert all(w.flushes == 1 for w in health.workers)
        totals = absorbed_processed(obs.registry)
        assert sum(totals.values()) == coordinator_bolt_processed(metrics)
        # Streaming the telemetry must not change the answer: the merged
        # sketch is fingerprint-equal to the one-shot run's.
        __, __, __, streamed_sketch = run(INTERVAL)
        assert streamed_sketch == one_shot_sketch

    def test_streaming_telemetry_preserves_state(self):
        # A busier, reliable run: streaming flushes at a short interval
        # leave the merged sketch fingerprint-equal to telemetry-off.
        records = demo_records(1_000, 9)

        def merged_sketch(interval):
            executor = ClusterExecutor(
                build_demo_topology(records),
                n_workers=2,
                semantics="at_least_once",
                obs=Observability.create(sample_rate=0.0, seed=9),
                telemetry_interval=interval,
            )
            with executor:
                executor.run()
                return state_fingerprint(executor.merged_synopsis("sketch"))

        assert merged_sketch(INTERVAL) == merged_sketch(0.0)


class TestCrashTelemetry:
    @pytest.fixture(scope="class")
    def crash_run(self, tmp_path_factory):
        flight_path = tmp_path_factory.mktemp("flight") / "flight.jsonl"
        records = demo_records(3_000, 7)
        obs = Observability.create(sample_rate=1.0, seed=7)
        executor = ClusterExecutor(
            build_demo_topology(records),
            n_workers=2,
            semantics="exactly_once",
            checkpoint_interval=500,
            # Crash late enough that flush intervals elapse first; the
            # large span ring keeps the crashed worker's shipped spans
            # from being washed out by the survivor's flushes.
            worker_faults={1: FaultInjector(crash_after=2_000, seed=3)},
            obs=obs,
            telemetry_interval=0.002,
            flight=FlightRecorder(span_capacity=8_192),
            flight_path=flight_path,
        )
        with executor:
            metrics = executor.run()
        return executor, metrics, obs, flight_path

    def test_respawn_accounting_stays_exact(self, crash_run):
        executor, metrics, obs, __ = crash_run
        assert metrics.summary()["recoveries"] >= 1
        health = executor.last_health
        assert health.worker(1).incarnation >= 1
        assert health.worker(0).incarnation == 0
        # Seal-on-respawn: sealed base + fresh incarnation == coordinator
        # truth, exactly — no double count across the crash.
        totals = absorbed_processed(obs.registry)
        assert sum(totals.values()) == coordinator_bolt_processed(metrics)

    def test_crash_dumps_flight_recorder(self, crash_run):
        executor, __, __, flight_path = crash_run
        assert flight_path.exists()
        dump = read_flight(flight_path)
        header = dump[0]
        assert header["type"] == "flight_header"
        assert header["reason"] == "crash"
        assert header["snapshots"] >= 1
        kinds = [r["kind"] for r in dump if r["type"] == "event"]
        assert "crash" in kinds
        # The dump's last snapshot was taken at crash-handling time: its
        # workers' telemetry is at most ~one flush interval + handling
        # time stale (the flight-recorder freshness pin, integration
        # half; the deterministic half lives in tests/obs/test_health.py).
        last_health = [r for r in dump if r["type"] == "health"][-1]
        assert last_health["reason"] == "crash"

    def test_crashed_incarnation_spans_survive(self, crash_run):
        # The obsbridge span-loss fix: the crashed worker never reached a
        # shutdown export, yet spans from shards it owned are in the
        # crash-time dump — they arrived via periodic flushes, bounding
        # the loss to one flush interval instead of everything.
        executor, __, __, flight_path = crash_run
        crashed_shards = {
            (f"bolt:{component}", task)
            for component, task in executor.plan.tasks_of(1)
        }
        dump = read_flight(flight_path)
        dumped_spans = [r for r in dump if r["type"] == "span"]
        from_crashed = [
            s
            for s in dumped_spans
            if (s["component"], s["task"]) in crashed_shards
        ]
        assert from_crashed, "no pre-crash spans from the crashed worker"

"""Run counters reach the registry at every publish point.

Counting on the tuple path is plain ints; ``ExecutionMetrics.publish``
writes them into the registry where the owner already folds: after each
``LocalExecutor.run_some``/``finish``/``run``, and at the coordinator's
health publish, the end of ``ClusterExecutor.run()`` and ``close()``.
At each of those points every family equals what ``summary()`` and
``transport_stats`` report. One fact, one tally: ring-full waits are
counted once, so ``summary()`` never lags ``transport_stats`` mid-run.
"""

import threading
import time

import pytest

from repro.cluster.coordinator import ClusterExecutor
from repro.cluster.shm import shm_available
from repro.obs.context import Observability
from repro.obs.demo import build_demo_topology, demo_records
from repro.platform.executor import LocalExecutor
from repro.platform.faults import FaultInjector
from repro.platform.metrics import ExecutionMetrics

needs_shm = pytest.mark.skipif(
    not shm_available(), reason="POSIX shared memory unavailable"
)


def assert_registry_matches(metrics, executor=None):
    """Every run-counter family equals summary(); with *executor*, the
    coordinator's transport families equal its transport_stats."""
    registry, summary = metrics.registry, metrics.summary()
    for field in ("emitted", "processed", "acked", "failed", "queue_high_water"):
        name = (
            "repro_component_queue_high_water"
            if field == "queue_high_water"
            else f"repro_component_{field}_total"
        )
        published = {
            sample.labels_dict()["component"]: sample.value
            for sample in registry.get(name).samples()
        }
        assert published == {
            component: counts[field]
            for component, counts in summary["components"].items()
        }, name
    for key in ("replays", "checkpoints", "recoveries"):
        assert registry.get(f"repro_{key}_total").value == summary[key], key
    waits = registry.get("repro_transport_backpressure_waits_total").value
    assert waits == summary["backpressure_waits"]
    assert registry.get("repro_wall_seconds").value == metrics.wall_seconds
    ring = registry.get("repro_transport_ring_occupancy").value
    assert ring == metrics.ring_occupancy
    if executor is not None:
        stats = executor.transport_stats
        assert waits == stats["backpressure_waits"]
        data = registry.get("repro_cluster_transport_bytes_total").value
        assert data == stats["data_bytes_shm"]
        frames = registry.get("repro_cluster_transport_frames_total").value
        assert frames == stats["data_frames"]


def _local(semantics, obs=None, n_records=800):
    # Drops replay under at-least-once (each one is a rollback under
    # exactly-once, so there a crash alone is enough).
    drops = 0.02 if semantics == "at_least_once" else 0.0
    return LocalExecutor(
        build_demo_topology(demo_records(n_records, 7), obs),
        semantics=semantics,
        faults=FaultInjector(drop_probability=drops, crash_after=500, seed=3),
        checkpoint_interval=200,
        obs=obs,
    )


class TestPublish:
    def test_counters_reach_the_registry_only_on_publish(self):
        metrics = ExecutionMetrics()
        metrics.components["spout:s"].emitted += 5
        metrics.replays += 2
        assert metrics.registry.get("repro_replays_total").value == 0
        metrics.publish()
        assert_registry_matches(metrics)

    def test_shared_registry_adds_runs_up(self):
        # Two runs publishing into one registry: its totals are the sum,
        # while each summary() reports its own run.
        first = ExecutionMetrics()
        second = ExecutionMetrics(first.registry)
        for metrics, n in ((first, 3), (second, 4)):
            metrics.components["spout:s"].emitted += n
            metrics.recoveries += 1
            metrics.publish()
            metrics.publish()  # idempotent between changes
        registry = first.registry
        emitted = registry.get("repro_component_emitted_total").samples()
        assert [sample.value for sample in emitted] == [7]
        assert registry.get("repro_recoveries_total").value == 2
        assert second.summary()["components"]["spout:s"]["emitted"] == 4


class TestLocalExecutorPublishPoints:
    @pytest.mark.parametrize(
        "semantics", ["at_most_once", "at_least_once", "exactly_once"]
    )
    def test_after_run(self, semantics):
        obs = Observability.create(sample_rate=0.0)
        executor = _local(semantics, obs)
        executor.run()
        assert executor.metrics.registry is obs.registry
        assert_registry_matches(executor.metrics)
        summary = executor.metrics.summary()
        if semantics == "at_least_once":
            assert summary["replays"] > 0
        if semantics == "exactly_once":
            assert summary["checkpoints"] > 0 and summary["recoveries"] > 0

    def test_after_each_run_some(self):
        executor = _local("exactly_once")
        rounds = 0
        while executor.run_some(64):
            assert_registry_matches(executor.metrics)
            rounds += 1
        assert_registry_matches(executor.metrics)
        executor.finish()
        assert_registry_matches(executor.metrics)
        assert rounds > 10


@needs_shm
class TestClusterExecutorPublishPoints:
    @pytest.mark.parametrize("observed", [False, True])
    def test_after_run_and_close(self, observed):
        obs = Observability.create(sample_rate=0.0) if observed else None
        with ClusterExecutor(
            build_demo_topology(demo_records(1_200, 7)),
            n_workers=2,
            semantics="exactly_once",
            checkpoint_interval=300,
            ring_capacity=1 << 13,
            max_frame=1 << 12,
            worker_faults={1: FaultInjector(crash_after=400, seed=3)},
            obs=obs,
        ) as executor:
            metrics = executor.run()
            assert_registry_matches(metrics, executor if observed else None)
            summary = metrics.summary()
            assert summary["checkpoints"] > 0 and summary["recoveries"] > 0
            assert summary["backpressure_waits"] > 0
        assert_registry_matches(metrics, executor if observed else None)


@needs_shm
class TestLiveBackpressure:
    @pytest.mark.parametrize("observed", [False, True])
    def test_summary_keeps_up_with_transport_mid_run(self, observed):
        # Polled from a second thread: once the transport has counted n
        # ring-full waits, summary() (and the serving health snapshot
        # that reads it) must report at least n.
        obs = Observability.create(sample_rate=0.0) if observed else None
        finished = threading.Event()
        seen: list[tuple[int, int]] = []
        with ClusterExecutor(
            build_demo_topology(demo_records(20_000, 7)),
            n_workers=2,
            ring_capacity=1 << 13,
            max_frame=1 << 12,
            obs=obs,
        ) as executor:

            def poll() -> None:
                while not finished.is_set():
                    waits = executor.transport_stats["backpressure_waits"]
                    if waits > 0:
                        summary = executor.metrics.summary()
                        seen.append((waits, summary["backpressure_waits"]))
                        return
                    time.sleep(0.05)

            poller = threading.Thread(target=poll)
            poller.start()
            try:
                executor.run()
            finally:
                finished.set()
                poller.join(timeout=10.0)
        assert not poller.is_alive()
        assert seen, "no ring-full wait was seen mid-run"
        waits, reported = seen[0]
        assert reported >= waits
        if observed:  # one tally, one family
            registry = obs.registry
            names = [name for name in registry.names() if "backpressure" in name]
            assert names == ["repro_transport_backpressure_waits_total"]

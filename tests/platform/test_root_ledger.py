"""The root ledger keeps a source record's attempt and replay counts only
while the record can still be emitted again: under at-least-once until it
is acked or given up, under exactly-once until a kept checkpoint passes
it, and under at-most-once not at all."""

import pytest

from repro.cluster.coordinator import ClusterExecutor
from repro.cluster.shm import shm_available
from repro.obs.context import Observability
from repro.obs.demo import build_demo_topology, demo_records, run_demo
from repro.platform.executor import LocalExecutor
from repro.platform.faults import FaultInjector
from repro.platform.operators import CountBolt
from repro.platform.topology import ListSpout, TopologyBuilder


def _attempts(executor) -> dict:
    return executor._ledger._attempts


def _replays(executor) -> dict:
    return executor._ledger._replays


class TestLocalLedger:
    def test_at_least_once_run_ends_with_no_attempts(self):
        executor, obs = run_demo(
            n_records=6_000, sample_rate=1.0, semantics="at_least_once"
        )
        assert len(obs.collector.trace_ids()) == 6_000
        assert len(_attempts(executor)) == 0

    def test_at_most_once_stores_nothing(self):
        executor, obs = run_demo(
            n_records=500, sample_rate=1.0, semantics="at_most_once"
        )
        assert len(obs.collector.trace_ids()) == 500
        assert len(_attempts(executor)) == 0

    def test_replays_forgotten_once_acked_or_given_up(self):
        executor, __ = run_demo(
            n_records=2_000,
            sample_rate=1.0,
            semantics="at_least_once",
            drop_probability=0.02,
        )
        assert executor.metrics.summary()["replays"] > 0
        assert len(_replays(executor)) == 0
        assert len(_attempts(executor)) == 0

    def test_given_up_record_is_forgotten(self):
        # Every tuple is dropped: each record fails, replays up to the
        # cap and is given up, and then nothing of it is kept.
        builder = TopologyBuilder()
        builder.set_spout("s", lambda: ListSpout(["x", "y", "z"]))
        builder.set_bolt("count", CountBolt).fields("s", 0)
        executor = LocalExecutor(
            builder.build(),
            semantics="at_least_once",
            faults=FaultInjector(drop_probability=0.999, seed=1),
            max_replays_per_message=2,
        )
        executor.run()
        assert executor.metrics.summary()["replays"] > 0
        assert len(_replays(executor)) == 0

    def test_exactly_once_keeps_only_records_past_the_checkpoint(self):
        interval = 400
        executor, obs = run_demo(
            n_records=3_000,
            sample_rate=1.0,
            semantics="exactly_once",
            crash_after=1_500,
            checkpoint_interval=interval,
        )
        summary = executor.metrics.summary()
        assert summary["recoveries"] >= 1 and summary["checkpoints"] >= 3
        cut = executor._checkpoint["offsets"]["sentences"][0]
        assert all(key >= cut for key in _attempts(executor))
        assert len(_attempts(executor)) <= interval
        # Replays past the crash still resumed their traces.
        assert any(
            span.attempt > 1
            for trace_id in obs.collector.trace_ids()
            for span in obs.collector.spans_for(trace_id)
            if span.kind == "spout_emit"
        )


@pytest.mark.skipif(not shm_available(), reason="POSIX shared memory unavailable")
class TestClusterLedger:
    def test_at_least_once_run_ends_with_no_attempts(self):
        obs = Observability.create(sample_rate=1.0)
        with ClusterExecutor(
            build_demo_topology(demo_records(1_500, 7)),
            n_workers=2,
            semantics="at_least_once",
            obs=obs,
        ) as executor:
            executor.run()
            assert len(obs.collector.trace_ids()) == 1_500
            assert len(_attempts(executor)) == 0


"""Cluster execution equivalence: sharded must equal single-process.

The contract under test is the paper's partitioned-computation claim: a
topology sharded across worker processes, with merge-on-query over the
shard partials, produces state **bit-identical** to the single-process
:class:`LocalExecutor` over the same records — fingerprints, not
approximations.
"""

import threading
import time

import pytest

from repro.bench.fingerprint import state_fingerprint
from repro.cluster.coordinator import ClusterExecutor
from repro.cluster.shm import leaked_segments
from repro.common.exceptions import ExecutionError, ParameterError
from repro.obs.demo import build_demo_topology, demo_records
from repro.platform.executor import LocalExecutor
from repro.platform.operators import CountBolt
from repro.platform.topology import Bolt, ListSpout, Spout, TopologyBuilder

N_RECORDS = 600
SEED = 7


@pytest.fixture(scope="module")
def records():
    return demo_records(N_RECORDS, SEED)


@pytest.fixture(scope="module")
def reference(records):
    """Single-process baseline: sketch fingerprint + merged word counts."""
    executor = LocalExecutor(build_demo_topology(records), semantics="at_most_once")
    executor.run()
    sketch = executor.bolt_instances("sketch")[0].synopsis
    counts: dict = {}
    for bolt in executor.bolt_instances("count"):
        for key, value in bolt.counts.items():
            counts[key] = counts.get(key, 0) + value
    return state_fingerprint(sketch), counts


def _merged_counts(executor: ClusterExecutor) -> dict:
    out: dict = {}
    for partial in executor.bolt_states("count"):
        for key, value in partial.items():
            out[key] = out.get(key, 0) + value
    return out


class TestEquivalence:
    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_merged_state_matches_single_process(
        self, records, reference, n_workers
    ):
        ref_fingerprint, ref_counts = reference
        with ClusterExecutor(
            build_demo_topology(records), n_workers=n_workers
        ) as executor:
            executor.run()
            merged = executor.merged_synopsis("sketch")
            counts = _merged_counts(executor)
        assert state_fingerprint(merged) == ref_fingerprint
        assert counts == ref_counts

    def test_reliable_run_matches_too(self, records, reference):
        ref_fingerprint, __ = reference
        with ClusterExecutor(
            build_demo_topology(records), n_workers=2, semantics="at_least_once"
        ) as executor:
            metrics = executor.run()
            merged = executor.merged_synopsis("sketch")
        assert state_fingerprint(merged) == ref_fingerprint
        # every source record acked, none replayed on a clean run
        assert metrics.summary()["replays"] == 0

    def test_partitioned_spout(self, records, reference):
        __, ref_counts = reference
        builder = TopologyBuilder()
        builder.set_spout("sentences", lambda: ListSpout(records), parallelism=2)
        from repro.platform.operators import CountBolt, FlatMapBolt

        builder.set_bolt(
            "split", lambda: FlatMapBolt(lambda values: [(w,) for w in values[0].split()])
        ).shuffle("sentences")
        builder.set_bolt("count", lambda: CountBolt(0), parallelism=2).fields(
            "split", 0
        )
        with ClusterExecutor(builder.build(), n_workers=2) as executor:
            executor.run()
            counts = _merged_counts(executor)
        assert counts == ref_counts


class TestApiContract:
    def test_bolt_states_in_task_order(self, records):
        with ClusterExecutor(build_demo_topology(records), n_workers=2) as executor:
            executor.run()
            partials = executor.bolt_states("count")
        assert len(partials) == 2  # CountBolt parallelism in the demo

    def test_unknown_bolt_rejected(self, records):
        with ClusterExecutor(build_demo_topology(records), n_workers=2) as executor:
            with pytest.raises(ParameterError):
                executor.bolt_states("nope")
            with pytest.raises(ParameterError):
                executor.bolt_states("sentences")  # spout, not bolt

    def test_closed_executor_cannot_restart(self, records):
        executor = ClusterExecutor(build_demo_topology(records), n_workers=1)
        with executor:
            executor.run()
        with pytest.raises(ExecutionError):
            executor.run()

    def test_parameter_validation(self, records):
        topology = build_demo_topology(records)
        with pytest.raises(ParameterError):
            ClusterExecutor(topology, n_workers=0)
        with pytest.raises(ParameterError):
            ClusterExecutor(topology, semantics="maybe_once")
        with pytest.raises(ParameterError):
            ClusterExecutor(topology, checkpoint_interval=0)
        with pytest.raises(ParameterError):
            ClusterExecutor(topology, batch_size=0)
        with pytest.raises(ParameterError):
            ClusterExecutor(topology, transport="queue")  # the deleted plane

    def test_unsplittable_parallel_spout_rejected(self):
        class _Fixed(Spout):
            def next_tuple(self):
                return None

        builder = TopologyBuilder()
        builder.set_spout("src", _Fixed, parallelism=2)

        class _Sink(Bolt):
            def process(self, values, emit):
                pass

        builder.set_bolt("sink", _Sink).shuffle("src")
        with pytest.raises(ExecutionError):
            ClusterExecutor(builder.build(), n_workers=2)


SEMANTICS = ("at_most_once", "at_least_once", "exactly_once")


def _two_spout_topology():
    builder = TopologyBuilder()
    builder.set_spout("left", lambda: ListSpout(["x", "y", "x"] * 20))
    builder.set_spout("right", lambda: ListSpout(["y", "z"] * 30))
    count = builder.set_bolt(
        "count", lambda: CountBolt(0, emit_updates=False), parallelism=2
    )
    count.fields("left", 0).fields("right", 0)
    return builder.build()


class TestTwoSpouts:
    """Both executors issue roots from a counter: two spouts whose local
    offsets both start at 0 must not collide in the acker."""

    @pytest.mark.parametrize("semantics", SEMANTICS)
    def test_local_equals_cluster(self, semantics):
        local = LocalExecutor(_two_spout_topology(), semantics=semantics)
        local.run()
        local_counts: dict = {}
        for bolt in local.bolt_instances("count"):
            local_counts.update(bolt.counts)
        with ClusterExecutor(
            _two_spout_topology(), n_workers=2, semantics=semantics
        ) as cluster:
            cluster.run()
            cluster_counts = _merged_counts(cluster)
        assert local_counts == cluster_counts == {"x": 40, "y": 50, "z": 30}


class _Poison(Bolt):
    def process(self, values, emit):
        if values[0] == 13:
            raise ValueError("boom")


class _PoisonFlush(Bolt):
    def process(self, values, emit):
        pass

    def flush(self, emit):
        raise ValueError("boom")


class TestOperatorErrors:
    """A bolt that raises is a deterministic failure, not a crash: it
    surfaces as ExecutionError — no respawn, no replay storm, no hang."""

    @staticmethod
    def _assert_fails_promptly(bolt, semantics, match):
        builder = TopologyBuilder()
        builder.set_spout("src", lambda: ListSpout(list(range(40))))
        builder.set_bolt("bad", bolt, parallelism=2).shuffle("src")
        executor = ClusterExecutor(
            builder.build(), n_workers=2, semantics=semantics, reply_timeout=10.0
        )
        started = time.perf_counter()
        with executor:
            with pytest.raises(ExecutionError, match=match):
                executor.run()
        assert time.perf_counter() - started < 10.0
        summary = executor.metrics.summary()
        assert summary["replays"] == 0 and summary["recoveries"] == 0
        assert not any(process.is_alive() for process in executor._processes)
        assert leaked_segments() == []

    @pytest.mark.parametrize("semantics", SEMANTICS)
    def test_poison_bolt_raises_promptly(self, semantics):
        self._assert_fails_promptly(
            _Poison, semantics, r"bolt 'bad' failed on \(13,\)"
        )

    @pytest.mark.parametrize("semantics", SEMANTICS)
    def test_poison_flush_raises_promptly(self, semantics):
        # The end-of-stream flush waits on its own replies: an error there
        # must end the run as promptly as one in process().
        self._assert_fails_promptly(
            _PoisonFlush, semantics, r"bolt 'bad' failed in flush"
        )


class TestCrossThreadRequests:
    def test_waiting_requester_does_not_spin(self, records):
        # With no pump running, the first requester serves the queue
        # inline under the control lock; the second must wait for it
        # without burning a core.
        with ClusterExecutor(build_demo_topology(records), n_workers=2) as executor:
            executor.run()
            query_shards = executor._query_shards

            def slow_query(name):
                time.sleep(0.4)  # a large capture
                return query_shards(name)

            executor._query_shards = slow_query
            used = {}

            def capture(key):
                cpu, wall = time.thread_time(), time.perf_counter()
                executor.capture_shards("count")
                used[key] = (time.thread_time() - cpu, time.perf_counter() - wall)

            threads = [threading.Thread(target=capture, args=(k,)) for k in "ab"]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
        # Each waited for both captures (~0.8 s); neither spent half of it
        # on the CPU.
        assert sorted(used) == ["a", "b"]
        for cpu, wall in used.values():
            assert wall >= 0.4
            assert cpu < 0.5 * wall


class TestCli:
    def test_demo_cli_verifies_fingerprint(self, capsys):
        from repro.cluster.cli import main

        code = main(["--workers", "2", "--records", "400"])
        out = capsys.readouterr().out
        assert code == 0
        assert "MATCH" in out

"""Shared-memory transport, end to end: equivalence, backpressure, leaks.

The shm data plane must be *invisible*: for every worker count and every
semantics rung, merged state is bit-identical to the single-process
run. On top of that it
must be honest (byte accounting proves the data plane is pickle-free)
and clean (no ``/dev/shm`` segment survives the executor — clean
shutdown or injected crash alike).
"""

import pytest

from repro.bench.fingerprint import state_fingerprint
from repro.cluster.coordinator import ClusterExecutor
from repro.cluster.shm import ShmChannel, SpscRing, leaked_segments, shm_available
from repro.common.exceptions import ParameterError, SerializationError
from repro.core.stateship import capture
from repro.obs.demo import build_demo_topology, demo_records
from repro.platform.executor import LocalExecutor
from repro.platform.faults import FaultInjector
from repro.platform.operators import FlatMapBolt, SynopsisBolt
from repro.platform.topology import ListSpout, TopologyBuilder
from repro.quantiles.exact import ExactQuantiles

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="POSIX shared memory unavailable"
)

N_RECORDS = 600
SEED = 7


@pytest.fixture(scope="module")
def records():
    return demo_records(N_RECORDS, SEED)


@pytest.fixture(scope="module")
def reference(records):
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


def _quantile_topology(records, parallelism):
    """words → split → fields-grouped exact quantiles (``parallelism`` shards)."""
    builder = TopologyBuilder()
    builder.set_spout("sentences", lambda: ListSpout(records))
    builder.set_bolt(
        "split", lambda: FlatMapBolt(lambda v: [(w,) for w in v[0].split()])
    ).shuffle("sentences")
    builder.set_bolt(
        "quantile",
        lambda: SynopsisBolt(ExactQuantiles, batch_size=256),
        parallelism=parallelism,
    ).fields("split", 0)
    return builder.build()


class TestEquivalence:
    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_shm_matches_single_process(self, records, reference, n_workers):
        ref_fingerprint, ref_counts = reference
        with ClusterExecutor(
            build_demo_topology(records), n_workers=n_workers, transport="shm"
        ) as executor:
            executor.run()
            merged = executor.merged_synopsis("sketch")
            counts = _merged_counts(executor)
        assert state_fingerprint(merged) == ref_fingerprint
        assert counts == ref_counts

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_exact_quantile_shards_match_single_process(self, records, n_workers):
        # One ExactQuantiles shard per worker: the sorted-multiset merge of
        # the shards is exactly the single-process parallelism-1 buffer.
        local = LocalExecutor(_quantile_topology(records, 1))
        local.run()
        expected = state_fingerprint(local.bolt_instances("quantile")[0].synopsis)
        with ClusterExecutor(
            _quantile_topology(records, n_workers), n_workers=n_workers
        ) as executor:
            executor.run()
            merged = executor.merged_synopsis("quantile")
        assert merged.count == 4 * len(records)
        assert state_fingerprint(merged) == expected

    def test_shm_at_least_once_clean_run(self, records, reference):
        ref_fingerprint, __ = reference
        with ClusterExecutor(
            build_demo_topology(records),
            n_workers=2,
            semantics="at_least_once",
            transport="shm",
        ) as executor:
            metrics = executor.run()
            merged = executor.merged_synopsis("sketch")
        assert state_fingerprint(merged) == ref_fingerprint
        assert metrics.summary()["replays"] == 0

    def test_shm_exactly_once_survives_a_crash(self, records, reference):
        ref_fingerprint, ref_counts = reference
        with ClusterExecutor(
            build_demo_topology(records),
            n_workers=2,
            semantics="exactly_once",
            checkpoint_interval=100,
            transport="shm",
            worker_faults={1: FaultInjector(crash_after=250, seed=3)},
        ) as executor:
            metrics = executor.run()
            merged = executor.merged_synopsis("sketch")
            counts = _merged_counts(executor)
        assert metrics.summary()["recoveries"] >= 1
        assert state_fingerprint(merged) == ref_fingerprint
        assert counts == ref_counts


class TestByteAccounting:
    def test_shm_data_plane_bypasses_queues(self, records):
        with ClusterExecutor(
            build_demo_topology(records), n_workers=2, transport="shm"
        ) as executor:
            executor.run()
            stats = dict(executor.transport_stats)
        assert stats["transport"] == "shm"
        assert stats["data_bytes_shm"] > 0
        assert stats["data_frames"] > 0
        # Demo payloads are all-str columns: nothing fell back to pickle.
        assert stats["codec_pickled_bytes"] == 0


class TestBackpressure:
    def test_tiny_ring_stalls_but_stays_exact(self, records, reference):
        """A ring far smaller than the traffic forces ring-full waits;
        the run must still complete and match the reference exactly."""
        ref_fingerprint, ref_counts = reference
        with ClusterExecutor(
            build_demo_topology(records),
            n_workers=2,
            transport="shm",
            ring_capacity=4096,
            max_frame=1024,
        ) as executor:
            executor.run()
            merged = executor.merged_synopsis("sketch")
            counts = _merged_counts(executor)
            waits = executor.transport_stats["backpressure_waits"]
        assert waits > 0
        assert state_fingerprint(merged) == ref_fingerprint
        assert counts == ref_counts

    def test_frame_limit_must_fit_the_ring(self, records):
        with pytest.raises(ParameterError):
            ClusterExecutor(
                build_demo_topology(records),
                transport="shm",
                ring_capacity=1024,
                max_frame=1024,  # + length header it can never fit
            )

    def test_unknown_transport_rejected(self, records):
        with pytest.raises(ParameterError):
            ClusterExecutor(build_demo_topology(records), transport="carrier_pigeon")


class TestSegmentHygiene:
    def test_clean_shutdown_leaves_no_segments(self, records):
        with ClusterExecutor(
            build_demo_topology(records), n_workers=2, transport="shm"
        ) as executor:
            executor.run()
            names = [
                name
                for channel in executor._channels
                for name in channel.segment_names
            ]
            assert names and leaked_segments(names) == names  # live during run
        assert leaked_segments(names) == []
        assert leaked_segments() == []  # nothing pid-stamped left behind

    def test_crashed_run_leaves_no_segments(self, records):
        with ClusterExecutor(
            build_demo_topology(records),
            n_workers=2,
            semantics="exactly_once",
            checkpoint_interval=100,
            transport="shm",
            worker_faults={0: FaultInjector(crash_after=200, seed=5)},
        ) as executor:
            metrics = executor.run()
            names = [
                name
                for channel in executor._channels
                for name in channel.segment_names
            ]
        assert metrics.summary()["recoveries"] >= 1
        assert leaked_segments(names) == []
        assert leaked_segments() == []

    def test_abandoned_executor_cleans_up_on_close(self, records):
        executor = ClusterExecutor(
            build_demo_topology(records), n_workers=1, transport="shm"
        )
        with executor:
            pass  # never ran; exit must still unlink the pre-created rings
        assert leaked_segments() == []


class TestHandlesStayLocal:
    def test_stateship_refuses_a_captured_ring(self):
        ring = SpscRing(capacity=128)
        try:
            with pytest.raises(SerializationError):
                capture({"transport": ring})
        finally:
            ring.destroy()

    def test_stateship_refuses_a_captured_channel(self):
        channel = ShmChannel(worker_id=0, capacity=128)
        try:
            with pytest.raises(SerializationError):
                capture({"transport": channel})
        finally:
            channel.destroy()

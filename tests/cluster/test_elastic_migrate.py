"""Live rescale protocol: state must survive any rescale schedule intact.

The contract is the elastic half of the partitioned-computation claim:
a cluster rescaled mid-flight — workers added or removed, synopsis bolts
re-sharded by ``merge`` + ``split`` — produces merged state
**bit-identical** to a single-process run over the same records, under
exactly-once, with nothing replayed and nothing leaked.
"""

import threading
import time

import pytest

from repro.bench.fingerprint import state_fingerprint
from repro.cardinality.hyperloglog import HyperLogLog
from repro.cluster.coordinator import ClusterExecutor
from repro.cluster.elastic.migrate import (
    STRATEGY_DRAIN_RESTART,
    STRATEGY_SPLIT,
    STRATEGY_STATELESS,
    reshard_states,
)
from repro.cluster.shm import leaked_segments
from repro.common.exceptions import ExecutionError, ParameterError
from repro.core import stateship
from repro.platform.executor import LocalExecutor
from repro.quantiles.gk import GKQuantiles
from repro.workloads.spike import build_spike_topology, spike_records

SYNOPSES = ("hot_keys", "audience", "latency")
AMPLIFY = 4


@pytest.fixture(scope="module")
def records():
    return spike_records(n_calm=200, n_spike=400, n_tail=200, seed=7)


@pytest.fixture(scope="module")
def reference(records):
    executor = LocalExecutor(build_spike_topology(records, amplify=AMPLIFY))
    executor.run()
    return {
        name: state_fingerprint(executor.bolt_instances(name)[0].synopsis)
        for name in SYNOPSES
    }


def _merged_fingerprints(executor):
    return {
        name: state_fingerprint(executor.merged_synopsis(name))
        for name in SYNOPSES
    }


class TestPostRunRescale:
    """Rescale a quiesced-but-live cluster; merged answers must not move."""

    def test_scale_up_resharding_synopses(self, records, reference):
        with ClusterExecutor(
            build_spike_topology(records, amplify=AMPLIFY), n_workers=1
        ) as executor:
            executor.run()
            report = executor.rescale(
                n_workers=2, parallelism={name: 2 for name in SYNOPSES}
            )
            assert _merged_fingerprints(executor) == reference
        assert report.from_workers == 1
        assert report.to_workers == 2
        assert set(report.strategies) == set(SYNOPSES)
        assert set(report.strategies.values()) <= {
            STRATEGY_SPLIT,
            STRATEGY_DRAIN_RESTART,
        }
        assert report.total_s > 0
        assert report.moved_state_bytes > 0
        assert report.parallelism_after["latency"] == 2

    def test_scale_down_merging_shards(self, records, reference):
        with ClusterExecutor(
            build_spike_topology(
                records,
                quantile_parallelism=2,
                sketch_parallelism=2,
                amplify=AMPLIFY,
            ),
            n_workers=2,
        ) as executor:
            executor.run()
            executor.rescale(
                n_workers=1, parallelism={name: 1 for name in SYNOPSES}
            )
            assert _merged_fingerprints(executor) == reference

    def test_worker_move_without_resharding(self, records, reference):
        # No parallelism change: shards (any state shape) move
        # byte-for-byte to the new worker set.
        with ClusterExecutor(
            build_spike_topology(records, amplify=AMPLIFY), n_workers=1
        ) as executor:
            executor.run()
            report = executor.rescale(n_workers=3)
            assert report.strategies == {}
            assert _merged_fingerprints(executor) == reference

    def test_epoch_advances_and_report_recorded(self, records):
        with ClusterExecutor(
            build_spike_topology(records, amplify=AMPLIFY), n_workers=1
        ) as executor:
            executor.run()
            before = executor.epoch
            executor.rescale(n_workers=2)
            assert executor.epoch == before + 1
            assert len(executor.rescale_reports) == 1

    def test_credit_window_scales_with_workers(self, records):
        with ClusterExecutor(
            build_spike_topology(records, amplify=AMPLIFY),
            n_workers=1,
            max_outstanding=8,
        ) as executor:
            executor.run()
            executor.rescale(n_workers=4)
            assert executor.max_outstanding == 32
            executor.rescale(n_workers=1)
            assert executor.max_outstanding == 8


class TestMidRunRescale:
    def test_exactly_once_rescale_mid_flight(self, records, reference):
        with ClusterExecutor(
            build_spike_topology(records, amplify=AMPLIFY),
            n_workers=1,
            semantics="exactly_once",
            checkpoint_interval=200,
        ) as executor:
            outcome = {}

            def _grow():
                time.sleep(0.05)
                outcome["report"] = executor.rescale(
                    n_workers=2, parallelism={name: 2 for name in SYNOPSES}
                )

            thread = threading.Thread(target=_grow)
            thread.start()
            metrics = executor.run()
            thread.join()
            assert _merged_fingerprints(executor) == reference
            # The re-baseline means the rescale itself replays nothing.
            assert metrics.summary()["replays"] == 0
            offsets = {
                name: [spout.offset for spout in partitions]
                for name, partitions in executor._spouts.items()
            }
            assert executor._checkpoint["offsets"] == offsets
        assert outcome["report"].to_workers == 2

    def test_capture_and_rescale_from_two_threads(self, records, reference):
        # One run serves both kinds of cross-thread request, each from its
        # own thread, through its one request queue.
        with ClusterExecutor(
            build_spike_topology(records, amplify=AMPLIFY),
            n_workers=1,
            semantics="exactly_once",
            checkpoint_interval=200,
        ) as executor:
            outcome = {}
            finished = threading.Event()

            def _request(key, call):
                while not executor._pumping and not finished.is_set():
                    time.sleep(0.001)
                outcome[key] = call()

            threads = [
                threading.Thread(
                    target=_request,
                    args=("shards", lambda: executor.capture_shards("hot_keys")),
                ),
                threading.Thread(
                    target=_request,
                    args=(
                        "report",
                        lambda: executor.rescale(
                            n_workers=2, parallelism={name: 2 for name in SYNOPSES}
                        ),
                    ),
                ),
            ]
            for thread in threads:
                thread.start()
            executor.run()
            finished.set()
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
            assert _merged_fingerprints(executor) == reference
        assert outcome["report"].to_workers == 2
        partials = [stateship.restore(p)["state"] for p in outcome["shards"]]
        assert partials and all(p is not None for p in partials)

    def test_shm_rescale_leaks_nothing(self, records, reference):
        with ClusterExecutor(
            build_spike_topology(records, amplify=AMPLIFY),
            n_workers=1,
            transport="shm",
        ) as executor:
            executor.run()
            executor.rescale(n_workers=3)
            executor.rescale(n_workers=1)
            assert _merged_fingerprints(executor) == reference
        assert leaked_segments() == []


class TestValidation:
    def test_noop_request_returns_none(self, records):
        with ClusterExecutor(
            build_spike_topology(records, amplify=AMPLIFY), n_workers=2
        ) as executor:
            executor.run()
            assert executor.rescale(n_workers=2) is None

    def test_nonpositive_workers_rejected(self, records):
        with ClusterExecutor(
            build_spike_topology(records, amplify=AMPLIFY), n_workers=1
        ) as executor:
            with pytest.raises(ParameterError):
                executor.rescale(n_workers=0)

    def test_unknown_bolt_rejected(self, records):
        with ClusterExecutor(
            build_spike_topology(records, amplify=AMPLIFY), n_workers=1
        ) as executor:
            with pytest.raises(ParameterError):
                executor.rescale(parallelism={"nope": 2})

    def test_nonpositive_parallelism_rejected(self, records):
        with ClusterExecutor(
            build_spike_topology(records, amplify=AMPLIFY), n_workers=1
        ) as executor:
            with pytest.raises(ParameterError):
                executor.rescale(parallelism={"latency": 0})


class TestReshardStates:
    """The pure re-dealing step, unit-tested on hand-captured payloads."""

    @staticmethod
    def _topology():
        return build_spike_topology(
            spike_records(n_calm=10, n_spike=10, n_tail=0, seed=7),
            amplify=AMPLIFY,
        )

    @staticmethod
    def _payload(synopsis):
        return stateship.capture({"state": synopsis})

    def test_splittable_synopsis_round_trips(self):
        source = HyperLogLog(precision=10)
        for i in range(500):
            source.update(f"item-{i}")
        states, strategies = reshard_states(
            self._topology(),
            {("audience", 0): self._payload(source)},
            {"audience": 3},
        )
        assert strategies == {"audience": STRATEGY_SPLIT}
        shards = [
            stateship.restore(states[("audience", task)])["state"]
            for task in range(3)
        ]
        merged = shards[0]
        merged.merge(shards[1])
        merged.merge(shards[2])
        assert state_fingerprint(merged) == state_fingerprint(source)

    def test_unsplittable_synopsis_parks_on_task_zero(self):
        source = GKQuantiles(epsilon=0.05)
        for i in range(200):
            source.update(float(i))
        assert not GKQuantiles.supports_split()
        states, strategies = reshard_states(
            self._topology(),
            {("latency", 0): self._payload(source)},
            {"latency": 2},
        )
        assert strategies == {"latency": STRATEGY_DRAIN_RESTART}
        parked = stateship.restore(states[("latency", 0)])["state"]
        assert state_fingerprint(parked) == state_fingerprint(source)
        assert states[("latency", 1)] is None

    def test_stateless_bolt_starts_fresh_everywhere(self):
        states, strategies = reshard_states(
            self._topology(), {("burst", 0): None}, {"burst": 2}
        )
        assert strategies == {"burst": STRATEGY_STATELESS}
        assert states == {("burst", 0): None, ("burst", 1): None}

    def test_non_synopsis_state_cannot_reshard(self):
        payload = stateship.capture({"state": {"k1": 3, "k2": 5}})
        with pytest.raises(ExecutionError, match="not a mergeable synopsis"):
            reshard_states(
                self._topology(), {("latency", 0): payload}, {"latency": 2}
            )

    def test_untouched_bolts_pass_through(self):
        source = HyperLogLog(precision=10)
        source.update("only")
        payload = self._payload(source)
        states, strategies = reshard_states(
            self._topology(),
            {("audience", 0): payload, ("hot_keys", 0): b"opaque"},
            {"audience": 2},
        )
        assert strategies == {"audience": STRATEGY_SPLIT}
        assert states[("hot_keys", 0)] == b"opaque"

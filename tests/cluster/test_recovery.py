"""Worker-crash recovery and the delivery-semantics ladder, cluster-wide.

One suite, three rungs (Table 2 of the paper's systems comparison):

* ``at_most_once`` + lossy transport — some records simply vanish;
  merged counts are a subset of the sequential run's.
* ``at_least_once`` + lossy transport — lost deliveries replay until the
  tuple tree completes; merged counts dominate the sequential run's
  (duplicates allowed, loss not).
* ``exactly_once`` + a worker crash — checkpoint/rollback recovery; the
  merged state is **bit-identical** to a crash-free sequential run.
"""

import pytest

from repro.bench.fingerprint import state_fingerprint
from repro.cluster.coordinator import ClusterExecutor
from repro.obs.context import Observability
from repro.obs.demo import build_demo_topology, demo_records
from repro.platform.executor import LocalExecutor
from repro.platform.faults import FaultInjector

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


class TestExactlyOnceCrash:
    def test_crash_recovery_is_bit_identical(self, records, reference):
        ref_fingerprint, ref_counts = reference
        with ClusterExecutor(
            build_demo_topology(records),
            n_workers=2,
            semantics="exactly_once",
            checkpoint_interval=100,
            worker_faults={1: FaultInjector(crash_after=250, seed=3)},
        ) as executor:
            metrics = executor.run()
            merged = executor.merged_synopsis("sketch")
            counts = _merged_counts(executor)
        summary = metrics.summary()
        assert summary["recoveries"] >= 1  # the crash actually happened
        assert summary["checkpoints"] >= 1
        assert state_fingerprint(merged) == ref_fingerprint
        assert counts == ref_counts

    def test_loss_triggers_rollback_and_still_exact(self, records, reference):
        __, ref_counts = reference
        with ClusterExecutor(
            build_demo_topology(records),
            n_workers=2,
            semantics="exactly_once",
            # Loss is repaired by *global rollback*, so the drop rate must
            # stay well below one expected drop per inter-checkpoint
            # segment or the run cannot make progress past a checkpoint.
            checkpoint_interval=50,
            worker_faults={0: FaultInjector(drop_probability=0.0008, seed=11)},
        ) as executor:
            metrics = executor.run()
            counts = _merged_counts(executor)
        assert metrics.summary()["recoveries"] >= 1  # at least one loss fired
        assert counts == ref_counts


def _traced_crash_run(records, semantics):
    obs = Observability.create(sample_rate=1.0, seed=7)
    with ClusterExecutor(
        build_demo_topology(records),
        n_workers=2,
        semantics=semantics,
        checkpoint_interval=100,
        worker_faults={1: FaultInjector(crash_after=250, seed=3)},
        obs=obs,
    ) as executor:
        metrics = executor.run()
    assert metrics.summary()["recoveries"] >= 1
    return executor, obs.collector


class TestTracesAcrossRecovery:
    """Sampling is keyed by source record, not root: a record replayed
    after a crash resumes its own trace with the next attempt number."""

    @pytest.mark.parametrize("semantics", ["at_least_once", "exactly_once"])
    def test_replays_resume_their_trace(self, records, semantics):
        __, collector = _traced_crash_run(records, semantics)
        trace_ids = collector.trace_ids()
        assert len(trace_ids) == len(records)  # one trace per source record
        assert max(collector.attempts(t) for t in trace_ids) > 1

    def test_rollback_strands_no_trace_root(self, records):
        executor, __ = _traced_crash_run(records, "exactly_once")
        # Every traced root was acked or dropped by the rollback's rewind.
        assert executor._ledger._trace_roots == {}


class TestAtLeastOnceLoss:
    def test_replays_dominate_the_reference(self, records, reference):
        __, ref_counts = reference
        with ClusterExecutor(
            build_demo_topology(records),
            n_workers=2,
            semantics="at_least_once",
            worker_faults={0: FaultInjector(drop_probability=0.01, seed=5)},
        ) as executor:
            metrics = executor.run()
            counts = _merged_counts(executor)
        assert metrics.summary()["replays"] >= 1
        # no key under-counts; replays may over-count (duplicates allowed)
        for key, expected in ref_counts.items():
            assert counts.get(key, 0) >= expected
        assert sum(counts.values()) >= sum(ref_counts.values())

    def test_crash_without_checkpoints_completes(self, records):
        # Storm without Trident: the dead worker's state is gone, but the
        # run must still finish and report the recovery.
        with ClusterExecutor(
            build_demo_topology(records),
            n_workers=2,
            semantics="at_least_once",
            worker_faults={1: FaultInjector(crash_after=250, seed=3)},
        ) as executor:
            metrics = executor.run()
            executor.bolt_states("count")  # queryable after recovery
        assert metrics.summary()["recoveries"] >= 1


class TestAtMostOnceLoss:
    def test_losses_are_silent_undercounts(self, records, reference):
        __, ref_counts = reference
        with ClusterExecutor(
            build_demo_topology(records),
            n_workers=2,
            semantics="at_most_once",
            worker_faults={0: FaultInjector(drop_probability=0.05, seed=5)},
        ) as executor:
            metrics = executor.run()
            counts = _merged_counts(executor)
        assert metrics.summary()["replays"] == 0  # nothing replays
        # no key over-counts; drops silently shrink totals
        for key, observed in counts.items():
            assert observed <= ref_counts.get(key, 0)
        assert sum(counts.values()) < sum(ref_counts.values())

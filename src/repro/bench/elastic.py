"""The elasticity bench: does autoscaling beat fixed provisioning?

``repro-bench --elastic`` drives the seeded traffic-spike workload
(:mod:`repro.workloads.spike`) through two arms of one case over
*identical* records:

* ``fixed`` — a :class:`ClusterExecutor` frozen at the starting shape
  (1 worker, parallelism 1): the "provisioned for the calm" cluster the
  paper's spike scenario punishes;
* ``elastic`` — the same cluster started identically but running a
  :class:`~repro.cluster.elastic.autoscaler.BackpressureAutoscaler`,
  which must ride the spike up to ``max_workers`` and hand capacity back
  in the tail (the canonical 1→8→2 trajectory).

Each arm is timed from ``run()`` through the merged-state read to the
closed worker set. ``ratio(payload, "spike_topology", "fixed",
"elastic")`` is what elasticity bought: elastic wins exactly when the
work reduction from splitting the quantile shards outruns the rescale
overhead it paid. The elastic row's ``detail`` quantifies that overhead
from the last repeat's rescale reports: ``rescale_latency_s`` (worst
single rescale, barrier to restore), ``tuples_in_flight`` (worst backlog
a migration barrier had to drain), ``lag_recovery_s`` (how long the
watermark backlog took to fall back under 10% of its post-rescale peak).

``equivalent`` is the exactly-once elasticity contract: in every repeat
of both arms the merged synopsis of every tracked bolt — after every
live re-sharding — must fingerprint-match a single-process
:class:`LocalExecutor` run. A rescale schedule is an implementation
detail; the answer is not allowed to notice it.

:func:`run_spike_demo` is the same elastic run packaged as a pass/fail
gate (trajectory reached ``max_workers``, scaled back down, fingerprints
matched, zero leaked shm segments) for CI's ``elastic-smoke`` job.
"""

from __future__ import annotations

from typing import Any

from repro.bench.fingerprint import state_fingerprint
from repro.bench.runner import arm_row, make_payload, measure
from repro.cluster.coordinator import ClusterExecutor
from repro.cluster.elastic import BackpressureAutoscaler, PressurePolicy
from repro.cluster.shm import leaked_segments
from repro.common.exceptions import ParameterError
from repro.obs.context import Observability
from repro.platform.executor import LocalExecutor
from repro.workloads.spike import (
    SPIKE_TRACKED_BOLTS,
    build_spike_topology,
    spike_records,
)

#: The synopsis bolts whose merged state must survive rescaling intact.
SPIKE_SYNOPSES = ("hot_keys", "audience", "latency")

#: Executor shape shared by the fixed and elastic runs (and the demo):
#: small batches and a tight credit window keep the pressure signals
#: responsive at 1 worker; the window scales with rescales (see
#: ``repro.cluster.elastic.migrate._rewire``).
_EXECUTOR_KW: dict[str, Any] = {
    "semantics": "exactly_once",
    "batch_size": 64,
    "max_outstanding": 8,
    "checkpoint_interval": 4_000,
}


def demo_policy(
    min_workers: int = 2, max_workers: int = 8
) -> PressurePolicy:
    """The tuned spike policy: fast up, deliberate down, short cooldown."""
    return PressurePolicy(
        min_workers=min_workers,
        max_workers=max_workers,
        up_consecutive=2,
        down_consecutive=4,
        cooldown_ticks=2,
        track_parallelism=SPIKE_TRACKED_BOLTS,
    )


def _fingerprints(synopses: dict[str, Any]) -> dict[str, str]:
    return {name: state_fingerprint(synopses[name]) for name in SPIKE_SYNOPSES}


def _reference_fingerprints(records: list, amplify: int) -> dict[str, str]:
    """Single-process ground truth for every tracked synopsis."""
    executor = LocalExecutor(build_spike_topology(records, amplify=amplify))
    executor.run()
    return _fingerprints(
        {name: executor.bolt_instances(name)[0].synopsis for name in SPIKE_SYNOPSES}
    )


def _cluster(
    records: list,
    amplify: int,
    policy: PressurePolicy | None = None,
    tick_every: int = 8,
    flight_path: str | None = None,
) -> ClusterExecutor:
    """A 1-worker spike cluster; autoscaled by *policy* when given."""
    if policy is None:
        return ClusterExecutor(
            build_spike_topology(records, amplify=amplify),
            n_workers=1,
            **_EXECUTOR_KW,
        )
    return ClusterExecutor(
        build_spike_topology(records, amplify=amplify),
        n_workers=1,
        obs=Observability.create(sample_rate=0),
        autoscaler=BackpressureAutoscaler(policy, tick_every=tick_every),
        flight_path=flight_path,
        **_EXECUTOR_KW,
    )


def _run_to_close(executor: ClusterExecutor) -> tuple[dict[str, Any], list]:
    """Run *executor* to completion, read its merged tracked synopses and
    rescale reports, and close it (the timed part of one arm)."""
    with executor:
        executor.run()
        merged = {name: executor.merged_synopsis(name) for name in SPIKE_SYNOPSES}
        return merged, list(executor.rescale_reports)


def _trajectory(reports: list) -> dict[str, Any]:
    """Worker-count path and worst-case overheads of one autoscaled run."""
    path = [1] + [report.to_workers for report in reports]
    recoveries = [
        report.lag_recovery_s
        for report in reports
        if report.lag_recovery_s is not None
    ]
    return {
        "workers_path": path,
        "rescales": len(reports),
        "peak_workers": max(path),
        "final_workers": path[-1],
        "rescale_latency_s": max(
            (report.total_s for report in reports), default=0.0
        ),
        "tuples_in_flight": max(
            (report.in_flight_at_request for report in reports), default=0
        ),
        "lag_recovery_s": max(recoveries, default=0.0),
    }


def run_spike_demo(
    n_calm: int = 3_000,
    n_spike: int = 10_000,
    n_tail: int = 8_000,
    seed: int = 7,
    amplify: int = 48,
    min_workers: int = 2,
    max_workers: int = 8,
    tick_every: int = 8,
    flight_path: str | None = None,
) -> dict[str, Any]:
    """Run the autoscaled spike end to end and report the gate verdict.

    ``passed`` requires the full elasticity story in one run: the cluster
    reached ``max_workers`` under the spike, handed capacity back down to
    ``min_workers`` in the tail, kept every merged synopsis
    fingerprint-identical to the single-process reference, and left zero
    shm segments behind. CI's ``elastic-smoke`` job calls this with a
    smaller workload and ``max_workers=4`` (the 1→4→2 trajectory).
    """
    if max_workers < min_workers:
        raise ParameterError("max_workers must be >= min_workers")
    records = spike_records(
        n_calm=n_calm, n_spike=n_spike, n_tail=n_tail, seed=seed
    )
    reference = _reference_fingerprints(records, amplify)
    executor = _cluster(
        records,
        amplify,
        demo_policy(min_workers=min_workers, max_workers=max_workers),
        tick_every,
        flight_path=flight_path,
    )
    [seconds], [(merged, reports)] = measure(_run_to_close, 1, lambda: executor)
    if flight_path is not None and executor.flight is not None:
        # The crash path dumps automatically; a clean demo run dumps here
        # so CI always gets the rescale/autoscale event timeline.
        executor.flight.dump(flight_path, reason="demo")
    outcome = {
        "seconds": seconds,
        "equivalent": _fingerprints(merged) == reference,
        **_trajectory(reports),
        "leaked_segments": [seg.name for seg in leaked_segments()],
    }
    outcome["passed"] = (
        outcome["equivalent"]
        and outcome["peak_workers"] == max_workers
        and outcome["final_workers"] == min_workers
        and not outcome["leaked_segments"]
    )
    return outcome


def run_elastic_bench(
    n_calm: int = 3_000,
    n_spike: int = 10_000,
    n_tail: int = 8_000,
    seed: int = 7,
    amplify: int = 48,
    max_workers: int = 8,
    repeats: int = 3,
    smoke: bool = False,
) -> dict:
    """Fixed vs elastic over the spike; returns a ``repro.bench/v3`` payload."""
    for name, count in (
        ("n_calm", n_calm),
        ("n_spike", n_spike),
        ("n_tail", n_tail),
        ("amplify", amplify),
    ):
        if count <= 0:
            raise ParameterError(f"{name} must be positive")
    records = spike_records(
        n_calm=n_calm, n_spike=n_spike, n_tail=n_tail, seed=seed
    )
    reference = _reference_fingerprints(records, amplify)
    policy = demo_policy(max_workers=max_workers)
    arms = {
        "fixed": measure(
            _run_to_close, repeats, lambda: _cluster(records, amplify)
        ),
        "elastic": measure(
            _run_to_close, repeats, lambda: _cluster(records, amplify, policy)
        ),
    }
    results = []
    for arm, (seconds, outcomes) in arms.items():
        equivalent = all(_fingerprints(merged) == reference for merged, __ in outcomes)
        detail = None
        if arm == "elastic":
            detail = {
                **_trajectory(outcomes[-1][1]),
                "leaked_segments": len(leaked_segments()),
            }
        results.append(
            arm_row(
                "spike_topology",
                arm,
                "spike/exactly_once",
                len(records),
                seconds,
                equivalent,
                detail,
            )
        )
    config = {
        "n_items": len(records),
        "repeats": repeats,
        "seed": seed,
        "smoke": smoke,
        "n_calm": n_calm,
        "n_spike": n_spike,
        "n_tail": n_tail,
        "amplify": amplify,
        "max_workers": max_workers,
    }
    return make_payload("elastic", config, results)

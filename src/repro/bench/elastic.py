"""The elasticity bench: does autoscaling beat fixed provisioning?

``repro-bench --elastic`` drives the seeded traffic-spike workload
(:mod:`repro.workloads.spike`) through two clusters over *identical*
records:

* **fixed** — a :class:`ClusterExecutor` frozen at the starting shape
  (1 worker, parallelism 1): the "provisioned for the calm" cluster the
  paper's spike scenario punishes;
* **elastic** — the same cluster started identically but running a
  :class:`~repro.cluster.elastic.autoscaler.BackpressureAutoscaler`,
  which must ride the spike up to ``max_workers`` and hand capacity back
  in the tail (the canonical 1→8→2 trajectory).

The row is ``repro.bench/v2``: ``seq_*`` is the fixed run, ``batch_*``
the elastic run, ``speedup`` their ratio — elastic wins exactly when the
work reduction from splitting the quantile shards outruns the rescale
overhead it paid. The elastic extras quantify that overhead per the
rescale reports: ``rescale_latency_s`` (worst single rescale, barrier to
restore), ``tuples_in_flight`` (worst backlog a migration barrier had to
drain), ``lag_recovery_s`` (how long the watermark backlog took to fall
back under 10% of its post-rescale peak).

``equivalent`` is the exactly-once elasticity contract: the merged
synopsis of every tracked bolt — after five live re-shardings — must
fingerprint-match a single-process :class:`LocalExecutor` run, and the
fixed run must match it too. A rescale schedule is an implementation
detail; the answer is not allowed to notice it.

:func:`run_spike_demo` is the same elastic run packaged as a pass/fail
gate (trajectory reached ``max_workers``, scaled back down, fingerprints
matched, zero leaked shm segments) for CI's ``elastic-smoke`` job.
"""

from __future__ import annotations

import time
from typing import Any

from repro.bench.fingerprint import state_fingerprint
from repro.bench.runner import BENCH_SCHEMA_V2, available_cpu_count
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


def _reference_fingerprints(records: list, amplify: int) -> dict[str, str]:
    """Single-process ground truth for every tracked synopsis."""
    executor = LocalExecutor(build_spike_topology(records, amplify=amplify))
    executor.run()
    return {
        name: state_fingerprint(executor.bolt_instances(name)[0].synopsis)
        for name in SPIKE_SYNOPSES
    }


def _fixed_run(
    records: list, amplify: int, reference: dict[str, str]
) -> tuple[float, bool]:
    """Fixed-at-start-shape wall time + equivalence to the reference."""
    executor = ClusterExecutor(
        build_spike_topology(records, amplify=amplify),
        n_workers=1,
        **_EXECUTOR_KW,
    )
    with executor:
        start = time.perf_counter()
        executor.run()
        seconds = time.perf_counter() - start
        fingerprints = {
            name: state_fingerprint(executor.merged_synopsis(name))
            for name in SPIKE_SYNOPSES
        }
    return seconds, fingerprints == reference


def _elastic_run(
    records: list,
    amplify: int,
    reference: dict[str, str],
    policy: PressurePolicy,
    tick_every: int,
    flight_path: str | None = None,
) -> dict[str, Any]:
    """One autoscaled run; returns timings, trajectory and gate facts."""
    scaler = BackpressureAutoscaler(policy, tick_every=tick_every)
    executor = ClusterExecutor(
        build_spike_topology(records, amplify=amplify),
        n_workers=1,
        obs=Observability.create(sample_rate=0),
        autoscaler=scaler,
        flight_path=flight_path,
        **_EXECUTOR_KW,
    )
    with executor:
        start = time.perf_counter()
        executor.run()
        seconds = time.perf_counter() - start
        fingerprints = {
            name: state_fingerprint(executor.merged_synopsis(name))
            for name in SPIKE_SYNOPSES
        }
        reports = list(executor.rescale_reports)
    if flight_path is not None and executor.flight is not None:
        # The crash path dumps automatically; a clean demo run dumps here
        # so CI always gets the rescale/autoscale event timeline.
        executor.flight.dump(flight_path, reason="demo")
    path = [1] + [report.to_workers for report in reports]
    recoveries = [
        report.lag_recovery_s
        for report in reports
        if report.lag_recovery_s is not None
    ]
    return {
        "seconds": seconds,
        "equivalent": fingerprints == reference,
        "workers_path": path,
        "reports": [report.to_dict() for report in reports],
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
        "leaked_segments": [seg.name for seg in leaked_segments()],
        "autoscaler": scaler.describe(),
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
    outcome = _elastic_run(
        records,
        amplify,
        reference,
        demo_policy(min_workers=min_workers, max_workers=max_workers),
        tick_every,
        flight_path=flight_path,
    )
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
    smoke: bool = False,
) -> dict:
    """Fixed vs elastic over the spike; returns a ``repro.bench/v2`` payload."""
    for name, count in (
        ("n_calm", n_calm),
        ("n_spike", n_spike),
        ("n_tail", n_tail),
    ):
        if count <= 0:
            raise ParameterError(f"{name} must be positive")
    if amplify <= 0:
        raise ParameterError("amplify must be positive")
    records = spike_records(
        n_calm=n_calm, n_spike=n_spike, n_tail=n_tail, seed=seed
    )
    reference = _reference_fingerprints(records, amplify)
    fixed_seconds, fixed_equivalent = _fixed_run(records, amplify, reference)
    elastic = _elastic_run(
        records,
        amplify,
        reference,
        demo_policy(max_workers=max_workers),
        tick_every=8,
    )
    n_items = len(records)
    trajectory = "→".join(str(w) for w in elastic["workers_path"])
    row = {
        "synopsis": f"elastic[{trajectory}]",
        "workload": "spike/exactly_once",
        "n_items": n_items,
        # seq_* = fixed at the starting shape, batch_* = autoscaled run
        # over the same records; speedup = what elasticity bought.
        "seq_seconds": fixed_seconds,
        "batch_seconds": elastic["seconds"],
        "seq_items_per_s": n_items / fixed_seconds,
        "batch_items_per_s": n_items / elastic["seconds"],
        "speedup": fixed_seconds / elastic["seconds"],
        "equivalent": fixed_equivalent and elastic["equivalent"],
        "rescales": elastic["rescales"],
        "peak_workers": elastic["peak_workers"],
        "final_workers": elastic["final_workers"],
        "rescale_latency_s": elastic["rescale_latency_s"],
        "tuples_in_flight": elastic["tuples_in_flight"],
        "lag_recovery_s": elastic["lag_recovery_s"],
        "leaked_segments": len(elastic["leaked_segments"]),
        "n_cores": available_cpu_count(),
    }
    return {
        "schema": BENCH_SCHEMA_V2,
        "config": {
            "n_items": n_items,
            "repeats": 1,
            "seed": seed,
            "smoke": smoke,
            "mode": "elastic-spike",
            "n_calm": n_calm,
            "n_spike": n_spike,
            "n_tail": n_tail,
            "amplify": amplify,
            "max_workers": max_workers,
            "n_cores": available_cpu_count(),
        },
        "results": [row],
    }

"""``repro-cluster`` / ``python -m repro.cluster`` entry point.

Runs the obs demo topology (words → split → keyed count + sketch) across
N worker processes, optionally crashing one mid-run, and prints:

* the shard plan (which worker owns which task),
* the run summary (throughput, replays, checkpoints, recoveries),
* the merged top-k from the sketch bolt's shard partials (merge-on-query),
* a cross-check against the single-process ``LocalExecutor`` — the merged
  Count-Min/HLL/Space-Saving fingerprints must match bit-for-bit,
* a transport summary (bytes and frames over the shm rings) and a
  ``/dev/shm`` leak audit — any segment this process failed to unlink
  makes the run exit non-zero.

CI's ``cluster-smoke`` job runs exactly this with two
workers and an injected crash under exactly-once semantics: the demo
recovering, still fingerprint-matching the sequential run, and leaving
``/dev/shm`` clean is the subsystem's end-to-end proof.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.fingerprint import state_fingerprint
from repro.cluster.coordinator import ClusterExecutor
from repro.cluster.shm import leaked_segments
from repro.obs.context import Observability
from repro.obs.demo import build_demo_topology, demo_records
from repro.platform.executor import LocalExecutor
from repro.platform.faults import FaultInjector


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-cluster`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-cluster",
        description="Run the demo topology across N worker processes.",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="worker processes (default: %(default)s)",
    )
    parser.add_argument(
        "--records",
        type=int,
        default=2_000,
        help="source sentences to stream (default: %(default)s)",
    )
    parser.add_argument(
        "--semantics",
        choices=("at_most_once", "at_least_once", "exactly_once"),
        default="exactly_once",
        help="delivery semantics (default: %(default)s)",
    )
    parser.add_argument(
        "--crash-worker",
        type=int,
        default=None,
        metavar="W",
        help="inject a one-shot crash into worker W mid-run",
    )
    parser.add_argument(
        "--crash-after",
        type=int,
        default=400,
        help="tuples processed on the crashing worker before it dies "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--checkpoint-interval",
        type=int,
        default=500,
        help="spout tuples between checkpoints (default: %(default)s)",
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="workload seed (default: %(default)s)"
    )
    parser.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the single-process fingerprint cross-check",
    )
    parser.add_argument(
        "--telemetry-interval",
        type=float,
        default=None,
        metavar="S",
        help="worker telemetry flush period in seconds (default: the obs "
        "plane default; 0 disables live telemetry)",
    )
    parser.add_argument(
        "--flight",
        metavar="PATH",
        default=None,
        help="dump the flight recorder (JSON lines) here on worker crash "
        "or fingerprint mismatch",
    )
    parser.add_argument(
        "--health-log",
        metavar="PATH",
        default=None,
        help="append health snapshots (JSON lines) here as the run "
        "progresses — `repro-obs top --snapshots PATH` renders them",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the demo; exit non-zero when the cluster/sequential states differ."""
    args = build_parser().parse_args(argv)
    records = demo_records(args.records, args.seed)
    obs = Observability.create(sample_rate=0.05, seed=args.seed)
    topology = build_demo_topology(records)

    worker_faults = None
    if args.crash_worker is not None:
        worker_faults = {
            args.crash_worker: FaultInjector(crash_after=args.crash_after, seed=args.seed)
        }

    executor = ClusterExecutor(
        topology,
        n_workers=args.workers,
        semantics=args.semantics,
        checkpoint_interval=args.checkpoint_interval,
        worker_faults=worker_faults,
        obs=obs,
        telemetry_interval=args.telemetry_interval,
        flight_path=args.flight,
        health_log=args.health_log,
    )
    print(executor.plan.describe())
    with executor:
        metrics = executor.run()
        merged = executor.merged_synopsis("sketch")
        stats = dict(executor.transport_stats)
    # Post-close snapshot: the workers' final forced flushes have been
    # absorbed, so watermarks and totals are settled.
    health = executor.last_health
    summary = metrics.summary()
    print(
        f"\nrun: {summary['throughput_tps']} tuples/s, "
        f"replays={summary['replays']} checkpoints={summary['checkpoints']} "
        f"recoveries={summary['recoveries']}"
    )
    print(
        f"transport: {stats['transport']} — "
        f"{stats['data_bytes_shm']} B over shm rings "
        f"({stats['data_frames']} frames), "
        f"{stats['backpressure_waits']} backpressure waits"
    )
    if health is not None:
        flushes = sum(w.flushes for w in health.workers)
        print(
            f"telemetry: {flushes} flushes absorbed "
            f"(interval {executor.telemetry_interval}s), "
            f"max operator lag {health.max_lag():.0f}, "
            f"peak ring occupancy {health.max_ring_occupancy() * 100:.1f}%"
        )

    # Teardown audit: every shared-memory segment this process created
    # must be unlinked by now — a leak here is a bug even when the run
    # itself succeeded (CI's shm-smoke job fails on it).
    leaked = leaked_segments()
    if leaked:
        print(f"LEAKED shm segments: {leaked}")
        return 1
    print(f"merged uniques ≈ {merged['uniques'].estimate():.0f}")
    print("merged top-5:", [k for k, __ in merged["topk"].top(5)])

    if args.no_verify:
        return 0

    # Cross-check: the merged shard partials must equal the single-process
    # run's state bit-for-bit (same topology, same records).
    local = LocalExecutor(build_demo_topology(records), semantics="at_most_once")
    local.run()
    reference = local.bolt_instances("sketch")[0].synopsis
    matches = state_fingerprint(merged) == state_fingerprint(reference)
    print(f"fingerprint vs single-process: {'MATCH' if matches else 'MISMATCH'}")
    if not matches and executor.flight is not None and args.flight:
        # The other dump trigger besides a crash: wrong answers deserve a
        # post-mortem artifact too.
        executor.flight.record_event("mismatch", {"bolt": "sketch"})
        executor.flight.dump(args.flight, reason="mismatch")
        print(f"flight recorder dumped to {args.flight}")
    return 0 if matches else 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())

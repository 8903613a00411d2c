"""``python -m repro.serving.smoke`` — the CI serving-smoke gate.

Boots the serving demo topology behind the asyncio server on an
ephemeral port, fires one seeded closed-loop query burst at it while
ingest runs underneath, and exits non-zero unless every contract holds:

* zero query errors across the burst;
* a **non-zero cache hit count** (the seeded Zipf mix must re-ask);
* clean shutdown — no pending asyncio tasks survive ``stop()``;
* under ``--executor cluster``, background ingest finishes without an
  error and no ``repro_shm_*`` segment leaks.

``--health-log`` appends a final :class:`HealthSnapshot` as JSON lines,
so CI can render the run through ``repro-obs top --snapshots --once``
and upload the dashboard text as an artifact.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path

from repro.serving.cli import build_runtime
from repro.serving.demo import SERVING_BOLT
from repro.serving.runtime import ServingRuntime
from repro.serving.server import ServingServer
from repro.workloads.serving import WorkloadResult, run_closed_loop


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the serving-smoke gate."""
    parser = argparse.ArgumentParser(
        prog="repro-serving-smoke",
        description="Closed-loop serving burst with hard CI assertions.",
    )
    parser.add_argument("--records", type=int, default=4_000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--users", type=int, default=4)
    parser.add_argument("--queries", type=int, default=40, metavar="PER_USER")
    parser.add_argument("--executor", choices=("local", "cluster"), default="local")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--bolt", default=SERVING_BOLT)
    parser.add_argument("--cache-capacity", type=int, default=4_096)
    parser.add_argument("--cache-ttl", type=float, default=5.0)
    parser.add_argument("--max-snapshot-age", type=float, default=0.25)
    parser.add_argument("--health-log", type=Path, default=None)
    return parser


async def _burst(
    runtime: ServingRuntime, args: argparse.Namespace
) -> tuple[WorkloadResult, dict, list[str]]:
    """Serve one closed-loop burst; returns (result, health, leaked tasks)."""
    server = ServingServer(runtime)
    await server.start(ingest=True)
    result = await run_closed_loop(
        "127.0.0.1",
        server.port,
        n_users=args.users,
        queries_per_user=args.queries,
        seed=args.seed,
    )
    health = runtime.health_snapshot(reason="smoke").to_dict()
    await server.stop()
    leaked = [
        repr(task)
        for task in asyncio.all_tasks()
        if task is not asyncio.current_task() and not task.done()
    ]
    return result, health, leaked


def main(argv: list[str] | None = None) -> int:
    """Run one burst; return 0 only if every CI contract held."""
    args = build_parser().parse_args(argv)
    runtime = build_runtime(args)
    failures: list[str] = []
    try:
        result, health, leaked_tasks = asyncio.run(_burst(runtime, args))
    finally:
        # Always reap the cluster, even when the burst itself blew up —
        # orphaned worker processes would hang the CI job at exit.
        if args.executor == "cluster":
            runtime.join_ingest(timeout=60.0)
            if runtime.ingest_error is not None:
                failures.append(
                    f"background ingest died: {runtime.ingest_error!r}"
                )
            runtime.executor.close()
            from repro.cluster.shm import leaked_segments

            leaked_shm = leaked_segments()
            if leaked_shm:
                failures.append(f"leaked shm segments: {leaked_shm}")
    if result.n_errors:
        failures.append(f"{result.n_errors} query errors in the burst")
    if result.n_cached == 0:
        failures.append("no cache hits in a Zipf-skewed seeded burst")
    if leaked_tasks:
        failures.append(f"tasks survived server.stop(): {leaked_tasks}")

    if args.health_log is not None:
        with args.health_log.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(health, sort_keys=True) + "\n")

    print(
        f"serving-smoke [{args.executor}] {result.n_queries} queries from "
        f"{result.n_users} users: {result.qps:.0f} q/s, "
        f"hit ratio {result.cache_hit_ratio * 100:.0f}%, "
        f"p50 {result.latency_quantile(0.5) * 1e3:.2f}ms, "
        f"p99 {result.latency_quantile(0.99) * 1e3:.2f}ms, "
        f"epochs {sorted(result.epochs)}"
    )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("serving-smoke OK")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

"""``repro-serving`` / ``python -m repro.serving`` entry point.

Boots the demo topology (seeded Zipf word sentences → split → sketch
summary) under either executor, fronts it with a
:class:`~repro.serving.server.ServingServer`, prints the bound
endpoint, and serves until the duration elapses (or forever). Pair it
with ``repro-obs top --snapshots <health-log> --once`` to render the
serving health view, or just curl it::

    repro-serving --records 20000 --port 8787 &
    curl -s localhost:8787/query -d '{"op": "topk", "k": 3, "synopsis": "topk"}'
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path

from repro.obs.context import Observability
from repro.serving.demo import build_serving_topology, demo_records
from repro.serving.runtime import DEFAULT_MAX_SNAPSHOT_AGE, ServingRuntime
from repro.serving.server import ServingServer


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-serving`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-serving",
        description="Serve point/range/top-k/cardinality queries over a "
        "live demo topology.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=0, help="bind port (default: ephemeral)"
    )
    parser.add_argument(
        "--records",
        type=int,
        default=20_000,
        help="source sentences to ingest (default: %(default)s)",
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="workload seed (default: %(default)s)"
    )
    parser.add_argument(
        "--executor",
        choices=("local", "cluster"),
        default="local",
        help="run the topology in-process or across worker processes",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="cluster workers (default: %(default)s)",
    )
    parser.add_argument(
        "--bolt",
        default="sketch",
        help="which bolt's merged synopsis to serve (default: %(default)s)",
    )
    parser.add_argument(
        "--cache-capacity", type=int, default=4096, help="result-cache entries"
    )
    parser.add_argument(
        "--cache-ttl", type=float, default=2.0, help="result-cache TTL seconds"
    )
    parser.add_argument(
        "--max-snapshot-age",
        type=float,
        default=DEFAULT_MAX_SNAPSHOT_AGE,
        help="staleness bound before a query re-captures (default: %(default)s)",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=None,
        help="serve for N seconds then exit cleanly (default: forever)",
    )
    parser.add_argument(
        "--health-log",
        metavar="PATH",
        default=None,
        help="append serving HealthSnapshot JSON lines here "
        "(render with `repro-obs top --snapshots PATH`)",
    )
    parser.add_argument(
        "--health-interval",
        type=float,
        default=0.5,
        help="health-log flush period seconds (default: %(default)s)",
    )
    return parser


def build_runtime(args: argparse.Namespace) -> ServingRuntime:
    """The demo topology under the requested executor, serving-ready."""
    records = demo_records(args.records, args.seed)
    obs = Observability.create(sample_rate=0.0, seed=args.seed)
    topology = build_serving_topology(records, obs)
    if args.executor == "cluster":
        from repro.cluster.coordinator import ClusterExecutor

        executor = ClusterExecutor(
            topology,
            n_workers=args.workers,
            semantics="at_least_once",
            obs=obs,
        )
    else:
        from repro.platform.executor import LocalExecutor

        executor = LocalExecutor(topology, semantics="at_least_once", obs=obs)
    return ServingRuntime(
        executor,
        args.bolt,
        cache_capacity=args.cache_capacity,
        cache_ttl=args.cache_ttl,
        max_snapshot_age=args.max_snapshot_age,
        registry=obs.registry,
    )


async def _health_writer(
    runtime: ServingRuntime, path: Path, interval: float
) -> None:
    with path.open("a", encoding="utf-8") as fh:
        while True:
            snapshot = runtime.health_snapshot()
            fh.write(json.dumps(snapshot.to_dict()) + "\n")
            fh.flush()
            await asyncio.sleep(interval)


async def _serve(args: argparse.Namespace) -> int:
    runtime = build_runtime(args)
    server = ServingServer(runtime, host=args.host, port=args.port)
    await server.start()
    print(f"serving http://{args.host}:{server.port}  (bolt={args.bolt!r})")
    sys.stdout.flush()
    health_task = None
    if args.health_log:
        health_task = asyncio.ensure_future(
            _health_writer(runtime, Path(args.health_log), args.health_interval)
        )
    try:
        if args.duration is not None:
            await asyncio.sleep(args.duration)
        else:
            await asyncio.Event().wait()  # until interrupted
    except (KeyboardInterrupt, asyncio.CancelledError):
        pass
    finally:
        if health_task is not None:
            health_task.cancel()
            try:
                await health_task
            except asyncio.CancelledError:
                pass
        await server.stop()
        if runtime.blocking_capture:
            runtime.join_ingest(timeout=10.0)
            runtime.executor.close()
    if runtime.ingest_error is not None:
        print(f"ingest failed: {runtime.ingest_error}", file=sys.stderr)
        return 1
    stats = runtime.stats()
    print(
        f"served {stats['requests']} requests  epoch {stats['epoch']}  "
        f"cache hit ratio {stats['cache']['hit_ratio'] * 100:.1f}%"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    """Run the serving demo server."""
    args = build_parser().parse_args(argv)
    try:
        return asyncio.run(_serve(args))
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    raise SystemExit(main())

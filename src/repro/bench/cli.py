"""``repro-bench`` / ``python -m repro.bench`` entry point.

Runs the ingest-throughput suite, prints the human-readable table and
writes the schema-validated JSON payload. ``--smoke`` is the CI mode:
a tiny workload that still exercises every case, verifies the batch-ingest
invariant at runtime and validates the emitted schema. ``--obs`` switches
to the observability-overhead suite (:mod:`repro.bench.obs`): the demo
topology bare vs. instrumented, written to ``BENCH_obs.json`` by default.
``--cluster`` switches to the cluster-scaling suite
(:mod:`repro.bench.cluster`): the demo topology single-process vs. sharded
across worker processes at each ``--workers`` count, written to
``BENCH_cluster.json`` by default. ``--lint`` switches to the streamlint
suite (:mod:`repro.bench.lint`): full-tree analysis cold vs. warm cache ×
1 vs. auto jobs, written to ``BENCH_lint.json`` by default. ``--elastic``
switches to the elasticity suite (:mod:`repro.bench.elastic`): the spike
workload on a fixed cluster vs. one rescaled live by the backpressure
autoscaler, written to ``BENCH_elastic.json`` by default.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.bench.runner import format_table, run_bench, validate_payload

_DEFAULT_OUT = "BENCH_synopses.json"
_OBS_DEFAULT_OUT = "BENCH_obs.json"
_CLUSTER_DEFAULT_OUT = "BENCH_cluster.json"
_LINT_DEFAULT_OUT = "BENCH_lint.json"
_SERVING_DEFAULT_OUT = "BENCH_serving.json"
_ELASTIC_DEFAULT_OUT = "BENCH_elastic.json"


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-bench`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Sequential vs. batched synopsis ingest throughput.",
    )
    parser.add_argument(
        "--out",
        default=None,
        help=f"output JSON path (default: {_DEFAULT_OUT}, "
        f"or {_OBS_DEFAULT_OUT} with --obs)",
    )
    parser.add_argument(
        "--obs",
        action="store_true",
        help="measure observability overhead (bare vs. instrumented demo "
        "topology) instead of synopsis ingest",
    )
    parser.add_argument(
        "--cluster",
        action="store_true",
        help="measure cluster scaling (single-process vs. sharded demo "
        "topology) instead of synopsis ingest",
    )
    parser.add_argument(
        "--lint",
        action="store_true",
        help="measure streamlint full-tree analysis (cold vs. warm cache, "
        "1 vs. auto jobs) instead of synopsis ingest",
    )
    parser.add_argument(
        "--serving",
        action="store_true",
        help="measure the serving layer (closed-loop query workload over "
        "the live demo topology, cache off vs. on) instead of synopsis "
        "ingest",
    )
    parser.add_argument(
        "--elastic",
        action="store_true",
        help="measure elasticity (spike workload on a fixed cluster vs. "
        "one autoscaled live by backpressure) instead of synopsis ingest",
    )
    parser.add_argument(
        "--users",
        type=int,
        default=None,
        help="virtual users for --serving (default: 8, or 4 with --smoke)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        nargs="+",
        default=None,
        metavar="W",
        help="worker counts for --cluster (default: 1 2 4 8, or 1 2 with "
        "--smoke)",
    )
    parser.add_argument(
        "--items",
        type=int,
        default=None,
        help="items per workload (default: 100000, 20000 with --obs, or "
        "60000 with --cluster)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timed runs per path, best kept (default: %(default)s)",
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="workload seed (default: %(default)s)"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI mode: tiny workload, single repeat, schema check only",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the suite, print the table, write and validate the JSON."""
    args = build_parser().parse_args(argv)
    if args.serving:
        from repro.bench.serving import run_serving_bench

        n_items = 2_500 if args.smoke else (args.items or 12_000)
        n_users = args.users or (4 if args.smoke else 8)
        queries_per_user = 25 if args.smoke else 60
        payload = run_serving_bench(
            n_items=n_items,
            n_users=n_users,
            queries_per_user=queries_per_user,
            seed=args.seed,
            smoke=args.smoke,
        )
        validate_payload(payload)
        print(format_table(payload))
        rows = payload["results"]
        print(
            f"\nmachine: {payload['config']['n_cores']} core(s) — "
            f"cache hit ratio {max(r['cache_hit_ratio'] for r in rows) * 100:.0f}% "
            f"peak, p99 {min(r['p99_ms'] for r in rows):.2f}ms best; "
            "bit-identical cached/uncached replays is the invariant"
        )
        out_path = Path(args.out or _SERVING_DEFAULT_OUT)
        out_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out_path} ({len(payload['results'])} cases, schema OK)")
        return 0
    if args.elastic:
        from repro.bench.elastic import run_elastic_bench

        if args.smoke:
            payload = run_elastic_bench(
                n_calm=1_000,
                n_spike=3_000,
                n_tail=3_000,
                amplify=12,
                max_workers=4,
                seed=args.seed,
                smoke=True,
            )
        else:
            payload = run_elastic_bench(seed=args.seed)
        validate_payload(payload)
        print(format_table(payload))
        row = payload["results"][0]
        print(
            f"\nmachine: {payload['config']['n_cores']} core(s) — "
            f"{row['rescales']} live rescales ({row['synopsis']}), worst "
            f"rescale {row['rescale_latency_s'] * 1000:.0f}ms, lag "
            f"recovered in {row['lag_recovery_s']:.2f}s; merged-state "
            "equality across every rescale is the invariant"
        )
        out_path = Path(args.out or _ELASTIC_DEFAULT_OUT)
        out_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out_path} ({len(payload['results'])} cases, schema OK)")
        return 0
    if args.lint:
        from repro.bench.lint import run_lint_bench, warm_speedup

        repeats = 1 if args.smoke else args.repeats
        payload = run_lint_bench(
            repeats=repeats, seed=args.seed, smoke=args.smoke
        )
        validate_payload(payload)
        print(format_table(payload))
        print(
            f"\nmachine: {payload['config']['n_cores']} core(s) — warm "
            f"--jobs auto is {warm_speedup(payload):.2f}x the cold 1-job "
            "baseline; identical findings is the invariant"
        )
        out_path = Path(args.out or _LINT_DEFAULT_OUT)
        out_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out_path} ({len(payload['results'])} cases, schema OK)")
        return 0
    if args.cluster:
        from repro.bench.cluster import DEFAULT_WORKERS, run_cluster_bench

        n_items = 2_000 if args.smoke else (args.items or 60_000)
        repeats = 1 if args.smoke else args.repeats
        workers = tuple(
            args.workers
            if args.workers
            else ((1, 2) if args.smoke else DEFAULT_WORKERS)
        )
        payload = run_cluster_bench(
            n_items=n_items,
            repeats=repeats,
            seed=args.seed,
            smoke=args.smoke,
            workers=workers,
        )
        validate_payload(payload)
        print(format_table(payload))
        print(f"\nmachine: {payload['config']['n_cores']} core(s) — speedup "
              "is bounded by available cores; merged-state equality is the "
              "invariant")
        out_path = Path(args.out or _CLUSTER_DEFAULT_OUT)
        out_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out_path} ({len(payload['results'])} cases, schema OK)")
        return 0
    if args.obs:
        from repro.bench.obs import (
            cluster_overhead,
            overhead_at_default_rate,
            run_obs_bench,
        )

        n_items = 2_000 if args.smoke else (args.items or 20_000)
        repeats = 1 if args.smoke else args.repeats
        payload = run_obs_bench(
            n_items=n_items, repeats=repeats, seed=args.seed, smoke=args.smoke
        )
        validate_payload(payload)
        print(format_table(payload))
        overhead = overhead_at_default_rate(payload)
        print(f"\noverhead at default 1% sampling: {overhead * 100:+.1f}%")
        print(
            "cluster telemetry overhead at default interval: "
            f"{cluster_overhead(payload) * 100:+.1f}%"
        )
        out_path = Path(args.out or _OBS_DEFAULT_OUT)
        out_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out_path} ({len(payload['results'])} cases, schema OK)")
        return 0
    n_items = 2_000 if args.smoke else (args.items or 100_000)
    repeats = 1 if args.smoke else args.repeats
    payload = run_bench(
        n_items=n_items, repeats=repeats, seed=args.seed, smoke=args.smoke
    )
    validate_payload(payload)
    print(format_table(payload))
    out_path = Path(args.out or _DEFAULT_OUT)
    out_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {out_path} ({len(payload['results'])} cases, schema OK)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

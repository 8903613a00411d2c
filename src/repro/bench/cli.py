"""``repro-bench`` / ``python -m repro.bench`` entry point.

Runs one suite, prints its table and writes the validated
``repro.bench/v3`` payload. By default that is the synopsis-kernel suite
(:func:`repro.bench.runner.run_bench`, ``BENCH_synopses.json``);
``--lint`` switches to the streamlint suite (:mod:`repro.bench.lint`,
``BENCH_lint.json``) and ``--elastic`` to the elasticity suite
(:mod:`repro.bench.elastic`, ``BENCH_elastic.json``). ``--smoke`` is the
CI mode: a tiny workload and one repeat that still exercises every arm,
checks every arm's equivalence and validates the payload.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.bench.runner import format_table, run_bench, validate_payload

#: ``run_elastic_bench`` sizes for ``--elastic --smoke``.
_ELASTIC_SMOKE = {
    "n_calm": 1_000,
    "n_spike": 3_000,
    "n_tail": 3_000,
    "amplify": 12,
    "max_workers": 4,
}


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-bench`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Synopsis-kernel, streamlint and elasticity benches.",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output JSON path (default: BENCH_synopses.json, "
        "BENCH_lint.json with --lint, BENCH_elastic.json with --elastic)",
    )
    suite = parser.add_mutually_exclusive_group()
    suite.add_argument(
        "--lint",
        action="store_true",
        help="measure streamlint full-tree analysis (cold vs. warm cache, "
        "1 vs. auto jobs) instead of synopsis ingest",
    )
    suite.add_argument(
        "--elastic",
        action="store_true",
        help="measure elasticity (spike workload on a fixed cluster vs. "
        "one autoscaled live by backpressure) instead of synopsis ingest",
    )
    parser.add_argument(
        "--items",
        type=int,
        default=None,
        help="items per synopsis workload (default: 100000)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timed runs per arm, median kept (default: %(default)s)",
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="workload seed (default: %(default)s)"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI mode: tiny workload, single repeat, invariant + schema check",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the suite, print the table, write and validate the JSON."""
    args = build_parser().parse_args(argv)
    repeats = 1 if args.smoke else args.repeats
    if args.elastic:
        from repro.bench.elastic import run_elastic_bench

        sizes = _ELASTIC_SMOKE if args.smoke else {}
        payload = run_elastic_bench(
            seed=args.seed, repeats=repeats, smoke=args.smoke, **sizes
        )
        default_out = "BENCH_elastic.json"
    elif args.lint:
        from repro.bench.lint import run_lint_bench

        payload = run_lint_bench(repeats=repeats, seed=args.seed, smoke=args.smoke)
        default_out = "BENCH_lint.json"
    else:
        n_items = 2_000 if args.smoke else (args.items or 100_000)
        payload = run_bench(
            n_items=n_items, repeats=repeats, seed=args.seed, smoke=args.smoke
        )
        default_out = "BENCH_synopses.json"
    validate_payload(payload)
    print(format_table(payload))
    out_path = Path(args.out or default_out)
    out_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {out_path} ({len(payload['results'])} arms, schema OK)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

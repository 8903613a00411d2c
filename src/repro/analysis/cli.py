"""streamlint command line.

``python -m repro.analysis src/repro`` (or the ``repro-lint`` console
script) scans the given paths, prints findings, and exits by worst
surviving severity — the contract CI relies on:

* ``0`` — clean (or everything absorbed by the baseline / ``--exit-zero``)
* ``1`` — at least one error-severity finding
* ``2`` — usage error (missing path, unknown rule id, bad baseline)
* ``3`` — warnings only

``--select``/``--ignore`` narrow the rule set, ``--format json|sarif``
emit machine reports (``--sarif PATH`` additionally writes a SARIF file
next to the normal report for CI artifact upload), ``--jobs N|auto``
parallelises per-file analysis, ``--cache`` enables the mtime+hash
result cache, and ``.streamlint-baseline.json`` in the working directory
is honoured automatically (``--no-baseline`` opts out,
``--write-baseline`` regenerates it from the current findings).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis.baseline import (
    DEFAULT_BASELINE_NAME,
    load_baseline,
    write_baseline,
)
from repro.analysis.cache import DEFAULT_CACHE_NAME
from repro.analysis.engine import all_rules, run_analysis
from repro.analysis.findings import Severity
from repro.analysis.reporters import REPORTERS, render_sarif
from repro.common.cpus import available_cpu_count


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-lint`` argument parser (exposed for --help snapshots)."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "streamlint: static analysis for streaming correctness "
            "(seeded randomness, mergeable synopses, registry coverage, "
            "cluster/obs/serialization safety)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to scan (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=sorted(REPORTERS),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        action="append",
        metavar="RULE",
        help="run only these rule ids (repeatable, e.g. --select SL001)",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        metavar="RULE",
        help="skip these rule ids (repeatable)",
    )
    parser.add_argument(
        "--jobs",
        default="1",
        metavar="N",
        help="worker processes for per-file analysis: a number or 'auto'",
    )
    parser.add_argument(
        "--cache",
        nargs="?",
        const=DEFAULT_CACHE_NAME,
        default=None,
        metavar="PATH",
        help=(
            "enable the mtime+hash result cache "
            f"(default path: {DEFAULT_CACHE_NAME})"
        ),
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help=(
            "baseline file of accepted findings "
            f"(default: {DEFAULT_BASELINE_NAME} in the working directory, "
            "when present)"
        ),
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write the current findings to the baseline file and exit 0",
    )
    parser.add_argument(
        "--sarif",
        default=None,
        metavar="PATH",
        help="also write a SARIF 2.1.0 report to PATH (CI artifact upload)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print file/cache counters to stderr after the run",
    )
    parser.add_argument(
        "--exit-zero",
        action="store_true",
        help="always exit 0 even with findings (for advisory runs)",
    )
    return parser


def _parse_jobs(value: str) -> int:
    if value == "auto":
        return available_cpu_count()
    jobs = int(value)
    if jobs < 1:
        raise ValueError("--jobs must be >= 1 or 'auto'")
    return jobs


def main(argv: Sequence[str] | None = None) -> int:
    """Run streamlint; returns the process exit code (see module docstring)."""
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for rule_id, cls in all_rules().items():
            print(f"{rule_id}  [{cls.severity}] ({cls.scope})  {cls.description}")
        return 0

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(f"repro-lint: path(s) not found: {', '.join(missing)}", file=sys.stderr)
        return 2

    try:
        jobs = _parse_jobs(args.jobs)
    except ValueError as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return 2

    baseline_path = _resolve_baseline_path(args)
    baseline = None
    if baseline_path is not None and not args.write_baseline:
        try:
            baseline = load_baseline(baseline_path)
        except (OSError, ValueError) as exc:
            print(f"repro-lint: {exc}", file=sys.stderr)
            return 2

    try:
        result = run_analysis(
            [Path(p) for p in args.paths],
            select=args.select,
            ignore=args.ignore,
            jobs=jobs,
            cache_path=args.cache,
            baseline=baseline,
        )
    except ValueError as exc:  # unknown rule id in --select/--ignore
        print(f"repro-lint: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        target = baseline_path or Path(DEFAULT_BASELINE_NAME)
        keys = write_baseline(result.findings, target)
        print(
            f"streamlint: wrote baseline {target} "
            f"({len(result.findings)} finding(s), {keys} key(s))"
        )
        return 0

    print(REPORTERS[args.format](result.findings))
    if result.baseline_absorbed:
        # stderr so machine formats (json/sarif) stay parseable on stdout
        print(
            f"streamlint: {result.baseline_absorbed} finding(s) absorbed "
            f"by baseline {baseline_path}",
            file=sys.stderr,
        )
    if args.sarif:
        Path(args.sarif).write_text(render_sarif(result.findings) + "\n")
    if args.stats:
        print(
            f"streamlint: {result.file_count} file(s), "
            f"{result.cache_hits} cache hit(s), "
            f"{result.cache_misses} miss(es), jobs={jobs}",
            file=sys.stderr,
        )

    if args.exit_zero or not result.findings:
        return 0
    return 1 if result.worst is Severity.ERROR else 3


def _resolve_baseline_path(args: argparse.Namespace) -> Path | None:
    if args.no_baseline:
        return None
    if args.baseline is not None:
        return Path(args.baseline)
    default = Path(DEFAULT_BASELINE_NAME)
    if default.exists() or args.write_baseline:
        return default
    return None

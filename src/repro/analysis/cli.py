"""streamlint command line.

``python -m repro.analysis src/repro`` (or the ``repro-lint`` console
script) scans the given paths in one process, prints findings, and exits
by worst surviving severity — the contract CI relies on:

* ``0`` — clean (or ``--exit-zero``)
* ``1`` — at least one error-severity finding
* ``2`` — usage error (missing path, unknown rule id)
* ``3`` — warnings only

``--select``/``--ignore`` narrow the rule set and ``--format json`` emits
a machine report.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis.engine import all_rules, run_analysis
from repro.analysis.findings import Severity
from repro.analysis.reporters import REPORTERS


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-lint`` argument parser (exposed for --help snapshots)."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "streamlint: static analysis for streaming correctness "
            "(seeded randomness, mergeable operator state, "
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
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )
    parser.add_argument(
        "--exit-zero",
        action="store_true",
        help="always exit 0 even with findings (for advisory runs)",
    )
    return parser


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
        result = run_analysis(
            [Path(p) for p in args.paths], select=args.select, ignore=args.ignore
        )
    except ValueError as exc:  # unknown rule id in --select/--ignore
        print(f"repro-lint: {exc}", file=sys.stderr)
        return 2

    print(REPORTERS[args.format](result.findings))
    if args.exit_zero or not result.findings:
        return 0
    return 1 if result.worst is Severity.ERROR else 3

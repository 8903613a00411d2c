"""Finding reporters: human text and machine JSON.

Reporters take the sorted finding list and render to a string; the CLI
picks one via ``--format``. JSON output carries a summary block (counts
by rule and severity) so CI dashboards can trend rule hits without
re-parsing individual findings.
"""

from __future__ import annotations

import collections
import json
from typing import Sequence

from repro.analysis.findings import Finding, Severity


def render_text(findings: Sequence[Finding]) -> str:
    """One ``path:line:col: RULE severity: message`` line per finding."""
    lines = [f.format() for f in findings]
    errors = sum(1 for f in findings if f.severity is Severity.ERROR)
    warnings = len(findings) - errors
    if findings:
        lines.append("")
        lines.append(
            f"streamlint: {len(findings)} finding(s) "
            f"({errors} error(s), {warnings} warning(s))"
        )
    else:
        lines.append("streamlint: clean")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding]) -> str:
    """JSON document with findings plus per-rule / per-severity counts."""
    by_rule: collections.Counter[str] = collections.Counter(
        f.rule_id for f in findings
    )
    by_severity: collections.Counter[str] = collections.Counter(
        str(f.severity) for f in findings
    )
    doc = {
        "findings": [f.to_dict() for f in findings],
        "summary": {
            "total": len(findings),
            "by_rule": dict(sorted(by_rule.items())),
            "by_severity": dict(sorted(by_severity.items())),
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True)


REPORTERS = {"text": render_text, "json": render_json}

"""Finding and Severity: the unit of output of every streamlint rule.

A :class:`Finding` pins a rule violation to an exact ``file:line:col`` so
editors and CI logs can jump straight to it. Findings sort by location so
reports are stable across runs — determinism in the linter itself, matching
the determinism it enforces.

Each finding also carries the module's *relpath* (posix path relative to
the scan root), which the suppression router keys on, so a tree scanned
as ``src/repro`` and the same tree scanned via an absolute path are
silenced by the same pragmas.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings break reproducibility or scale-out correctness and
    fail the build; ``WARNING`` findings are strongly discouraged patterns
    that may be legitimate in rare cases.
    """

    WARNING = "warning"
    ERROR = "error"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule_id: str
    severity: Severity = field(compare=False)
    message: str = field(compare=False)
    relpath: str = field(compare=False, default="")

    def format(self) -> str:
        """Render as ``path:line:col: RULE severity: message``."""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule_id} {self.severity}: {self.message}"
        )

    def to_dict(self) -> dict:
        """JSON-serialisable representation (the JSON reporter)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "severity": str(self.severity),
            "message": self.message,
            "relpath": self.relpath,
        }

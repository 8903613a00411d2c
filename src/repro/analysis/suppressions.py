"""Inline suppression comments for streamlint.

Two forms, mirroring the classic lint idiom:

* ``# streamlint: disable=SL001`` on (or for multi-line statements, at the
  start of) the offending line silences the listed rules for that line.
  Several rules separate with commas: ``disable=SL001,SL003``. ``all``
  silences every rule on the line.
* ``# streamlint: disable-file=SL004`` anywhere in a module silences the
  listed rules (or ``all``) for the whole file.

Suppressions are parsed from the token stream, not regexes over raw source,
so a ``disable=`` inside a string literal never counts.
"""

from __future__ import annotations

import io
import re
import tokenize

_DIRECTIVE = re.compile(
    r"#\s*streamlint:\s*(?P<kind>disable(?:-file)?)\s*=\s*(?P<rules>[A-Za-z0-9_,\s]+)"
)

ALL = "all"


class SuppressionIndex:
    """Which rules are silenced on which lines of one module."""

    def __init__(self) -> None:
        self._by_line: dict[int, set[str]] = {}
        self._file_wide: set[str] = set()

    @classmethod
    def from_source(cls, source: str) -> "SuppressionIndex":
        """Parse every ``# streamlint:`` directive out of *source*.

        Source that fails to tokenize yields an empty index (the engine
        reports the syntax error separately).
        """
        index = cls()
        try:
            tokens = tokenize.generate_tokens(io.StringIO(source).readline)
            for tok in tokens:
                if tok.type != tokenize.COMMENT:
                    continue
                match = _DIRECTIVE.search(tok.string)
                if not match:
                    continue
                rules = {
                    r.strip().upper() if r.strip().lower() != ALL else ALL
                    for r in match.group("rules").split(",")
                    if r.strip()
                }
                if match.group("kind") == "disable-file":
                    index._file_wide |= rules
                else:
                    index._by_line.setdefault(tok.start[0], set()).update(rules)
        except (tokenize.TokenError, IndentationError, SyntaxError):
            pass
        return index

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        """Whether *rule_id* is silenced at *line* (or file-wide)."""
        if ALL in self._file_wide or rule_id in self._file_wide:
            return True
        at_line = self._by_line.get(line)
        return bool(at_line) and (ALL in at_line or rule_id in at_line)

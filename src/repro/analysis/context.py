"""Per-module analysis context shared by every rule.

A :class:`ModuleContext` bundles a parsed module with the derived facts
rules keep needing: the AST, the suppression index, and an import-alias
table that resolves ``np.random.rand`` back to ``numpy.random.rand`` no
matter how the module spelled its imports.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.suppressions import SuppressionIndex


@dataclass
class ModuleContext:
    """One parsed source module plus derived lookup tables."""

    path: Path
    relpath: str  # posix path relative to the scan root, e.g. "frequency/cms.py"
    source: str
    tree: ast.Module
    suppressions: SuppressionIndex
    aliases: dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_file(cls, path: Path, root: Path) -> "ModuleContext":
        """Parse *path*; raises ``SyntaxError`` on unparsable source."""
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        ctx = cls(
            path=path,
            relpath=relpath_under(path, root),
            source=source,
            tree=tree,
            suppressions=SuppressionIndex.from_source(source),
        )
        ctx.aliases = _collect_import_aliases(tree)
        return ctx

    def in_package(self, package: str) -> bool:
        """Whether the module lives under top-level *package* (e.g. "platform")."""
        parts = self.relpath.split("/")
        return bool(parts) and parts[0] == package

    def resolve_call_target(self, node: ast.AST) -> str | None:
        """Dotted origin of a call target, unwound through import aliases.

        ``np.random.rand`` with ``import numpy as np`` → ``numpy.random.rand``;
        ``randint`` with ``from random import randint`` → ``random.randint``.
        Returns ``None`` when the root name is not an imported module.
        """
        parts: list[str] = []
        cur = node
        while isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            cur = cur.value
        if not isinstance(cur, ast.Name):
            return None
        origin = self.aliases.get(cur.id)
        if origin is None:
            return None
        parts.append(origin)
        return ".".join(reversed(parts))


def relpath_under(path: Path, root: Path) -> str:
    """Posix path of *path* relative to *root* (as given when outside it)."""
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def _collect_import_aliases(tree: ast.Module) -> dict[str, str]:
    """Map local names to the dotted origin they were imported from."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                # `import numpy.random` binds `numpy`; `import numpy.random
                # as npr` binds the full dotted path to `npr`.
                origin = alias.name if alias.asname else alias.name.split(".")[0]
                aliases[local] = origin
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:  # relative imports: skip
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                aliases[local] = f"{node.module}.{alias.name}"
    return aliases

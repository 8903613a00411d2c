"""The project model: cross-module semantic indexes for project rules.

Assembled once per run from the per-module facts documents
(:mod:`repro.analysis.facts`), never from ASTs. It resolves the class
hierarchy across modules (``base_origins`` carry import-alias-resolved
dotted names) and builds the module import graph.

Hierarchy roots (``SynopsisBase``, ``Bolt``, ``Spout``) are matched by
simple name, so fixture trees that declare their own tiny ``class Bolt``
hierarchy exercise project rules without importing the real runtime.
"""

from __future__ import annotations

from typing import Any, Iterator

#: Root base classes of the two stateful runtime hierarchies.
SYNOPSIS_ROOT = "SynopsisBase"
BOLT_ROOT = "Bolt"
SPOUT_ROOT = "Spout"


class ProjectModel:
    """Queryable cross-module view of one analyzed tree."""

    def __init__(self, modules: dict[str, dict[str, Any]]):
        #: relpath -> facts document, in sorted relpath order.
        self.modules: dict[str, dict] = dict(sorted(modules.items()))
        #: simple class name -> (relpath, class facts); first module wins
        #: on (rare) duplicate names, deterministic via the sort above.
        self.classes: dict[str, tuple[str, dict]] = {}
        #: relpath -> set of relpaths it imports (intra-tree edges only).
        self.import_graph: dict[str, set[str]] = {}

        for relpath, facts in self.modules.items():
            for name, cf in facts.get("classes", {}).items():
                self.classes.setdefault(name, (relpath, cf))
        self._build_import_graph()

    # -- import graph --------------------------------------------------------

    def _build_import_graph(self) -> None:
        # Map dotted module origins ("repro.core.registry") to relpaths
        # ("core/registry.py") so edges stay within the scanned tree.
        by_dotted: dict[str, str] = {}
        for relpath in self.modules:
            stem = relpath[:-3] if relpath.endswith(".py") else relpath
            parts = [p for p in stem.split("/") if p]
            if parts and parts[-1] == "__init__":
                parts = parts[:-1]
            dotted = ".".join(parts)
            by_dotted[dotted] = relpath
            by_dotted["repro." + dotted] = relpath
        for relpath, facts in self.modules.items():
            edges: set[str] = set()
            for origin in facts.get("imports", {}).values():
                probe = origin
                while probe:
                    target = by_dotted.get(probe)
                    if target is not None and target != relpath:
                        edges.add(target)
                        break
                    probe = probe.rpartition(".")[0]
            self.import_graph[relpath] = edges

    # -- class hierarchy -----------------------------------------------------

    def get_class(self, name: str) -> tuple[str, dict] | None:
        """The ``(relpath, class_facts)`` for *name*, if any module defines it."""
        return self.classes.get(name)

    def all_classes(self) -> Iterator[tuple[str, str, dict]]:
        """Yield ``(relpath, class name, class facts)`` in sorted order."""
        for relpath, facts in self.modules.items():
            for name, cf in facts.get("classes", {}).items():
                yield relpath, name, cf

    def _base_names(self, cf: dict) -> set[str]:
        names = set(cf.get("bases", ()))
        for origin in cf.get("base_origins", ()):
            names.add(origin.rsplit(".", 1)[-1])
        return names

    def derives_from(self, name: str, root: str) -> bool:
        """True when class *name* transitively derives from *root*.

        Resolution crosses modules via the simple-name class index and is
        cycle-safe. *root* matches by simple name in either the syntactic
        base list or the alias-resolved origin.
        """
        seen: set[str] = set()
        stack = [name]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            entry = self.classes.get(current)
            if entry is None:
                continue
            bases = self._base_names(entry[1])
            if root in bases:
                return True
            stack.extend(bases)
        return False

    def subclasses_of(
        self, root: str, *, concrete_only: bool = False
    ) -> Iterator[tuple[str, str, dict]]:
        """All classes deriving (transitively) from *root*, excluding it."""
        for relpath, name, cf in self.all_classes():
            if name == root or not self.derives_from(name, root):
                continue
            if concrete_only and cf.get("abstract"):
                continue
            yield relpath, name, cf

    def resolve_method(
        self, name: str, method: str, *, stop_roots: frozenset[str] = frozenset()
    ) -> tuple[str, dict] | None:
        """Find *method* on class *name* or its ancestors below *stop_roots*.

        Returns ``(owning class name, method facts)`` via MRO-ish
        depth-first search over the cross-module hierarchy; ancestors whose
        simple name is in *stop_roots* (and everything above them) are not
        searched, so a ``Bolt`` subclass "defines snapshot" only when some
        class below the runtime root overrides it.
        """
        seen: set[str] = set()
        stack = [name]
        while stack:
            current = stack.pop(0)
            if current in seen or current in stop_roots:
                continue
            seen.add(current)
            entry = self.classes.get(current)
            if entry is None:
                continue
            cf = entry[1]
            if method in cf.get("methods", {}):
                return current, cf["methods"][method]
            stack.extend(b for b in cf.get("bases", ()) if b not in stop_roots)
        return None

    def attr_type(self, cf: dict, attr: str) -> dict | None:
        """The attribute-fact record for ``self.<attr>`` on a class."""
        return cf.get("attrs", {}).get(attr)

    def resolve_attr(self, name: str, attr: str) -> dict | None:
        """Attribute-fact for ``self.<attr>`` on class *name* or ancestors."""
        seen: set[str] = set()
        stack = [name]
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            entry = self.classes.get(current)
            if entry is None:
                continue
            info = entry[1].get("attrs", {}).get(attr)
            if info is not None:
                return info
            stack.extend(entry[1].get("bases", ()))
        return None

    # -- convenience ---------------------------------------------------------

    def is_stream_operator(self, name: str) -> bool:
        """True if *name* transitively derives from ``Bolt`` or ``Spout``."""
        return self.derives_from(name, BOLT_ROOT) or self.derives_from(
            name, SPOUT_ROOT
        )

    def display_path(self, relpath: str) -> str:
        """The as-invoked path for *relpath*, for ``file:line:col`` findings."""
        facts = self.modules.get(relpath)
        return facts["path"] if facts else relpath
